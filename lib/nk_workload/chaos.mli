(** The chaos acceptance scenario: a 4-node deployment serving a
    script-free 30-request workload under a seeded fault plan.

    Two clients issue one request every 2 s from [Sim.epoch + 1],
    round-robin over the four proxies, each with a 15 s client timeout;
    the run ends at [Sim.epoch + 120], past the last timeout with slack
    for the retry and anti-entropy daemons. No site publishes a
    [nakika.js], so no process-wide script cache can perturb the
    telemetry. The chaos test suite, the [faults] bench and
    [nakika chaos] all run this one scenario. *)

val proxy_names : string list
(** [nk-a] to [nk-d] under [nakika.net], in the order they are added. *)

val seed_base : unit -> int
(** [NAKIKA_CHAOS_SEED * 1_000_003], or 0 when the variable is unset or
    not a number. CI reruns the seeded suites and benches under a few
    values of it; the chaos soak adds it to each generated seed. *)

val random_plan : int -> Nk_faults.Plan.t
(** The soak envelope, derived deterministically from the seed (which
    becomes the plan's seed): drops <= 30%, maybe a latency spike rule,
    at most 2 partitions that always heal, at most one crash and
    restart per proxy. [nakika chaos --seed N] runs [random_plan N]. *)

val acceptance_plan : degraded:bool -> Nk_faults.Plan.t
(** The acceptance pair, both seeded 3: fault-free, or (degraded) 10%
    uniform drops plus a partition {nk-a, nk-b} | {nk-c, nk-d} from
    [epoch + 10] that heals at [epoch + 25]. *)

type outcome = {
  issued : int;
  answered : int;
  ok : int;  (** 2xx responses *)
  statuses : string;  (** every response status in arrival order *)
  cluster : Nk_node.Cluster.t;
}

val run : Nk_faults.Plan.t -> outcome
(** Runs the scenario on a cluster seeded with the plan's seed. *)

val merge_metrics : into:Nk_telemetry.Metrics.t -> Nk_node.Cluster.t -> unit
(** Merges the fault-layer registries — network, message bus, DHT, in
    that order — into [into]. *)
