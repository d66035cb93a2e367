(** The overload acceptance scenario: a flash crowd plus a stream to a
    fragile origin, on three proxies behind the redirector.

    The workload is the same in every run:
    - a flash crowd of 600 requests for one hot page within ~1.2 s from
      [Sim.epoch + 5], enough to overrun a node's admission queue, and
    - a background stream of 30 requests, one per second from
      [Sim.epoch + 1], for a page on [dead.example.org] (max-age 2 s,
      so once the first copy expires only stale-if-error can answer).
    Three clients take turns by issue order; the run ends at
    [Sim.epoch + 90]. The chaos test suite and the [overload] bench
    both run this one scenario. *)

val plan : degraded:bool -> Nk_faults.Plan.t
(** Both plans are seeded 5. The degraded one crashes nk-b as the crowd
    peaks ([epoch + 5.6]) and restarts it at [epoch + 21], and fails
    [dead.example.org] from [epoch + 4] to the end of the run. *)

type outcome = {
  tally : Open_loop.t;  (** all 630 requests *)
  bare_503s : int;
      (** hot-page 503s without [Retry-After]. That origin stays up, so
          every 503 there is node-made and must carry the hint; the dead
          origin's own 503s pass through verbatim and are exempt. *)
  dead_origin_hits : int;  (** requests that reached [dead.example.org] *)
  cluster : Nk_node.Cluster.t;
}

val run : Nk_faults.Plan.t -> outcome
(** Runs the scenario on a cluster seeded with
    [Chaos.seed_base () + Plan.seed plan]: [NAKIKA_CHAOS_SEED] varies
    the cluster's PRNG, never the fault schedule. *)
