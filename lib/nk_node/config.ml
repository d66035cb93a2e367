type costs = {
  proxy_base : float;
  cache_hit : float;
  context_create : float;
  context_reuse : float;
  tree_cached : float;
  parse_base : float;
  parse_per_byte : float;
  predicate_eval : float;
  handler_per_fuel : float;
  handler_invoke : float;
  heap_cpu_per_byte : float;
  concurrency_cpu : float;
  dht_per_hop : float;
}

type t = {
  enable_pipeline : bool;
  enable_dht : bool;
  enable_resource_controls : bool;
  cache_bytes : int;
  script_max_fuel : int;
  script_max_heap : int;
  script_ttl : float;
  negative_ttl : float;
  dht_ttl : float;
  control_interval : float;
  control_timeout : float;
  termination_penalty : float;
  cpu_congestion_backlog : float;
  memory_congestion_bytes : float;
  bandwidth_congestion_bytes : float;
  local_clients : string list;
  integrity_key : string option;
  misbehaving : bool;
  (* Admission-time static analysis of fetched scripts: [`Strict]
     refuses stages whose script has error-severity lint diagnostics,
     [`Permissive] only exports the counts, [`Off] skips analysis. *)
  lint_mode : [ `Off | `Permissive | `Strict ];
  enable_tracing : bool;
  trace_capacity : int;
  origin_timeout : float;
  peer_timeout : float;
  (* Tail tolerance. [request_deadline] mints a per-request budget at
     admission, propagated on every internal hop via the
     X-NaKika-Deadline header; 0 — the default — mints nothing, and a
     node still honors budgets stamped by upstream nodes.
     [enable_hedging] races a backup replica fetch against a peer
     fetch that has outlived the upstream's p95, governed by a token
     bucket refilled at [hedge_rate] per primary fetch (so hedges are
     bounded to that fraction of fetch load). [retry_budget_ratio] is
     the per-success refill of the per-upstream retry budgets; 0 — the
     default — disables budgeted retries and keeps the pre-existing
     retry behavior bit-identical. *)
  request_deadline : float;
  enable_hedging : bool;
  hedge_rate : float;
  retry_budget_ratio : float;
  stale_if_error : float;
  anti_entropy_interval : float;
  enable_admission : bool;
  admission_target : float;
  admission_interval : float;
  admission_capacity : int;
  breaker_failures : int;
  breaker_error_rate : float;
  breaker_window : float;
  breaker_cooldown : float;
  breaker_max_cooldown : float;
  quarantine_max : float;
  quarantine_decay : float;
  health_report_interval : float;
  enable_diffusion : bool;
  diffusion_low_water : float;
  diffusion_high_water : float;
  diffusion_fanout : int;
  diffusion_offload_timeout : float;
  diffusion_fetch_timeout : float;
  diffusion_staleness : float;
  (* Hotspot detection + Coral-style sloppy replication on the shared
     DHT index: keys whose decayed request rate crosses
     [hotspot_threshold] req/s get their announcements replicated onto
     [hotspot_replicas] nodes along the lookup funnel for
     [hotspot_ttl] seconds. Off by default so small-cluster behavior
     is unchanged. *)
  enable_hotspots : bool;
  hotspot_threshold : float;
  hotspot_replicas : int;
  hotspot_ttl : float;
  hotspot_halflife : float;
  (* Per-site parameters lowered from a provisioning plan
     (lib/nk_provision). Each list is ordered: patterns ("host", "*",
     "*.suffix") resolve first-match, the order the plan declared them
     in. Empty lists — the default — leave behavior identical to a
     plan-free node. *)
  site_shares : (string * float) list;
      (* (pattern, fraction of admission_capacity) guaranteed slices *)
  site_quarantine : (string * float * float) list;
      (* (pattern, base, max) ban-window overrides *)
  site_fuel : (string * int) list; (* (pattern, per-request fuel cap) *)
  site_heap : (string * int) list; (* (pattern, script-heap cap, bytes) *)
  plan_hash : string option;
  (* SHA-256 (hex) of the plan text this config was lowered from; None
     for hand-built configs. Surfaced by [nakika stats --health]. *)
  costs : costs;
  seed : int;
}

let default_costs =
  {
    (* A plain proxy tops out at 603 rps on the reference machine
       (§5.1), i.e. ~1.66 ms of CPU per request: proxy handling plus
       cache retrieval (1.1 ms). *)
    proxy_base = 0.0007;
    cache_hit = 0.0008;
    context_create = 0.0015;
    context_reuse = 0.000003;
    tree_cached = 0.000004;
    parse_base = 0.00008;
    (* Large wall/site scripts take up to ~17.8 ms to parse+execute;
       our scripts are a few hundred bytes to a few KB. *)
    parse_per_byte = 0.0000012;
    predicate_eval = 0.000038;
    (* Match-1 runs at 294 rps => ~3.4 ms/request; the gap to proxy_base
       is filled by the two wall stages + site stage (predicate evals,
       context touches) and the handler fuel. *)
    handler_per_fuel = 0.0000003;
    (* Crossing into the scripting engine and back per event handler;
       with two walls and the Match-1 site stage this fills the gap
       between 603 rps (Proxy) and 294 rps (Match-1). *)
    handler_invoke = 0.0004;
    (* A memory bomb that allocates the full 64 MiB sandbox heap costs
       ~2 s of paging pressure on the 1 GB reference machine. *)
    heap_cpu_per_byte = 1e-8;
    (* Unmanaged overload (no admission control) degrades throughput:
       every concurrent request adds scheduling/paging pressure. *)
    concurrency_cpu = 0.00001;
    dht_per_hop = 0.0008;
  }

let default =
  {
    enable_pipeline = true;
    enable_dht = true;
    enable_resource_controls = true;
    cache_bytes = 256 * 1024 * 1024;
    script_max_fuel = 5_000_000;
    script_max_heap = 64 * 1024 * 1024;
    script_ttl = 300.0;
    negative_ttl = 60.0;
    dht_ttl = 300.0;
    control_interval = 1.0;
    control_timeout = 0.5;
    termination_penalty = 30.0;
    cpu_congestion_backlog = 0.08;
    memory_congestion_bytes = 128.0 *. 1024.0 *. 1024.0;
    bandwidth_congestion_bytes = 50.0 *. 1024.0 *. 1024.0;
    local_clients = [];
    integrity_key = None;
    misbehaving = false;
    lint_mode = `Permissive;
    enable_tracing = true;
    trace_capacity = 256;
    origin_timeout = 10.0;
    peer_timeout = 3.0;
    request_deadline = 0.0;
    enable_hedging = false;
    hedge_rate = 0.05;
    retry_budget_ratio = 0.0;
    stale_if_error = 900.0;
    anti_entropy_interval = 30.0;
    enable_admission = true;
    (* Well above cpu_congestion_backlog: the Fig. 6 monitor handles
       resource hogs; admission control only kicks in when the host is
       drowning in sheer request volume. *)
    admission_target = 0.5;
    admission_interval = 0.5;
    admission_capacity = 64;
    breaker_failures = 3;
    breaker_error_rate = 0.5;
    breaker_window = 10.0;
    breaker_cooldown = 5.0;
    breaker_max_cooldown = 60.0;
    quarantine_max = 240.0;
    quarantine_decay = 60.0;
    health_report_interval = 1.0;
    enable_diffusion = false;
    (* Proactive: well below the 0.5 crossing the pressure signal hits
       at the admission delay target, so diffusion starts moving work
       before admission control starts shedding it. *)
    diffusion_low_water = 0.3;
    diffusion_high_water = 0.8;
    diffusion_fanout = 3;
    diffusion_offload_timeout = 3.0;
    diffusion_fetch_timeout = 2.0;
    diffusion_staleness = 3.0;
    enable_hotspots = false;
    hotspot_threshold = 10.0;
    hotspot_replicas = 3;
    hotspot_ttl = 30.0;
    hotspot_halflife = 10.0;
    site_shares = [];
    site_quarantine = [];
    site_fuel = [];
    site_heap = [];
    plan_hash = None;
    costs = default_costs;
    seed = 7;
  }

let plain_proxy =
  {
    default with
    enable_pipeline = false;
    enable_dht = false;
    enable_resource_controls = false;
    enable_admission = false;
  }

(* --- the knob schema ----------------------------------------------- *)

type kind = Count | Number | Duration | Fraction | Bytes | Toggle

type range = Positive | Non_negative | Unit_open | Unit

type knob = {
  field : string;
  kind : kind;
  range : range;
  plan : (string * string) option;
  unit : string;
  get : t -> float;
  set : t -> float -> t;
}

let knob ?plan ?unit kind range field get set =
  let unit =
    match (unit, kind) with
    | Some unit, _ -> unit
    | None, Duration -> "s"
    | None, Bytes -> " bytes"
    | None, _ -> ""
  in
  { field; kind; range; plan; unit; get; set }

let int_knob ~plan ?unit kind range field get set =
  knob ~plan ?unit kind range field
    (fun c -> float_of_int (get c))
    (fun c v -> set c (int_of_float v))

(* A toggle travels as 1 / 0, which always sits in [Unit]. *)
let toggle ~plan field get set =
  knob ~plan Toggle Unit field (fun c -> if get c then 1.0 else 0.0) (fun c v -> set c (v <> 0.0))

(* Provisionable knobs come first, in the order [nakika plan explain]
   prints them; the rest are node-only and carry no plan spelling. *)
let knobs =
  [
    int_knob ~plan:("capacity", "admission") ~unit:" slots" Count Positive "admission_capacity"
      (fun c -> c.admission_capacity) (fun c v -> { c with admission_capacity = v });
    knob ~plan:("capacity", "target") Duration Positive "admission_target"
      (fun c -> c.admission_target) (fun c v -> { c with admission_target = v });
    knob ~plan:("capacity", "interval") Duration Positive "admission_interval"
      (fun c -> c.admission_interval) (fun c v -> { c with admission_interval = v });
    int_knob ~plan:("capacity", "fuel") Count Positive "script_max_fuel"
      (fun c -> c.script_max_fuel) (fun c v -> { c with script_max_fuel = v });
    int_knob ~plan:("capacity", "heap") Bytes Positive "script_max_heap"
      (fun c -> c.script_max_heap) (fun c v -> { c with script_max_heap = v });
    int_knob ~plan:("capacity", "cache") Bytes Non_negative "cache_bytes"
      (fun c -> c.cache_bytes) (fun c v -> { c with cache_bytes = v });
    toggle ~plan:("diffusion", "enabled") "enable_diffusion"
      (fun c -> c.enable_diffusion) (fun c v -> { c with enable_diffusion = v });
    knob ~plan:("diffusion", "low") Fraction Unit "diffusion_low_water"
      (fun c -> c.diffusion_low_water) (fun c v -> { c with diffusion_low_water = v });
    knob ~plan:("diffusion", "high") Fraction Unit "diffusion_high_water"
      (fun c -> c.diffusion_high_water) (fun c v -> { c with diffusion_high_water = v });
    int_knob ~plan:("diffusion", "fanout") Count Positive "diffusion_fanout"
      (fun c -> c.diffusion_fanout) (fun c v -> { c with diffusion_fanout = v });
    knob ~plan:("diffusion", "timeout") Duration Positive "diffusion_offload_timeout"
      (fun c -> c.diffusion_offload_timeout)
      (fun c v -> { c with diffusion_offload_timeout = v });
    knob ~plan:("diffusion", "fetch-timeout") Duration Positive "diffusion_fetch_timeout"
      (fun c -> c.diffusion_fetch_timeout) (fun c v -> { c with diffusion_fetch_timeout = v });
    knob ~plan:("diffusion", "staleness") Duration Positive "diffusion_staleness"
      (fun c -> c.diffusion_staleness) (fun c v -> { c with diffusion_staleness = v });
    toggle ~plan:("hotspots", "enabled") "enable_hotspots"
      (fun c -> c.enable_hotspots) (fun c v -> { c with enable_hotspots = v });
    knob ~plan:("hotspots", "threshold") ~unit:" req/s" Number Positive "hotspot_threshold"
      (fun c -> c.hotspot_threshold) (fun c v -> { c with hotspot_threshold = v });
    int_knob ~plan:("hotspots", "replicas") Count Positive "hotspot_replicas"
      (fun c -> c.hotspot_replicas) (fun c v -> { c with hotspot_replicas = v });
    knob ~plan:("hotspots", "ttl") Duration Positive "hotspot_ttl"
      (fun c -> c.hotspot_ttl) (fun c v -> { c with hotspot_ttl = v });
    knob ~plan:("hotspots", "halflife") Duration Positive "hotspot_halflife"
      (fun c -> c.hotspot_halflife) (fun c v -> { c with hotspot_halflife = v });
    int_knob ~plan:("breaker", "failures") Count Positive "breaker_failures"
      (fun c -> c.breaker_failures) (fun c v -> { c with breaker_failures = v });
    knob ~plan:("breaker", "error-rate") Fraction Unit_open "breaker_error_rate"
      (fun c -> c.breaker_error_rate) (fun c v -> { c with breaker_error_rate = v });
    knob ~plan:("breaker", "window") Duration Positive "breaker_window"
      (fun c -> c.breaker_window) (fun c v -> { c with breaker_window = v });
    knob ~plan:("breaker", "cooldown") Duration Positive "breaker_cooldown"
      (fun c -> c.breaker_cooldown) (fun c v -> { c with breaker_cooldown = v });
    knob ~plan:("breaker", "max") Duration Positive "breaker_max_cooldown"
      (fun c -> c.breaker_max_cooldown) (fun c v -> { c with breaker_max_cooldown = v });
    knob ~plan:("quarantine", "base") Duration Positive "termination_penalty"
      (fun c -> c.termination_penalty) (fun c v -> { c with termination_penalty = v });
    knob ~plan:("quarantine", "max") Duration Positive "quarantine_max"
      (fun c -> c.quarantine_max) (fun c v -> { c with quarantine_max = v });
    knob ~plan:("quarantine", "decay") Duration Non_negative "quarantine_decay"
      (fun c -> c.quarantine_decay) (fun c v -> { c with quarantine_decay = v });
    knob ~plan:("deadline", "request") Duration Non_negative "request_deadline"
      (fun c -> c.request_deadline) (fun c v -> { c with request_deadline = v });
    toggle ~plan:("deadline", "hedge") "enable_hedging"
      (fun c -> c.enable_hedging) (fun c v -> { c with enable_hedging = v });
    knob ~plan:("deadline", "hedge-rate") Fraction Unit_open "hedge_rate"
      (fun c -> c.hedge_rate) (fun c v -> { c with hedge_rate = v });
    knob ~plan:("deadline", "retry_budget") Fraction Unit "retry_budget_ratio"
      (fun c -> c.retry_budget_ratio) (fun c v -> { c with retry_budget_ratio = v });
    knob Duration Positive "origin_timeout"
      (fun c -> c.origin_timeout) (fun c v -> { c with origin_timeout = v });
    knob Duration Positive "peer_timeout"
      (fun c -> c.peer_timeout) (fun c v -> { c with peer_timeout = v });
    knob Duration Positive "control_interval"
      (fun c -> c.control_interval) (fun c v -> { c with control_interval = v });
    knob Duration Non_negative "control_timeout"
      (fun c -> c.control_timeout) (fun c v -> { c with control_timeout = v });
    knob Duration Positive "cpu_congestion_backlog"
      (fun c -> c.cpu_congestion_backlog) (fun c v -> { c with cpu_congestion_backlog = v });
    knob Bytes Positive "memory_congestion_bytes"
      (fun c -> c.memory_congestion_bytes) (fun c v -> { c with memory_congestion_bytes = v });
    knob Bytes Positive "bandwidth_congestion_bytes"
      (fun c -> c.bandwidth_congestion_bytes)
      (fun c v -> { c with bandwidth_congestion_bytes = v });
    knob Duration Positive "script_ttl"
      (fun c -> c.script_ttl) (fun c v -> { c with script_ttl = v });
    knob Duration Non_negative "negative_ttl"
      (fun c -> c.negative_ttl) (fun c v -> { c with negative_ttl = v });
    knob Duration Positive "dht_ttl"
      (fun c -> c.dht_ttl) (fun c v -> { c with dht_ttl = v });
    knob Duration Non_negative "stale_if_error"
      (fun c -> c.stale_if_error) (fun c v -> { c with stale_if_error = v });
    knob Duration Non_negative "anti_entropy_interval"
      (fun c -> c.anti_entropy_interval) (fun c v -> { c with anti_entropy_interval = v });
    knob Duration Non_negative "health_report_interval"
      (fun c -> c.health_report_interval) (fun c v -> { c with health_report_interval = v });
  ]

type order = {
  low : knob;
  high : knob;
  strict : bool;
  code : string;
  says : (string -> string -> string, unit, string) format;
}

let orderings =
  let knob field = List.find (fun k -> k.field = field) knobs in
  let order low high strict code says = { low = knob low; high = knob high; strict; code; says } in
  [
    order "diffusion_low_water" "diffusion_high_water" true "inverted-waters"
      "diffusion waters: low (%s) must be below high (%s)";
    order "breaker_cooldown" "breaker_max_cooldown" false "breaker-cooldown-exceeds-max"
      "breaker cooldown (%s) exceeds the backoff cap (%s)";
    order "termination_penalty" "quarantine_max" false "quarantine-base-exceeds-max"
      "quarantine base window (%s) exceeds the cap (%s)";
  ]

let in_range range v =
  match range with
  | Positive -> v > 0.0
  | Non_negative -> v >= 0.0
  | Unit_open -> v > 0.0 && v <= 1.0
  | Unit -> v >= 0.0 && v <= 1.0

let describe_range ?(percent = false) range =
  let bound x = if percent then Printf.sprintf "%g%%" (100.0 *. x) else Printf.sprintf "%g" x in
  match range with
  | Positive -> "must be positive"
  | Non_negative -> "must not be negative"
  | Unit_open -> Printf.sprintf "must be in (%s, %s]" (bound 0.0) (bound 1.0)
  | Unit -> Printf.sprintf "must be in [%s, %s]" (bound 0.0) (bound 1.0)

let ordered o ~low ~high = if o.strict then low < high else low <= high

let show k v =
  match k.kind with
  | Toggle -> if v <> 0.0 then "on" else "off"
  | Count | Bytes -> Printf.sprintf "%d%s" (int_of_float v) k.unit
  | Number | Duration | Fraction -> Printf.sprintf "%g%s" v k.unit

(* The config checker core. Node construction refuses configs with
   findings, and the provisioning compiler (lib/nk_provision) runs the
   same function over every config it lowers — a plan that verifies can
   never produce a config a node would reject, because rejection and
   verification are literally the same checks.

   Checks are deliberately limited to values that are wrong under any
   interpretation (inverted orderings, non-positive capacities, negative
   timeouts); documented sentinel values (e.g. [stale_if_error = 0]
   disables degradation) stay legal. *)
let validate t =
  let problems = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun k ->
      let v = k.get t in
      if not (in_range k.range v) then
        reject "%s %s (got %g)" k.field (describe_range k.range) v)
    knobs;
  List.iter
    (fun o ->
      let low = o.low.get t and high = o.high.get t in
      if not (ordered o ~low ~high) then
        reject "%s (%g) %s %s (%g)" o.low.field low
          (if o.strict then "must be below" else "exceeds")
          o.high.field high)
    orderings;
  let share_total = ref 0.0 in
  List.iter
    (fun (pattern, f) ->
      if pattern = "" then reject "site_shares: empty site pattern";
      if f <= 0.0 || f > 1.0 then
        reject "site_shares[%s]: share must be in (0, 1] (got %g)" pattern f
      else begin
        share_total := !share_total +. f;
        if Nk_resource.Shares.slots ~capacity:t.admission_capacity f < 1 then
          reject "site_shares[%s]: share %g%% of capacity %d rounds to zero slots" pattern
            (100.0 *. f) t.admission_capacity
      end)
    t.site_shares;
  if !share_total > 1.0 +. 1e-9 then
    reject "site_shares: declared shares sum to %g%% of capacity (over 100%%)"
      (100.0 *. !share_total);
  List.iter
    (fun (pattern, base, max_window) ->
      if pattern = "" then reject "site_quarantine: empty site pattern";
      if base <= 0.0 then
        reject "site_quarantine[%s]: base window must be positive (got %g)" pattern base;
      if base > max_window then
        reject "site_quarantine[%s]: base window (%g) exceeds max (%g)" pattern base
          max_window)
    t.site_quarantine;
  List.iter
    (fun (pattern, fuel) ->
      if fuel <= 0 then reject "site_fuel[%s]: fuel cap must be positive (got %d)" pattern fuel)
    t.site_fuel;
  List.iter
    (fun (pattern, heap) ->
      if heap <= 0 then reject "site_heap[%s]: heap cap must be positive (got %d)" pattern heap)
    t.site_heap;
  List.iter
    (fun block ->
      match Nk_http.Ip.cidr_of_string block with
      | Ok _ -> ()
      | Error e -> reject "local_clients: %s" e)
    t.local_clients;
  List.rev !problems
