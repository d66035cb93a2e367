(** The congestion-control loop of Fig. 6.

    The monitor owns the whole algorithm: the node-wide congestion
    windows, the thresholds they are compared against, the per-resource
    throttle tables, and the schedule of the control cycle. The node
    reports usage ({!observe}), asks what fraction of a site's requests
    to refuse ({!throttle_fraction}), and supplies the one action only it
    can take, terminating a site.

    For each tracked resource, CONTROL runs in two halves separated by a
    timeout that lets throttling take effect:

    - [begin_control]: when the resource is congested, fold interval
      usage into the averages, rank the active sites by usage, and
      throttle each proportionally to its contribution (scaled by how
      far the node is over its thresholds); when the resource is
      uncongested, just fold usage.
    - [finish_control]: when congestion persists *despite* the
      throttling (the final check, at three times the threshold),
      terminate the largest contributor's pipelines; otherwise lift the
      resource's throttles. *)

type t

val create :
  accounting:Accounting.t ->
  cpu_congestion_backlog:float ->
  memory_congestion_bytes:float ->
  bandwidth_congestion_bytes:float ->
  control_interval:float ->
  control_timeout:float ->
  cpu_backlog:(unit -> float) ->
  clock:(unit -> float) ->
  schedule:(float -> (unit -> unit) -> unit) ->
  terminate:(site:string -> unit) ->
  ?events:Nk_telemetry.Events.t ->
  ?metrics:Nk_telemetry.Metrics.t ->
  unit ->
  t
(** CPU counts as congested while [cpu_backlog ()] (seconds of queued
    work) exceeds [cpu_congestion_backlog]; memory and bandwidth while
    the bytes {!observe}d since the last window reset arrive at
    [*_congestion_bytes] per [control_interval] or faster.
    [schedule delay k] must run [k] after [delay] seconds; in a
    simulation a daemon timer, so the control cycle never keeps a run
    alive.

    With [events]/[metrics], every throttle, termination, and
    restoration decision is recorded as a structured
    ["throttle"]/["terminate"]/["unthrottle"] event carrying the
    affected site, the resource, and (for throttles) the fraction —
    plus site-labeled ["monitor.throttles"] / ["monitor.terminations"]
    / ["monitor.unthrottles"] counters. *)

val start : t -> unit
(** Schedule the control cycle: [begin_control] over every resource one
    [control_interval] from now, [finish_control] [control_timeout]
    later, and again every interval after that. *)

val observe : t -> Resource.t -> float -> unit
(** Add consumption to the congestion windows (memory and bandwidth
    bytes; other resources are not windowed). The node charges
    {!Accounting} with the same amounts. *)

val throttle_fraction : t -> site:string -> float
(** The probability with which the node refuses the site's next
    request: the largest throttle over all resources, 0 when none. *)

val begin_control : t -> Resource.t -> [ `Congested of (string * float) list | `Clear ]
(** The list pairs each throttled site with its contribution. *)

val finish_control : t -> Resource.t -> [ `Terminated of string | `Unthrottled ]

val terminated : t -> string list
(** Sites terminated so far, most recent first. *)

val terminations : t -> int
