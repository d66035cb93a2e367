(** Deterministic discrete-event simulation core.

    All end-to-end experiments (§5) run on this clock: events are
    scheduled at absolute times and executed in order; ties break by
    scheduling order. The simulated clock stands in for both wall-clock
    latency and HTTP absolute expiration times. *)

type t

val epoch : float
(** The simulator's default start time in epoch seconds: 1,136,073,600,
    January 2006 — the paper's era — so HTTP dates look plausible.
    Fault plans and open-loop workloads use absolute times and are
    built before the simulator exists, so they count from here. *)

val create : ?seed:int -> ?start_time:float -> unit -> t
(** [start_time] is the initial clock value in epoch seconds (defaults
    to [epoch]). *)

val now : t -> float

val prng : t -> Nk_util.Prng.t
(** The simulation-wide deterministic random stream. *)

val schedule : t -> ?daemon:bool -> delay:float -> (unit -> unit) -> unit
(** Run a thunk [delay] seconds from now (clamped to now for negative
    delays). A [daemon] event (periodic monitors, log posters) does not
    keep [run] alive: once only daemon events remain, [run] returns. *)

val schedule_at : t -> ?daemon:bool -> float -> (unit -> unit) -> unit

val run : ?until:float -> t -> unit
(** Drain the event queue until only daemon events remain; with
    [until], stop once the clock would pass it (remaining events stay
    queued). *)

val step : t -> bool
(** Execute one event; false when the queue is empty. *)

val pending : t -> int

val executed : t -> int
(** Total events executed since creation (daemons included). Scale
    soaks assert on it to prove a run really exercised the claimed
    event volume. *)
