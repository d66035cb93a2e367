(** The open-loop request tally every fixed-schedule experiment keeps.

    An open-loop workload fires each request at its own absolute time,
    whatever happened to the earlier ones. The tally counts what was
    issued and how each request was answered: [ok] (200), [rejected]
    (503: a shed, a quarantine, an open breaker) or [errors] (anything
    else, including the client timeout's synthesized 504). It keeps
    the client-perceived latency of every 200. *)

type t = private {
  mutable issued : int;
  mutable ok : int;
  mutable rejected : int;
  mutable errors : int;
  mutable latencies : float list;  (** of the 200s, newest first *)
}

val create : unit -> t

val fetch_at :
  t ->
  Nk_node.Cluster.t ->
  at:float ->
  clients:Nk_sim.Net.host array ->
  ?proxy:Nk_node.Node.t ->
  ?on_response:(Nk_http.Message.response -> float -> unit) ->
  string ->
  unit
(** [fetch_at t cluster ~at ~clients url] schedules one GET of [url]
    at absolute time [at]. When it fires it counts as issued, and the
    [n]-th issued request (1-based) goes from [clients.(n mod
    Array.length clients)] with a 10 s client timeout, through [proxy]
    or the redirector's pick. The response is tallied, then passed to
    [on_response] with its latency in simulated seconds. *)

val answered : t -> int
(** Requests that got any response: [ok + rejected + errors]. *)

val goodput : t -> float
(** [ok / issued]; 0 before anything is issued. *)

val percentile : float list -> float -> float
(** [percentile samples p] sorts [samples] and takes index
    [min (n - 1) (int_of_float (float n *. p))]; 0 when empty. *)
