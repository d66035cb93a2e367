type event = { thunk : unit -> unit; daemon : bool }

type t = {
  mutable clock : float;
  queue : event Nk_util.Heap.t;
  rng : Nk_util.Prng.t;
  mutable live : int; (* non-daemon events pending *)
  mutable executed : int; (* events run so far; scale soaks assert on it *)
}

(* January 2006, the paper's era, so HTTP dates look plausible. *)
let epoch = 1_136_073_600.0

let create ?(seed = 1) ?(start_time = epoch) () =
  { clock = start_time; queue = Nk_util.Heap.create (); rng = Nk_util.Prng.create seed;
    live = 0; executed = 0 }

let now t = t.clock

let prng t = t.rng

let schedule_at t ?(daemon = false) time thunk =
  let time = if time < t.clock then t.clock else time in
  if not daemon then t.live <- t.live + 1;
  Nk_util.Heap.push t.queue time { thunk; daemon }

let schedule t ?daemon ~delay thunk = schedule_at t ?daemon (t.clock +. delay) thunk

let step t =
  match Nk_util.Heap.pop t.queue with
  | None -> false
  | Some (time, event) ->
    t.clock <- time;
    if not event.daemon then t.live <- t.live - 1;
    t.executed <- t.executed + 1;
    event.thunk ();
    true

let run ?until t =
  match until with
  | None -> while t.live > 0 && step t do () done
  | Some deadline ->
    let continue = ref true in
    while !continue do
      match Nk_util.Heap.peek t.queue with
      | Some (time, _) when time <= deadline -> ignore (step t)
      | _ -> continue := false
    done;
    if t.clock < deadline then t.clock <- deadline

let pending t = Nk_util.Heap.size t.queue

let executed t = t.executed
