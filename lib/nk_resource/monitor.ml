type t = {
  accounting : Accounting.t;
  cpu_congestion_backlog : float;
  memory_congestion_bytes : float;
  bandwidth_congestion_bytes : float;
  control_interval : float;
  control_timeout : float;
  cpu_backlog : unit -> float;
  clock : unit -> float;
  schedule : float -> (unit -> unit) -> unit;
  terminate : site:string -> unit;
  throttles : (Resource.t, (string, float) Hashtbl.t) Hashtbl.t;
  (* per resource: site -> reject probability *)
  pending : (Resource.t, (string * float) list) Hashtbl.t;
  (* usage-ranked sites from the begin phase, largest first *)
  mutable mem_window : float;
  mutable bw_window : float;
  mutable window_start : float;
  (* memory and bandwidth consumed since [window_start]: the node-wide
     rates congestion detection compares against the thresholds *)
  mutable terminated : string list;
  events : Nk_telemetry.Events.t option;
  metrics : Nk_telemetry.Metrics.t option;
}

let create ~accounting ~cpu_congestion_backlog ~memory_congestion_bytes
    ~bandwidth_congestion_bytes ~control_interval ~control_timeout ~cpu_backlog ~clock
    ~schedule ~terminate ?events ?metrics () =
  {
    accounting;
    cpu_congestion_backlog;
    memory_congestion_bytes;
    bandwidth_congestion_bytes;
    control_interval;
    control_timeout;
    cpu_backlog;
    clock;
    schedule;
    terminate;
    throttles = Hashtbl.create 4;
    pending = Hashtbl.create 8;
    mem_window = 0.0;
    bw_window = 0.0;
    window_start = clock ();
    terminated = [];
    events;
    metrics;
  }

let observe t resource amount =
  match resource with
  | Resource.Memory -> t.mem_window <- t.mem_window +. amount
  | Resource.Bandwidth -> t.bw_window <- t.bw_window +. amount
  | Resource.Cpu | Resource.Running_time | Resource.Bytes_transferred -> ()

let resource_throttles t resource =
  match Hashtbl.find_opt t.throttles resource with
  | Some table -> table
  | None ->
    let table = Hashtbl.create 8 in
    Hashtbl.add t.throttles resource table;
    table

let throttle_fraction t ~site =
  Hashtbl.fold
    (fun _resource table acc ->
      match Hashtbl.find_opt table site with Some f -> Float.max acc f | None -> acc)
    t.throttles 0.0

(* --- congestion detection ------------------------------------------- *)

let window_rate t value =
  let dt = t.clock () -. t.window_start in
  if dt <= 0.0 then 0.0 else value /. dt

let reset_window t =
  t.mem_window <- 0.0;
  t.bw_window <- 0.0;
  t.window_start <- t.clock ()

(* The final (post-timeout) check uses a higher bar: termination is for
   congestion that throttling demonstrably cannot clear, not for a node
   hovering at its capacity. *)
let is_congested t ~final resource =
  let scale = if final then 3.0 else 1.0 in
  match resource with
  | Resource.Cpu -> t.cpu_backlog () > scale *. t.cpu_congestion_backlog
  | Resource.Memory ->
    window_rate t t.mem_window >= scale *. t.memory_congestion_bytes /. t.control_interval
  | Resource.Bandwidth ->
    window_rate t t.bw_window >= scale *. t.bandwidth_congestion_bytes /. t.control_interval
  | Resource.Running_time | Resource.Bytes_transferred -> false

(* How far the node is over its thresholds, in [0, 0.95]: a site's
   contribution is scaled by it, so a single active site is not blocked
   outright when the node is only slightly over. *)
let severity t =
  let overshoot ~rate ~limit = if rate <= limit then 0.0 else 1.0 -. (limit /. rate) in
  let cpu_sev = overshoot ~rate:(t.cpu_backlog ()) ~limit:t.cpu_congestion_backlog in
  let mem_sev =
    overshoot ~rate:(window_rate t t.mem_window)
      ~limit:(t.memory_congestion_bytes /. t.control_interval)
  in
  let bw_sev =
    overshoot ~rate:(window_rate t t.bw_window)
      ~limit:(t.bandwidth_congestion_bytes /. t.control_interval)
  in
  Float.min 0.95 (Float.max cpu_sev (Float.max mem_sev bw_sev))

let throttle t ~site ~fraction resource =
  let table = resource_throttles t resource in
  let existing = match Hashtbl.find_opt table site with Some f -> f | None -> 0.0 in
  Hashtbl.replace table site (Float.max existing (fraction *. severity t))

(* --- the CONTROL loop ------------------------------------------------ *)

(* Every enforcement decision leaves a structured event (and a labeled
   counter) naming the offending site, so a bench or operator can audit
   exactly why traffic was refused. *)
let emit t ~counter ~event ~site ~attrs =
  (match t.metrics with
   | Some m -> Nk_telemetry.Metrics.incr m ~labels:[ ("site", site) ] counter
   | None -> ());
  match t.events with
  | Some e -> Nk_telemetry.Events.record e ~attrs:(("site", site) :: attrs) event
  | None -> ()

let begin_control t resource =
  let congested = is_congested t ~final:false resource in
  if congested then begin
    Accounting.close_resource_interval t.accounting resource ~congested:true;
    let ranked =
      Accounting.active_sites t.accounting
      |> List.map (fun site -> (site, Accounting.usage t.accounting ~site resource))
      |> List.filter (fun (_, u) -> u > 0.0)
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    Hashtbl.replace t.pending resource ranked;
    let total = List.fold_left (fun acc (_, u) -> acc +. u) 0.0 ranked in
    let throttled =
      List.map
        (fun (site, u) ->
          let fraction = if total > 0.0 then u /. total else 0.0 in
          throttle t ~site ~fraction resource;
          emit t ~counter:"monitor.throttles" ~event:"throttle" ~site
            ~attrs:
              [
                ("resource", Resource.to_string resource);
                ("fraction", Printf.sprintf "%.3f" fraction);
              ];
          (site, fraction))
        ranked
    in
    `Congested throttled
  end
  else begin
    (* Close the interval regardless: for renewables this folds a zero
       (consumption under no congestion never counts, and the average
       decays so past penalization is forgotten); for nonrenewables the
       actual consumption folds in. *)
    Accounting.close_resource_interval t.accounting resource ~congested:false;
    `Clear
  end

let finish_control t resource =
  let ranked = match Hashtbl.find_opt t.pending resource with Some r -> r | None -> [] in
  Hashtbl.remove t.pending resource;
  (* Restoration is as auditable as enforcement: every site throttled in
     the begin phase gets a matching [unthrottle] event when the clamp
     is lifted. *)
  let unthrottled () =
    Hashtbl.reset (resource_throttles t resource);
    List.iter
      (fun (site, _) ->
        emit t ~counter:"monitor.unthrottles" ~event:"unthrottle" ~site
          ~attrs:[ ("resource", Resource.to_string resource) ])
      ranked;
    `Unthrottled
  in
  if is_congested t ~final:true resource then begin
    match ranked with
    | (site, _) :: _ ->
      t.terminate ~site;
      t.terminated <- site :: t.terminated;
      emit t ~counter:"monitor.terminations" ~event:"terminate" ~site
        ~attrs:[ ("resource", Resource.to_string resource) ];
      `Terminated site
    | [] -> unthrottled ()
  end
  else unthrottled ()

let start t =
  let rec cycle () =
    List.iter (fun r -> ignore (begin_control t r)) Resource.all;
    reset_window t;
    t.schedule t.control_timeout (fun () ->
        List.iter (fun r -> ignore (finish_control t r)) Resource.all;
        reset_window t;
        t.schedule (Float.max 0.05 (t.control_interval -. t.control_timeout)) cycle)
  in
  t.schedule t.control_interval cycle

let terminated t = t.terminated

let terminations t = List.length t.terminated
