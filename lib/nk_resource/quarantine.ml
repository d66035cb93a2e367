type entry = {
  mutable strikes : int;
  mutable expiry : float;
  mutable anchor : float; (* decay bookkeeping: strikes shrink per full
                             [decay] period elapsed after [anchor] *)
}

type t = {
  base : float;
  max_window : float;
  decay : float;
  site_params : (string * (float * float)) list;
  (* ordered (pattern, (base, max)) overrides from a provisioning plan;
     first match wins, like the admission share table *)
  clock : unit -> float;
  metrics : Nk_telemetry.Metrics.t option;
  sites : (string, entry) Hashtbl.t;
  mutable bans : int;
}

let create ?(base = 30.0) ?(max_window = 240.0) ?(decay = 60.0) ?(site_params = []) ~clock
    ?metrics () =
  {
    base;
    max_window;
    decay;
    site_params =
      List.map (fun (pattern, base, max_window) -> (pattern, (base, max_window))) site_params;
    clock;
    metrics;
    sites = Hashtbl.create 8;
    bans = 0;
  }

let params t ~site =
  match Shares.first_match t.site_params ~site with
  | Some p -> p
  | None -> (t.base, t.max_window)

let decay_strikes t e now =
  if t.decay > 0.0 && e.strikes > 0 && now > e.anchor then begin
    let periods = int_of_float ((now -. e.anchor) /. t.decay) in
    if periods > 0 then begin
      e.strikes <- max 0 (e.strikes - periods);
      e.anchor <- e.anchor +. (float_of_int periods *. t.decay)
    end
  end

let punish t ~site =
  let now = t.clock () in
  let e =
    match Hashtbl.find_opt t.sites site with
    | Some e -> e
    | None ->
      let e = { strikes = 0; expiry = 0.0; anchor = now } in
      Hashtbl.add t.sites site e;
      e
  in
  decay_strikes t e now;
  let base, max_window = params t ~site in
  let window = Float.min max_window (base *. (2.0 ** float_of_int e.strikes)) in
  e.strikes <- e.strikes + 1;
  e.expiry <- now +. window;
  (* Good behaviour only starts counting once the ban has expired. *)
  e.anchor <- e.expiry;
  t.bans <- t.bans + 1;
  (match t.metrics with
   | Some m ->
     Nk_telemetry.Metrics.incr m ~labels:[ ("site", site) ] "quarantine.bans";
     Nk_telemetry.Metrics.observe m "quarantine.window" window
   | None -> ());
  window

let is_banned t ~site =
  match Hashtbl.find_opt t.sites site with
  | None -> false
  | Some e -> t.clock () < e.expiry

let remaining t ~site =
  match Hashtbl.find_opt t.sites site with
  | None -> 0.0
  | Some e -> Float.max 0.0 (e.expiry -. t.clock ())

let strikes t ~site =
  match Hashtbl.find_opt t.sites site with
  | None -> 0
  | Some e ->
    decay_strikes t e (t.clock ());
    e.strikes

let active t =
  let now = t.clock () in
  Hashtbl.fold
    (fun site e acc -> if now < e.expiry then (site, e.expiry) :: acc else acc)
    t.sites []
  |> List.sort compare

let bans t = t.bans

let forgive t ~site = Hashtbl.remove t.sites site
