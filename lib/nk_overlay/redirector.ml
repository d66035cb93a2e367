type health = {
  queue_delay : float;
  shed_rate : float;
  incarnation : int;
  reported_at : float;
}

type t = {
  net : Nk_sim.Net.t;
  mutable proxies : Nk_sim.Net.host list;
  reports : (string, health) Hashtbl.t;
  mutable staleness : float;
  (* Per-client proximity cache: proxies sorted by estimated transfer
     time. Transfer estimates depend only on the static topology, so
     the expensive estimate-and-sort is done once per client instead
     of once per pick — at 1000 proxies the per-request linear scan
     plus sort dominated everything else. Invalidated whenever the
     proxy set changes; liveness and health stay dynamic and are
     applied at pick time. *)
  by_client : (string, (float * Nk_sim.Net.host) list) Hashtbl.t;
}

let create net =
  { net; proxies = []; reports = Hashtbl.create 8; staleness = infinity;
    by_client = Hashtbl.create 64 }

let set_staleness t bound = t.staleness <- bound

let add_proxy t host =
  if not (List.exists (fun h -> Nk_sim.Net.host_name h = Nk_sim.Net.host_name host) t.proxies)
  then begin
    t.proxies <- host :: t.proxies;
    Hashtbl.reset t.by_client
  end

let remove_proxy t host =
  t.proxies <-
    List.filter (fun h -> Nk_sim.Net.host_name h <> Nk_sim.Net.host_name host) t.proxies;
  Hashtbl.remove t.reports (Nk_sim.Net.host_name host);
  Hashtbl.reset t.by_client

let proxies t = t.proxies

let report t ~host ?(incarnation = 0) ~queue_delay ~shed_rate () =
  let fresh =
    match Hashtbl.find_opt t.reports host with
    | Some prev -> incarnation >= prev.incarnation
    | None -> true
  in
  (* A report from a pre-crash incarnation may arrive after the node
     restarted and re-announced; never let it shadow the newer view. *)
  if fresh then
    Hashtbl.replace t.reports host
      {
        queue_delay;
        shed_rate;
        incarnation;
        reported_at = Nk_sim.Sim.now (Nk_sim.Net.sim t.net);
      }

let health t ~host = Hashtbl.find_opt t.reports host

(* An unloaded node has headroom 1.0; queueing delay and shed rate each
   scale it down, floored so a struggling node still gets a trickle of
   probes (otherwise it could never demonstrate recovery). *)
let headroom t host =
  match Hashtbl.find_opt t.reports (Nk_sim.Net.host_name host) with
  | None -> 1.0
  | Some h ->
    let age = Nk_sim.Sim.now (Nk_sim.Net.sim t.net) -. h.reported_at in
    if age > t.staleness then
      (* A node that stopped reporting is suspect, not idle: its last
         report says nothing about its load now. Dropping the report
         entirely would hand it the unknown-node headroom of 1.0 —
         attracting MORE traffic to a silent node — so instead it gets
         the recovery-probe floor until it speaks again. *)
      0.02
    else
      let delay_factor = 1.0 /. (1.0 +. (h.queue_delay /. 0.1)) in
      let shed_factor = 1.0 -. Float.min 0.95 h.shed_rate in
      Float.max 0.02 (delay_factor *. shed_factor)

let scored_for_client t client =
  let key = Nk_sim.Net.host_name client in
  match Hashtbl.find_opt t.by_client key with
  | Some scored -> scored
  | None ->
    let probe_size = 1024 in
    let scored =
      List.map
        (fun p ->
          (Nk_sim.Net.transfer_time_estimate t.net ~src:client ~dst:p ~size:probe_size, p))
        t.proxies
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Hashtbl.replace t.by_client key scored;
    scored

let pick t ?(spread = 1) ~rng ~client () =
  (* A crashed proxy must not receive redirections, whatever its last
     load report said. *)
  let down (_, p) = Nk_sim.Net.host_down t.net p in
  let rec live = function c :: rest when down c -> live rest | l -> l in
  match live (scored_for_client t client) with
  | [] -> None
  | (best, _) :: _ as scored ->
    (* "Close-by": only proxies comparable to the nearest count as
       spread candidates, so load balancing never sends a client across
       the world. [scored] is sorted by estimate, so the close live
       proxies are a prefix of the live ones: the walk stops at the
       first live proxy past the bound, or once it holds [spread]
       candidates (a spread of 4 over 2 close proxies is a spread of
       2). *)
    let bound = (best *. 2.0) +. 1e-4 in
    let rec nearest k = function
      | [] -> []
      | c :: rest when down c -> nearest k rest
      | (s, p) :: rest ->
        if k = 0 || not (s <= bound) then [] else p :: nearest (k - 1) rest
    in
    (* Weighted choice by reported headroom: among equally close nodes,
       an idle one draws proportionally more clients than one shedding
       half its arrivals. *)
    let weighted = List.map (fun p -> (headroom t p, p)) (nearest (max 1 spread) scored) in
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    let roll = Nk_util.Prng.float rng total in
    let rec choose acc = function
      | [] -> None
      | [ (_, p) ] -> Some p
      | (w, p) :: rest -> if roll < acc +. w then Some p else choose (acc +. w) rest
    in
    choose 0.0 weighted
