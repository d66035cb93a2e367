module Plan = Nk_faults.Plan
module Prng = Nk_util.Prng
module Cluster = Nk_node.Cluster

let epoch = Nk_sim.Sim.epoch

let proxy_names =
  [ "nk-a.nakika.net"; "nk-b.nakika.net"; "nk-c.nakika.net"; "nk-d.nakika.net" ]

let seed_base () =
  match int_of_string_opt (try Sys.getenv "NAKIKA_CHAOS_SEED" with Not_found -> "0") with
  | Some n -> n * 1_000_003
  | None -> 0

let random_plan seed =
  let rng = Prng.create seed in
  let plan = Plan.create ~seed () in
  Plan.drop_link plan ~probability:(Prng.float rng 0.30) ();
  if Prng.bool rng then
    Plan.spike_link plan ~probability:(Prng.float rng 0.2) ~extra:(Prng.float rng 2.0) ();
  let n_partitions = Prng.int rng 3 in
  for _ = 1 to n_partitions do
    let split = 1 + Prng.int rng 3 in
    let a = List.filteri (fun i _ -> i < split) proxy_names in
    let b = List.filteri (fun i _ -> i >= split) proxy_names in
    let at = epoch +. 5.0 +. Prng.float rng 25.0 in
    Plan.partition plan ~a ~b ~at ~heal:(at +. 2.0 +. Prng.float rng 8.0)
  done;
  List.iter
    (fun name ->
      if Prng.bool rng then begin
        let at = epoch +. 5.0 +. Prng.float rng 35.0 in
        Plan.crash plan ~host:name ~at ~restart:(at +. 1.0 +. Prng.float rng 9.0) ()
      end)
    proxy_names;
  plan

let acceptance_plan ~degraded =
  let plan = Plan.create ~seed:3 () in
  if degraded then begin
    Plan.drop_link plan ~probability:0.10 ();
    Plan.partition plan
      ~a:[ "nk-a.nakika.net"; "nk-b.nakika.net" ]
      ~b:[ "nk-c.nakika.net"; "nk-d.nakika.net" ]
      ~at:(epoch +. 10.0) ~heal:(epoch +. 25.0)
  end;
  plan

type outcome = {
  issued : int;
  answered : int;
  ok : int;
  statuses : string;
  cluster : Cluster.t;
}

let run plan =
  let cluster = Cluster.create ~seed:(Plan.seed plan) ~faults:plan () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Nk_node.Origin.set_static origin ~path:"/index.html" ~max_age:60 "<html>chaos</html>";
  Nk_node.Origin.set_static origin ~path:"/other.html" ~max_age:60 "<html>other</html>";
  let proxies =
    Array.of_list (List.map (fun name -> Cluster.add_proxy cluster ~name ()) proxy_names)
  in
  let clients =
    Array.of_list [ Cluster.add_client cluster ~name:"c1"; Cluster.add_client cluster ~name:"c2" ]
  in
  let issued = ref 0 and answered = ref 0 and ok = ref 0 in
  let statuses = Buffer.create 256 in
  let sim = Cluster.sim cluster in
  for i = 0 to 29 do
    Nk_sim.Sim.schedule_at sim
      (epoch +. 1.0 +. (2.0 *. float_of_int i))
      (fun () ->
        incr issued;
        let path = if i mod 3 = 0 then "/other.html" else "/index.html" in
        Cluster.fetch cluster
          ~client:clients.(i mod Array.length clients)
          ~proxy:proxies.(i mod Array.length proxies)
          ~timeout:15.0
          (Nk_http.Message.request ("http://www.example.edu" ^ path))
          (fun resp ->
            incr answered;
            if Nk_http.Status.is_success resp.Nk_http.Message.status then incr ok;
            Buffer.add_string statuses (string_of_int resp.Nk_http.Message.status);
            Buffer.add_char statuses ' '))
  done;
  Nk_sim.Sim.run ~until:(epoch +. 120.0) sim;
  { issued = !issued; answered = !answered; ok = !ok; statuses = Buffer.contents statuses; cluster }

let merge_metrics ~into cluster =
  Nk_telemetry.Metrics.merge ~into (Nk_sim.Net.metrics (Cluster.net cluster));
  Nk_telemetry.Metrics.merge ~into (Nk_replication.Message_bus.metrics (Cluster.bus cluster));
  Nk_telemetry.Metrics.merge ~into (Nk_overlay.Dht.metrics (Cluster.dht cluster))
