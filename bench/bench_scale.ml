(* Planet-scale capacity curve: goodput and p99 vs fleet size under a
   Zipf crowd, with hotspot replication off vs on (BENCH_scale.json).

   The topology models an open edge network: n proxies, one origin,
   and one client pinned near each proxy (cross-traffic latency is
   10x the local link, so the redirector's close-set keeps each
   client on its own edge node and the whole fleet absorbs the
   crowd). Demand is a fixed-rate open-loop stream whose URLs follow
   a Zipf(s = 0.9) popularity law over a 10k-URL universe — the same
   total demand at every fleet size, so the curve isolates how the
   overlay itself scales: at 1000 nodes almost every request is a
   first contact (perfect cache dilution) and the DHT's routing hops
   dominate, which is exactly the regime Coral-style sloppy
   replication of hot keys is supposed to rescue.

   Acceptance (checked in the printed report and exported as gauges):
   with replication on, 1000-node goodput stays within 90% of the
   100-node figure, and the p99 of hot-URL requests (the crowd's
   head, ranks 0-15) improves versus replication off.

   NAKIKA_SCALE_NODES (comma-separated fleet sizes) and
   NAKIKA_SCALE_REQUESTS override the defaults so CI can run a
   reduced curve. *)

module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim
module Open_loop = Core.Workload.Open_loop

let universe = 10_000
let skew = 0.9
let hot_ranks = 16 (* the crowd's head: URLs whose p99 the report tracks *)
let rate = 1200.0 (* requests/second, total, at every fleet size *)

let node_counts =
  match Sys.getenv_opt "NAKIKA_SCALE_NODES" with
  | None -> [ 10; 100; 1000 ]
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

let total_requests =
  match Option.bind (Sys.getenv_opt "NAKIKA_SCALE_REQUESTS") int_of_string_opt with
  | Some n -> n
  | None -> 36_000

type outcome = {
  nodes : int;
  replication : bool;
  tally : Open_loop.t;
  goodput : float;
  p99 : float;
  hot_p99 : float;
  mean_hops : float;
  sloppy_hits : int;
  replications : int;
  hotspots_live : int;
  events : int;
}

let run_arm ~nodes ~replication =
  let cluster =
    Core.Node.Cluster.create ~seed:4242 ~default_latency:0.005 ~default_bandwidth:12_500_000.0 ()
  in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"www.crowd.example" () in
  for r = 0 to universe - 1 do
    Core.Node.Origin.set_static origin
      ~path:(Printf.sprintf "/zipf/%d.html" r)
      ~max_age:600
      (Printf.sprintf "<html>zipf rank %d</html>" r)
  done;
  let config =
    {
      Core.Node.Config.default with
      Core.Node.Config.enable_pipeline = false;
      enable_tracing = false;
      enable_resource_controls = false;
      lint_mode = `Off;
      enable_hotspots = replication;
      hotspot_threshold = 5.0;
      hotspot_replicas = 4;
      hotspot_ttl = 60.0;
      hotspot_halflife = 5.0;
    }
  in
  let proxies =
    List.init nodes (fun i ->
        Core.Node.Cluster.add_proxy cluster ~name:(Printf.sprintf "edge-%04d.nakika.net" i)
          ~config ())
  in
  let clients =
    List.mapi
      (fun i proxy ->
        let c = Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "client-%04d" i) in
        (* A client lives next to its edge node: 0.5 ms vs the 5 ms
           cross-traffic default, so the close-set pins it there. *)
        Core.Node.Cluster.connect cluster c (Core.Node.Node.host proxy) ~latency:0.0005
          ~bandwidth:12_500_000.0;
        c)
      proxies
    |> Array.of_list
  in
  let sim = Core.Node.Cluster.sim cluster in
  let zipf = Core.Workload.Zipf.create ~s:skew ~universe in
  (* The workload stream is drawn from its own PRNG, independent of
     the cluster's, so the off and on arms see the identical crowd. *)
  let wl = Core.Util.Prng.create 9001 in
  let tally = Open_loop.create () and hot_latencies = ref [] in
  for i = 0 to total_requests - 1 do
    let at = Sim.epoch +. 5.0 +. (float_of_int i /. rate) in
    let rank = Core.Workload.Zipf.sample zipf wl in
    let client = clients.(Core.Util.Prng.int wl (Array.length clients)) in
    Open_loop.fetch_at tally cluster ~at ~clients:[| client |]
      ~on_response:(fun resp elapsed ->
        if resp.Core.Http.Message.status = 200 && rank < hot_ranks then
          hot_latencies := elapsed :: !hot_latencies)
      (Printf.sprintf "http://www.crowd.example/zipf/%d.html" rank)
  done;
  let horizon = Sim.epoch +. 5.0 +. (float_of_int total_requests /. rate) +. 15.0 in
  Sim.run ~until:horizon sim;
  let dht = Core.Node.Cluster.dht cluster in
  let dm = Core.Overlay.Dht.metrics dht in
  let mean_hops =
    match Metrics.histogram dm "dht.hops" with
    | Some h when Metrics.Histogram.count h > 0 ->
      Metrics.Histogram.sum h /. float_of_int (Metrics.Histogram.count h)
    | _ -> 0.0
  in
  {
    nodes;
    replication;
    tally;
    goodput = Open_loop.goodput tally;
    p99 = Open_loop.percentile tally.latencies 0.99;
    hot_p99 = Open_loop.percentile !hot_latencies 0.99;
    mean_hops;
    sloppy_hits = Metrics.counter dm "dht.sloppy_hits";
    replications = Metrics.counter dm "dht.hotspot_replications";
    hotspots_live = List.length (Core.Overlay.Dht.hotspots dht ~now:(Sim.now sim));
    events = Sim.executed sim;
  }

let gauge_prefix o =
  Printf.sprintf "scale.n%d.%s" o.nodes (if o.replication then "on" else "off")

let export o =
  match Harness.registry () with
  | None -> ()
  | Some m ->
    let p = gauge_prefix o in
    Metrics.set_gauge m (p ^ ".goodput") o.goodput;
    Metrics.set_gauge m (p ^ ".p99") o.p99;
    Metrics.set_gauge m (p ^ ".hot-p99") o.hot_p99;
    Metrics.set_gauge m (p ^ ".mean-hops") o.mean_hops;
    Metrics.set_gauge m (p ^ ".issued") (float_of_int o.tally.issued);
    Metrics.set_gauge m (p ^ ".ok") (float_of_int o.tally.ok);
    Metrics.set_gauge m (p ^ ".sloppy-hits") (float_of_int o.sloppy_hits);
    Metrics.set_gauge m (p ^ ".hotspot-replications") (float_of_int o.replications);
    Metrics.set_gauge m (p ^ ".hotspots") (float_of_int o.hotspots_live);
    Metrics.set_gauge m (p ^ ".sim-events") (float_of_int o.events)

let scale () =
  Harness.header "Planet-scale capacity curve (Zipf crowd, hotspot replication off vs on)";
  Printf.printf "  universe %d URLs, skew %.1f, %d requests at %.0f req/s\n" universe skew
    total_requests rate;
  let outcomes =
    List.concat_map
      (fun nodes ->
        List.map
          (fun replication ->
            let o = run_arm ~nodes ~replication in
            Printf.printf
              "  %4d nodes %s: %5d ok/%5d  %4d shed  %3d err  p99 %6.1fms  hot-p99 %6.1fms  \
               hops %4.1f  sloppy %5d  repl %3d  (%d sim events)\n%!"
              nodes
              (if replication then "repl-on " else "repl-off")
              o.tally.ok o.tally.issued o.tally.rejected o.tally.errors (1000.0 *. o.p99)
              (1000.0 *. o.hot_p99) o.mean_hops o.sloppy_hits o.replications o.events;
            export o;
            o)
          [ false; true ])
      node_counts
  in
  let find nodes replication =
    List.find_opt (fun o -> o.nodes = nodes && o.replication = replication) outcomes
  in
  let biggest = List.fold_left max 0 node_counts in
  let mid = List.fold_left (fun acc n -> if n < biggest then max acc n else acc) 0 node_counts in
  (match (find biggest true, find mid true, find biggest false) with
   | Some big_on, Some mid_on, Some big_off when mid > 0 ->
     let ratio = big_on.goodput /. Float.max 1e-9 mid_on.goodput in
     let hot_gain = big_off.hot_p99 -. big_on.hot_p99 in
     Printf.printf
       "  goodput %d vs %d nodes (repl on): %.3f %s   hot-p99 %d nodes: off %.1fms on %.1fms %s\n"
       biggest mid ratio
       (if ratio >= 0.9 then "(>= 0.90: pass)" else "(BELOW TARGET)")
       biggest (1000.0 *. big_off.hot_p99) (1000.0 *. big_on.hot_p99)
       (if hot_gain > 0.0 then "(improved: pass)" else "(NOT IMPROVED)");
     (match Harness.registry () with
      | None -> ()
      | Some m ->
        Metrics.set_gauge m "scale.goodput-ratio-big-vs-mid" ratio;
        Metrics.set_gauge m "scale.hot-p99-off" big_off.hot_p99;
        Metrics.set_gauge m "scale.hot-p99-on" big_on.hot_p99;
        Metrics.set_gauge m "scale.hot-p99-gain" hot_gain)
   | _ -> ())
