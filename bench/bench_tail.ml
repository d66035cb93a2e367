(* Tail tolerance: the deadline/hedging acceptance scenario. A Zipf
   crowd is served through one edge proxy whose cache is too small to
   hold anything, so every request is a cooperative-cache fetch from
   the replica set (nk-b holds the newest announcement and is always
   the primary). The link to that primary suffers injected latency
   spikes — a few percent of messages pay +1.5 s one way — which is
   pure p99 poison: goodput is unaffected, only the tail stretches.

   The same topology, workload, and fault schedule run twice: once
   with the tail machinery off (the seed baseline) and once with
   deadlines, hedged replica fetches, and retry budgets on. The report
   checks that hedging collapses p99 (the hedge fires after the
   upstream's observed p95 and the backup replica answers in
   milliseconds), that goodput is unchanged, and that the hedge
   governor kept the extra load within its token-bucket bound.
   BENCH_tail.json records both runs plus the hedge/deadline counters.

   CI reruns this under NAKIKA_CHAOS_SEED 1-3; the seed perturbs the
   cluster PRNG and the fault plan's draw stream, not the workload
   shape, which stays fixed so the two runs are comparable. *)

module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim
module Plan = Core.Faults.Plan
module Open_loop = Core.Workload.Open_loop

let holder_a = "nk-a.nakika.net"
let holder_b = "nk-b.nakika.net" (* warmed last -> newest announcement -> primary *)
let edge = "nk-c.nakika.net"
let universe = 8
let total_requests = 600
let spike_extra = 1.5
let spike_probability = 0.02

type outcome = {
  tally : Open_loop.t;
  goodput : float;
  p50 : float;
  p99 : float;
  hedges : int;
  wins : int;
  cancelled : int;
  expired : int;
}

let run_scenario ~attach ~tail () =
  let chaos_seed = Core.Workload.Chaos.seed_base () in
  let plan = Plan.create ~seed:(11 + chaos_seed) () in
  Plan.spike_link plan ~src:edge ~dst:holder_b ~probability:spike_probability
    ~extra:spike_extra ();
  let cluster = Core.Node.Cluster.create ~seed:(chaos_seed + 7) ~faults:plan () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"www.crowd.example" () in
  for r = 0 to universe - 1 do
    Core.Node.Origin.set_static origin
      ~path:(Printf.sprintf "/zipf/%d.html" r)
      ~max_age:600
      (Printf.sprintf "<html>zipf rank %d</html>" r)
  done;
  let base =
    {
      Core.Node.Config.default with
      Core.Node.Config.enable_pipeline = false;
      enable_tracing = false;
      enable_resource_controls = false;
      lint_mode = `Off;
    }
  in
  (* The edge proxy cannot keep anything (one-byte cache), so the crowd
     exercises the peer-fetch path on every request; the tail knobs go
     on only in the enabled arm. *)
  let edge_config =
    let c = { base with Core.Node.Config.cache_bytes = 1 } in
    if tail then
      {
        c with
        Core.Node.Config.request_deadline = 2.5;
        enable_hedging = true;
        hedge_rate = 0.05;
        retry_budget_ratio = 0.1;
      }
    else c
  in
  let pa = Core.Node.Cluster.add_proxy cluster ~name:holder_a ~config:base () in
  let pb = Core.Node.Cluster.add_proxy cluster ~name:holder_b ~config:base () in
  let pc = Core.Node.Cluster.add_proxy cluster ~name:edge ~config:edge_config () in
  ignore pa;
  ignore pb;
  let client = Core.Node.Cluster.add_client cluster ~name:"c1" in
  let sim = Core.Node.Cluster.sim cluster in
  (* Warm every rank at both holders: nk-a first, then nk-b, so nk-b's
     DHT announcement is the newer one and every edge lookup fetches
     from nk-b — the link under fault injection. *)
  List.iter
    (fun proxy ->
      for r = 0 to universe - 1 do
        Core.Node.Cluster.fetch cluster ~client ~proxy
          (Core.Http.Message.request
             (Printf.sprintf "http://www.crowd.example/zipf/%d.html" r))
          (fun _ -> ())
      done;
      Core.Node.Cluster.run cluster)
    [ pa; pb ];
  (* The crowd: Zipf(s = 0.9) over the warmed universe, drawn from its
     own PRNG so both arms see the identical request stream. *)
  let zipf = Core.Workload.Zipf.create ~s:0.9 ~universe in
  let wl = Core.Util.Prng.create 9001 in
  let clients = [| client |] and tally = Open_loop.create () in
  for i = 0 to total_requests - 1 do
    let rank = Core.Workload.Zipf.sample zipf wl in
    Open_loop.fetch_at tally cluster ~clients ~proxy:pc
      ~at:(Sim.epoch +. 5.0 +. (0.01 *. float_of_int i))
      (Printf.sprintf "http://www.crowd.example/zipf/%d.html" rank)
  done;
  Sim.run ~until:(Sim.epoch +. 5.0 +. (0.01 *. float_of_int total_requests) +. 20.0) sim;
  if attach then Harness.attach_run cluster [ pc ];
  let mc = Core.Node.Node.metrics pc in
  {
    tally;
    goodput = Open_loop.goodput tally;
    p50 = Open_loop.percentile tally.latencies 0.50;
    p99 = Open_loop.percentile tally.latencies 0.99;
    hedges = Metrics.counter_total mc "hedge.issued";
    wins = Metrics.counter_total mc "hedge.wins";
    cancelled = Metrics.counter_total mc "hedge.cancelled";
    expired = Metrics.counter_total mc "deadline.expired";
  }

let tail () =
  Harness.header "Tail tolerance (Zipf crowd through one edge, latency-spiked primary)";
  let baseline = run_scenario ~attach:false ~tail:false () in
  let hedged = run_scenario ~attach:true ~tail:true () in
  let report label o =
    Printf.printf
      "  %-22s %3d issued  %3d ok  %2d shed  %2d errors  p50 %6.3fs  p99 %6.3fs  (%.0f%% \
       goodput)\n"
      label o.tally.issued o.tally.ok o.tally.rejected o.tally.errors o.p50 o.p99
      (100.0 *. o.goodput)
  in
  report "tail machinery off:" baseline;
  report "deadlines + hedging:" hedged;
  let overhead = float_of_int hedged.hedges /. float_of_int (max 1 hedged.tally.issued) in
  Printf.printf "  hedges %d (%.1f%% of load)  wins %d  cancelled %d  deadline-expired %d\n"
    hedged.hedges (100.0 *. overhead) hedged.wins hedged.cancelled hedged.expired;
  let p99_ratio = hedged.p99 /. Float.max 1e-9 baseline.p99 in
  Printf.printf "  p99 %.3fs -> %.3fs (%.0f%% %s)   goodput %.2f vs %.2f %s   overhead %s\n"
    baseline.p99 hedged.p99 (100.0 *. p99_ratio)
    (if p99_ratio <= 0.6 then "of baseline: pass" else "NOT <= 60%")
    baseline.goodput hedged.goodput
    (if Float.abs (hedged.goodput -. baseline.goodput) <= 0.02 then "(within 2%: pass)"
     else "(DIVERGED)")
    (* The governor's bound is rate * primaries plus the initial burst
       (100 * rate tokens); anything above that means the bucket leaked. *)
    (if
       float_of_int hedged.hedges
       <= (0.05 *. float_of_int hedged.tally.issued) +. (100.0 *. 0.05) +. 1.0
     then "(<= 5% + burst: pass)"
     else "(OVER BUDGET)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "tail.baseline-p99" baseline.p99;
    Metrics.set_gauge m "tail.enabled-p99" hedged.p99;
    Metrics.set_gauge m "tail.p99-ratio" p99_ratio;
    Metrics.set_gauge m "tail.baseline-goodput" baseline.goodput;
    Metrics.set_gauge m "tail.enabled-goodput" hedged.goodput;
    Metrics.set_gauge m "tail.hedge-overhead" overhead;
    Metrics.set_gauge m "tail.hedge-wins" (float_of_int hedged.wins);
    Metrics.set_gauge m "tail.deadline-expired" (float_of_int hedged.expired)
