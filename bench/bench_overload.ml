(* Overload resilience: the flash-crowd acceptance scenario as an
   experiment. The same 3-node topology and workload run twice — once
   fault-free and once with one proxy crashing mid-crowd (it restarts)
   and one origin dead for the rest of the run — and the report checks
   that goodput stays at >= 70% of the baseline with a bounded p99.
   The degraded run composes every overload defense: admission control
   sheds the spike's excess, the redirector routes around the crashed
   node, the dead origin's circuit breaker fails fast (bounding how
   many requests ever reach it), and stale-if-error keeps serving its
   content. BENCH_overload.json records both runs' goodput, the p99s,
   and the defense counters (admission.sheds, breaker.opens,
   cache.stale_served, quarantine.bans).

   CI reruns this under NAKIKA_CHAOS_SEED 1-3; the seed perturbs the
   cluster PRNG (redirection spread, workload jitter), not the fault
   schedule, which stays fixed so the two runs are comparable. *)

module Metrics = Core.Telemetry.Metrics
module Open_loop = Core.Workload.Open_loop
module Overload = Core.Workload.Overload

let overload () =
  Harness.header "Overload resilience (flash crowd + crash + dead origin)";
  let baseline = Overload.run (Overload.plan ~degraded:false) in
  let degraded = Overload.run (Overload.plan ~degraded:true) in
  Harness.attach_run degraded.cluster (Core.Node.Cluster.proxies degraded.cluster);
  let b = baseline.tally and d = degraded.tally in
  let b_p99 = Open_loop.percentile b.latencies 0.99 in
  let d_p99 = Open_loop.percentile d.latencies 0.99 in
  let ratio = Open_loop.goodput d /. Float.max 1e-9 (Open_loop.goodput b) in
  let report label (t : Open_loop.t) p99 =
    Printf.printf "  %-28s %3d issued  %3d ok  %3d shed  %3d errors  p99 %6.3fs  (%.0f%% goodput)\n"
      label t.issued t.ok t.rejected t.errors p99 (100.0 *. Open_loop.goodput t)
  in
  report "fault-free baseline:" b b_p99;
  report "crash + dead origin:" d d_p99;
  Printf.printf "  dead-origin fetches: baseline %d, degraded %d (breaker-bounded)\n"
    baseline.dead_origin_hits degraded.dead_origin_hits;
  Printf.printf "  goodput ratio: %.2f %s   degraded p99: %.3fs %s\n" ratio
    (if ratio >= 0.7 then "(>= 0.70: pass)" else "(BELOW TARGET)")
    d_p99
    (if d_p99 <= 8.0 then "(bounded: pass)" else "(UNBOUNDED)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "overload.baseline-goodput" (Open_loop.goodput b);
    Metrics.set_gauge m "overload.degraded-goodput" (Open_loop.goodput d);
    Metrics.set_gauge m "overload.goodput-ratio" ratio;
    Metrics.set_gauge m "overload.baseline-p99" b_p99;
    Metrics.set_gauge m "overload.degraded-p99" d_p99;
    Metrics.set_gauge m "overload.dead-origin-hits" (float_of_int degraded.dead_origin_hits)
