(* Fault tolerance: the chaos acceptance scenario as an experiment.
   The same 4-node topology and 30-request workload run twice — once
   fault-free and once under 10% uniform message drops plus a 15 s
   partition that heals — and the report checks that no request hangs
   (every fetch resolves, possibly with a synthesized 504) and that the
   degraded run keeps at least 80% of the baseline's successes.
   BENCH_faults.json records both success rates next to the degraded
   run's fault-layer counters (net.dropped, bus.retries,
   bus.dead_letters, node.crashes, dht.fallbacks, cache.stale_served). *)

module Chaos = Core.Workload.Chaos
module Metrics = Core.Telemetry.Metrics

let rate ok issued = 100.0 *. float_of_int ok /. float_of_int (max 1 issued)

let faults () =
  Harness.header "Fault tolerance (chaos acceptance scenario)";
  let b = Chaos.run (Chaos.acceptance_plan ~degraded:false) in
  let d = Chaos.run (Chaos.acceptance_plan ~degraded:true) in
  (* Only the degraded run's registries land in the dump, so baseline
     and degraded counters do not mix. *)
  List.iter Harness.attach_node (Core.Node.Cluster.proxies d.cluster);
  Option.iter (fun into -> Chaos.merge_metrics ~into d.cluster) (Harness.registry ());
  let hung = b.issued - b.answered + (d.issued - d.answered) in
  let ratio = float_of_int d.ok /. float_of_int (max 1 b.ok) in
  let report label (o : Chaos.outcome) =
    Printf.printf "  %-34s %3d issued  %3d answered  %3d ok  (%.0f%% success)\n" label o.issued
      o.answered o.ok (rate o.ok o.issued)
  in
  report "fault-free baseline:" b;
  report "10% drops + healed partition:" d;
  Printf.printf "  hung requests: %d   degraded/baseline success ratio: %.2f %s\n" hung
    ratio
    (if hung = 0 && ratio >= 0.8 then "(>= 0.80: pass)" else "(BELOW TARGET)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "faults.baseline-success-rate" (rate b.ok b.issued);
    Metrics.set_gauge m "faults.degraded-success-rate" (rate d.ok d.issued);
    Metrics.set_gauge m "faults.success-ratio" ratio;
    Metrics.set_gauge m "faults.hung-requests" (float_of_int hung)
