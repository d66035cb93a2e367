(* Shared experiment plumbing: synchronous fetches over the simulator,
   table printing, and the paper-vs-measured report format. *)

(* Per-experiment telemetry: [begin_experiment] opens a fresh registry,
   load phases attach the proxies they drive, and [finish_experiment]
   merges every attached node's registry (plus the client-side counters
   recorded during the runs) and dumps it as BENCH_<id>.json — one JSON
   object per line — so future PRs get a perf trajectory. *)
type experiment = {
  id : string;
  registry : Core.Telemetry.Metrics.t;
  mutable nodes : Core.Node.Node.t list;
}

let current_experiment : experiment option ref = ref None

let registry () = Option.map (fun e -> e.registry) !current_experiment

let attach_node node =
  match !current_experiment with
  | Some e when not (List.memq node e.nodes) -> e.nodes <- node :: e.nodes
  | _ -> ()

(* A finished load run joins the dump: its [nodes]' registries at
   [finish_experiment], the network counters of its [cluster] now. *)
let attach_run cluster nodes =
  List.iter attach_node nodes;
  let net = Core.Sim.Net.metrics (Core.Node.Cluster.net cluster) in
  Option.iter (fun into -> Core.Telemetry.Metrics.merge ~into net) (registry ())

(* Experiments in one process must not see each other's compiled
   programs: the process-wide compile cache and program-registry
   counters start empty, so every BENCH file is the same whether its
   experiment ran alone or after others. *)
let begin_experiment id =
  Core.Script.Compile.cache_clear ();
  Core.Script.Registry.reset_stats ();
  current_experiment :=
    Some { id; registry = Core.Telemetry.Metrics.create (); nodes = [] }

let finish_experiment () =
  match !current_experiment with
  | None -> ()
  | Some e ->
    List.iter
      (fun node ->
        Core.Telemetry.Metrics.merge ~into:e.registry (Core.Node.Node.metrics node))
      e.nodes;
    let path = Printf.sprintf "BENCH_%s.json" e.id in
    let oc = open_out path in
    output_string oc (Core.Telemetry.Metrics.to_json_lines e.registry);
    close_out oc;
    current_experiment := None

let fetch_sync cluster ~client ?proxy req =
  Option.iter attach_node proxy;
  let result = ref None in
  Core.Node.Cluster.fetch cluster ~client ?proxy req (fun resp -> result := Some resp);
  Core.Node.Cluster.run cluster;
  match !result with
  | Some r -> r
  | None -> failwith "harness: request never completed"

(* Allocation accounting: minor-heap words allocated per operation.
   [Gc.minor_words] counts every minor allocation (including values
   later promoted), so this is the allocation *rate* the op puts on the
   GC — the number the arena/zero-copy work drives down — not live
   memory. *)
let words_per_op ?(runs = 100) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int runs

let ms x = x *. 1000.0

let header title =
  Printf.printf "\n=== %s ===\n" title

let row fmt = Printf.printf fmt

let section title = Printf.printf "\n--- %s ---\n" title

(* Run a closed-loop load phase and report achieved throughput over the
   measurement window. *)
type load_result = {
  responses : int; (* 200s inside the window *)
  rejected : int; (* 503s inside the window *)
  errors : int; (* other non-200s *)
  duration : float;
  latency : Core.Util.Stats.t;
}

let throughput r = float_of_int r.responses /. r.duration

let run_load cluster ~clients ~proxy ~duration ~warmup ~make_request () =
  attach_node proxy;
  let sim = Core.Node.Cluster.sim cluster in
  let t0 = Core.Sim.Sim.now sim in
  let measure_start = t0 +. warmup in
  let until = measure_start +. duration in
  let responses = ref 0 and rejected = ref 0 and errors = ref 0 in
  let latency = Core.Util.Stats.create () in
  List.iteri
    (fun idx client ->
      Core.Workload.Driver.closed_loop cluster ~client ~proxy ~until
        ~make_request:(fun i -> make_request idx i)
        ~on_response:(fun _ _ resp elapsed ->
          if Core.Sim.Sim.now sim >= measure_start then begin
            (* Client-perceived view, recorded alongside the nodes' own
               registries in the experiment dump. *)
            (match registry () with
             | Some m ->
               Core.Telemetry.Metrics.incr m "client.responses";
               Core.Telemetry.Metrics.observe m "client.latency" elapsed
             | None -> ());
            match resp.Core.Http.Message.status with
            | 200 ->
              incr responses;
              Core.Util.Stats.add latency elapsed
            | 503 -> incr rejected
            | _ -> incr errors
          end)
        ())
    clients;
  Core.Node.Cluster.run cluster;
  { responses = !responses; rejected = !rejected; errors = !errors; duration; latency }

let paper_vs_measured ~label ~paper ~measured ~unit_ =
  Printf.printf "  %-42s paper %10s   measured %10s %s\n" label paper measured unit_
