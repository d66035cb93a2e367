(* One measured run of one benchmark workload, in a fresh process.

     nkbench.exe --workload zipf-1k --seed 1 [--trace]

   The run builds the workload's cluster, drives its open-loop streams
   through a simulated warm-up window and then a measured window, and
   checks every response against the workload's reference body. It
   prints one JSON object: the run's raw counts, host costs, simulated
   latencies and a digest over every measured response. With --trace
   the nodes record spans and the object also carries the per-layer
   figures (see Layers). run.py turns these objects into the metrics
   BENCHMARK.json names. *)

module Sim = Core.Sim.Sim
module Message = Core.Http.Message
module Prng = Core.Util.Prng
module W = Workloads

type outcome = {
  idx : int;
  due : float;
  r : W.request;
  mutable status : int; (* -1 while unanswered *)
  mutable latency : float;
  mutable body : string; (* the reference when correct, else what came back *)
  mutable correct : bool;
}

let check expect body =
  match expect with
  | W.Exact s -> String.equal s body
  | W.One_of l -> List.exists (String.equal body) l

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let words_to_mib w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

let run (spec : W.spec) ~seed ~tracing =
  let build = spec.W.prepare () in
  let cpu (t : Unix.process_times) = t.Unix.tms_utime +. t.Unix.tms_stime in
  let cpu_start = cpu (Unix.times ()) in
  let w = build ~seed ~tracing in
  let sim = Core.Node.Cluster.sim w.W.cluster in
  let warm_end = w.W.start +. w.W.warmup in
  let measure_end = warm_end +. w.W.measure in
  let horizon = measure_end +. w.W.timeout +. 2.0 in
  let layers = if tracing then Some (Layers.create w) else None in
  let outcomes = ref [||] and issued = ref 0 in
  let record o =
    if !issued >= Array.length !outcomes then begin
      let bigger = Array.make (max 1024 (2 * !issued)) o in
      Array.blit !outcomes 0 bigger 0 !issued;
      outcomes := bigger
    end;
    !outcomes.(!issued) <- o;
    incr issued
  in
  let first_measured = ref (-1) and gen_lag = ref 0.0 in
  (* Lazy open loop: each arrival issues its request and schedules the
     stream's next arrival, so the queue holds one pending arrival per
     stream instead of the whole run. *)
  let rec arrive (st : W.stream) rng due =
    Sim.schedule_at sim due (fun () ->
        gen_lag := Float.max !gen_lag (Sim.now sim -. due);
        let r = st.W.draw rng in
        Option.iter (fun l -> Layers.saw_request l r) layers;
        let o =
          { idx = !issued; due; r; status = -1; latency = 0.0; body = ""; correct = false }
        in
        if due >= warm_end && !first_measured < 0 then first_measured := o.idx;
        record o;
        Core.Node.Cluster.fetch w.W.cluster ~client:r.W.client ?proxy:r.W.proxy
          ~timeout:w.W.timeout r.W.req (fun resp ->
            if o.status < 0 then begin
              o.status <- resp.Message.status;
              o.latency <- Sim.now sim -. due;
              if o.status = 200 then begin
                let body = Core.Http.Body.to_string resp.Message.resp_body in
                o.correct <- check r.W.expect body;
                o.body <-
                  (match r.W.expect with W.Exact s when o.correct -> s | _ -> body)
              end
            end);
        next st rng (Sim.now sim))
  and next st rng now =
    let gap = if st.W.paced then 1.0 /. st.W.rate else Prng.exponential rng (1.0 /. st.W.rate) in
    let due = st.W.on (now +. gap) in
    if due < measure_end then arrive st rng due
  in
  List.iteri
    (fun i st ->
      let rng = Prng.create ((seed * 7919) + (i * 104_729) + 1) in
      next st rng w.W.start)
    w.W.streams;
  (* The measured window opens with this event: set-up ends here. *)
  let snap = ref None in
  let origin_bytes () =
    Array.fold_left (fun acc o -> acc + Core.Node.Origin.bytes_served o) 0 w.W.origins
  in
  Sim.schedule_at sim warm_end (fun () ->
      let g = Gc.quick_stat () in
      snap := Some (Unix.times (), Sim.executed sim, g, origin_bytes ());
      Option.iter (fun l -> Layers.open_window l) layers);
  let stop = ref false in
  Sim.schedule_at sim horizon (fun () -> stop := true);
  Option.iter (fun l -> Layers.start_daemons l ~until:horizon) layers;
  while (not !stop) && Sim.step sim do
    ()
  done;
  let t_end = Unix.times () in
  let g_end = Gc.quick_stat () in
  let cpu_open, events_open, g_open, origin_open =
    match !snap with Some s -> s | None -> failwith "measured window never opened"
  in
  let setup_s = cpu cpu_open -. cpu_start in
  let window_s = cpu t_end -. cpu cpu_open in
  let window_sys_s = t_end.Unix.tms_stime -. cpu_open.Unix.tms_stime in
  let first = max 0 !first_measured in
  let measured = Array.sub !outcomes first (!issued - first) in
  let n = Array.length measured in
  let ok = ref 0 and good = ref 0 and refused = ref 0 and failed = ref 0 and hung = ref 0 in
  let causes = Hashtbl.create 8 in
  let fail o cause =
    incr failed;
    let key = o.r.W.kind ^ ":" ^ cause in
    Hashtbl.replace causes key (1 + Option.value (Hashtbl.find_opt causes key) ~default:0)
  in
  let lat = ref [] and kinds = Hashtbl.create 8 in
  Array.iter
    (fun o ->
      let i, k, f = Option.value (Hashtbl.find_opt kinds o.r.W.kind) ~default:(0, 0, 0) in
      Hashtbl.replace kinds o.r.W.kind
        ( i + 1,
          (if o.status = 200 && o.correct then k + 1 else k),
          if o.status = 503 || o.status = 504 then f + 1 else f );
      match o.status with
      | -1 -> incr hung; fail o "hung"
      | 200 when o.correct ->
        incr ok;
        lat := o.latency :: !lat;
        if o.latency <= w.W.limit then incr good
      | 200 -> fail o "wrong-body"
      | 503 | 504 -> incr refused
      | s -> fail o (string_of_int s))
    measured;
  let lat = Array.of_list !lat in
  Array.sort Float.compare lat;
  let p99 = percentile lat 0.99 in
  let beyond = Array.fold_left (fun acc x -> if x > p99 then acc + 1 else acc) 0 lat in
  (* Digest over (index, status, body hash, simulated latency). Bodies
     are hashed once per distinct reference. *)
  let body_hashes = Hashtbl.create 64 in
  let body_hash s =
    match Hashtbl.find_opt body_hashes s with
    | Some h -> h
    | None ->
      let h = Digest.to_hex (Digest.string s) in
      Hashtbl.replace body_hashes s h;
      h
  in
  let digest = Buffer.create (n * 64) in
  Array.iter
    (fun o ->
      Printf.bprintf digest "%d %d %s %h\n" (o.idx - first) o.status (body_hash o.body) o.latency)
    measured;
  let digest = Digest.to_hex (Digest.string (Buffer.contents digest)) in
  let events = Sim.executed sim - events_open in
  let fields =
    [
      ("workload", Printf.sprintf "%S" spec.W.name);
      ("seed", string_of_int seed);
      ("traced", string_of_bool tracing);
      ("issued", string_of_int n);
      ("ok", string_of_int !ok);
      ("good", string_of_int !good);
      ("refused", string_of_int !refused);
      ("failed", string_of_int !failed);
      ("hung", string_of_int !hung);
      ( "failures",
        "{"
        ^ String.concat ","
            (List.sort compare
               (Hashtbl.fold (fun k v acc -> Printf.sprintf "%S:%d" k v :: acc) causes []))
        ^ "}" );
      ( "kinds",
        "{"
        ^ String.concat ","
            (List.sort compare
               (Hashtbl.fold
                  (fun k (i, o, f) acc -> Printf.sprintf "%S:[%d,%d,%d]" k i o f :: acc)
                  kinds []))
        ^ "}" );
      ("setup_s", json_float setup_s);
      ("window_s", json_float window_s);
      ("window_sys_s", json_float window_sys_s);
      ("events", string_of_int events);
      ("minor_words", json_float (g_end.Gc.minor_words -. g_open.Gc.minor_words));
      ("promoted_words", json_float (g_end.Gc.promoted_words -. g_open.Gc.promoted_words));
      ( "minor_collections",
        string_of_int (g_end.Gc.minor_collections - g_open.Gc.minor_collections) );
      ( "major_collections",
        string_of_int (g_end.Gc.major_collections - g_open.Gc.major_collections) );
      ("peak_heap_mb", json_float (words_to_mib (float_of_int g_end.Gc.top_heap_words)));
      ("origin_bytes", string_of_int (origin_bytes () - origin_open));
      ("latency_samples", string_of_int (Array.length lat));
      ("beyond_p99", string_of_int beyond);
      ("p50_ms", json_float (1000.0 *. percentile lat 0.5));
      ("p99_ms", json_float (1000.0 *. p99));
      ("limit_ms", json_float (1000.0 *. w.W.limit));
      ("gen_lag_ms", json_float (1000.0 *. !gen_lag));
      ("digest", Printf.sprintf "%S" digest);
    ]
    @
    match layers with
    | Some l -> [ ("layers", Layers.report l ~issued:n ~events ~gen_lag_ms:(1000.0 *. !gen_lag)) ]
    | None -> []
  in
  print_string "{";
  print_string (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields));
  print_endline "}"

let () =
  let workload = ref "" and seed = ref 1 and tracing = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set tracing, " record spans and report per-layer figures");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "nkbench.exe --workload NAME --seed N [--trace]";
  match W.find !workload with
  | Some spec -> run spec ~seed:!seed ~tracing:!tracing
  | None ->
    Printf.eprintf "unknown workload %S; available: %s\n" !workload
      (String.concat " " (List.map (fun s -> s.W.name) W.all));
    exit 2
