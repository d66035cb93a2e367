(* The traced run's per-layer figures.

   Three sources, all read from outside the program through its public
   API:
   - the registries (every node's, the DHT's, the network's and the
     message bus's), read once at the end;
   - the spans the nodes record on the simulated clock, polled by a bench
     daemon before their ring buffers wrap, plus a second daemon that
     samples the event queue and every edge node's CPU backlog;
   - replays: the bench records the inputs it sees at each layer
     boundary (request URLs and headers, origin bodies and site scripts
     fetched straight from the origins after the run, DHT keys, metric
     names and labels) and times each layer's public function on them in
     isolation. Host time per request is the replayed cost times the
     run's call counts; what the replays do not cover is left to run.py
     as the unattributed residual. *)

module Metrics = Core.Telemetry.Metrics
module Tracer = Core.Telemetry.Tracer
module Sim = Core.Sim.Sim
module Net = Core.Sim.Net
module Node = Core.Node.Node
module Message = Core.Http.Message
module W = Workloads

type span_stats = { mutable count : int; mutable self : float; durations : Metrics.Histogram.h }

type t = {
  w : W.t;
  sim : Sim.t;
  warm_end : float;
  mutable requests : W.request list; (* every issued request, newest first *)
  mutable issued : int; (* warm-up included, like the registries *)
  mutable daemon_events : int;
  spans : (string, span_stats) Hashtbl.t;
  mutable lost_traces : int;
  seen : int array; (* per node: traces already polled *)
  pending : Metrics.Histogram.h;
  backlog : Metrics.Histogram.h;
  mutable cpu_samples : int;
  mutable cpu_busy : int;
  mutable net_open : int;
}

let create (w : W.t) =
  {
    w;
    sim = Core.Node.Cluster.sim w.W.cluster;
    warm_end = w.W.start +. w.W.warmup;
    requests = [];
    issued = 0;
    daemon_events = 0;
    spans = Hashtbl.create 32;
    lost_traces = 0;
    seen = Array.make (Array.length w.W.proxies) 0;
    pending = Metrics.Histogram.create ();
    backlog = Metrics.Histogram.create ();
    cpu_samples = 0;
    cpu_busy = 0;
    net_open = 0;
  }

let saw_request t r =
  t.issued <- t.issued + 1;
  t.requests <- r :: t.requests

let net_bytes t =
  let net = Core.Node.Cluster.net t.w.W.cluster in
  let sum hosts = Array.fold_left (fun acc h -> acc + Net.bytes_sent net h) 0 hosts in
  sum (Array.map Node.host t.w.W.proxies)
  + sum (Array.map Core.Node.Origin.host t.w.W.origins)
  + sum t.w.W.clients

let open_window t = t.net_open <- net_bytes t

let stats t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
    let s = { count = 0; self = 0.0; durations = Metrics.Histogram.create () } in
    Hashtbl.replace t.spans name s;
    s

let dur (s : Tracer.span) = Option.value (Tracer.duration s) ~default:0.0

(* Fold one completed trace into the per-name tallies: count, self time
   (own duration minus its children's) and the duration sketch. Like the
   registries, the tallies cover the whole run, warm-up included. *)
let absorb t (tr : Tracer.trace) =
  let children = Hashtbl.create 8 in
  List.iter
    (fun (s : Tracer.span) ->
      match s.Tracer.parent_id with
      | Some p ->
        let sum = Option.value (Hashtbl.find_opt children p) ~default:0.0 in
        Hashtbl.replace children p (sum +. dur s)
      | None -> ())
    tr.Tracer.spans;
  List.iter
    (fun (s : Tracer.span) ->
      let st = stats t s.Tracer.name in
      st.count <- st.count + 1;
      st.self <-
        st.self +. dur s -. Option.value (Hashtbl.find_opt children s.Tracer.span_id) ~default:0.0;
      Metrics.Histogram.observe st.durations (dur s))
    tr.Tracer.spans

let poll t =
  Array.iteri
    (fun i node ->
      let tracer = Node.tracer node in
      let fresh = Tracer.completed tracer - t.seen.(i) in
      if fresh > 0 then begin
        t.seen.(i) <- Tracer.completed tracer;
        let retained = Tracer.traces tracer in
        let n = List.length retained in
        if fresh > n then t.lost_traces <- t.lost_traces + (fresh - n);
        List.iteri (fun j tr -> if j >= n - fresh then absorb t tr) retained
      end)
    t.w.W.proxies

let sample t =
  let net = Core.Node.Cluster.net t.w.W.cluster in
  Metrics.Histogram.observe t.pending (float_of_int (Sim.pending t.sim));
  Array.iter
    (fun node ->
      let b = Net.cpu_backlog net (Node.host node) in
      t.cpu_samples <- t.cpu_samples + 1;
      if b > 0.0 then t.cpu_busy <- t.cpu_busy + 1;
      Metrics.Histogram.observe t.backlog (1000.0 *. b))
    t.w.W.proxies

(* Daemon events never keep the run alive; they stop at the horizon. The
   sampler covers the measured window, the poller the whole run. *)
let every t ~from ~period ~until f =
  let rec tick () =
    t.daemon_events <- t.daemon_events + 1;
    f ();
    if Sim.now t.sim +. period < until then Sim.schedule t.sim ~daemon:true ~delay:period tick
  in
  Sim.schedule_at t.sim ~daemon:true from tick

let start_daemons t ~until =
  every t ~from:t.warm_end ~period:0.05 ~until (fun () -> sample t);
  every t ~from:t.w.W.start ~period:0.5 ~until (fun () -> poll t)

(* --- registries -------------------------------------------------------- *)

let merged t =
  let m = Metrics.create () in
  Array.iter (fun n -> Metrics.merge ~into:m (Node.metrics n)) t.w.W.proxies;
  let c = t.w.W.cluster in
  Metrics.merge ~into:m (Core.Overlay.Dht.metrics (Core.Node.Cluster.dht c));
  Metrics.merge ~into:m (Net.metrics (Core.Node.Cluster.net c));
  Metrics.merge ~into:m (Core.Replication.Message_bus.metrics (Core.Node.Cluster.bus c));
  m

(* One histogram over every label set of [name]. *)
let hist_merged m name =
  List.fold_left
    (fun acc (n, _, h) -> if String.equal n name then Metrics.Histogram.merge acc h else acc)
    (Metrics.Histogram.create ()) (Metrics.histograms m)

(* --- replays ----------------------------------------------------------- *)

(* Host CPU seconds per call of [f], over batches that double until one
   takes at least [min_s] (Sys.time ticks are coarse). *)
let per_call ?(min_s = 0.1) f =
  let rec go n =
    let t0 = Sys.time () in
    for _ = 1 to n do
      f ()
    done;
    let dt = Sys.time () -. t0 in
    if dt >= min_s || n >= 1 lsl 24 then dt /. float_of_int n else go (2 * n)
  in
  f ();
  go 1

let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let cycle arr =
  let i = ref 0 in
  fun () ->
    let x = arr.(!i) in
    i := (!i + 1) mod Array.length arr;
    x

(* Fetch each distinct URL straight from its origin over the simulated
   web, after the run: the origin bodies and site scripts the edge saw. *)
let origin_bodies t urls =
  let web = Core.Node.Cluster.web t.w.W.cluster in
  let got = Hashtbl.create 64 and want = ref 0 in
  List.iter
    (fun url ->
      if not (Hashtbl.mem got url) then begin
        incr want;
        Hashtbl.replace got url None;
        Core.Sim.Httpd.fetch web ~from:t.w.W.clients.(0) (Message.request url) (fun resp ->
            Hashtbl.replace got url (Some resp))
      end)
    urls;
  let answered () = Hashtbl.fold (fun _ v n -> if v = None then n else n + 1) got 0 in
  while answered () < !want && Sim.step t.sim do
    ()
  done;
  Hashtbl.fold (fun url v acc -> match v with Some r -> (url, r) :: acc | None -> acc) got []

let body (r : Message.response) = Core.Http.Body.to_string r.Message.resp_body

let url_of (r : W.request) = Core.Http.Url.to_string r.W.req.Message.url

(* A bounded, evenly spaced sample of the run's requests (oldest first). *)
let sample_requests t n =
  let all = Array.of_list (List.rev t.requests) in
  let len = Array.length all in
  if len <= n then all else Array.init n (fun i -> all.(i * len / n))

let site_of url = Core.Http.Url.site (Core.Http.Url.parse_exn url)

(* Replayed host cost per call; 0 where the workload has no such call. *)
type replay = {
  codec_ns : float;
  lookup_ns : float;
  get_ns : float;
  sha_ns_per_kb : float;
  verified_kb : float; (* mean size of a peer-verifiable body *)
  match_ns : float;
  exec_us : float; (* one pipeline execution *)
  exec_words : float;
  ns_per_fuel : float;
  xml_us : float;
  update_ns : float;
  gen_us : float;
}

let replays t ~registry ~pipeline =
  let reqs = sample_requests t 400 in
  let fresh (r : W.request) = Message.request (url_of r) in
  let bodies =
    origin_bodies t (Array.to_list (Array.map url_of reqs))
    |> List.filter (fun (_, r) -> r.Message.status = 200)
  in
  let resps = Array.of_list (List.map snd bodies) in
  let now = Sim.now t.sim in
  (* nk_http: encode + decode of the run's requests and origin responses. *)
  let module Codec = Core.Http.Codec in
  let next_req = cycle reqs and next_resp = cycle resps in
  let codec_ns =
    1e9
    *. per_call (fun () ->
           let r = (next_req ()).W.req and p = next_resp () in
           ignore (Sys.opaque_identity (Codec.decode_request (Codec.encode_request r)));
           ignore (Sys.opaque_identity (Codec.decode_response (Codec.encode_response p))))
    /. 2.0
  in
  (* nk_cache: lookups of the run's URLs in a cache holding their bodies. *)
  let module Cache = Core.Cache.Http_cache in
  let cache = Cache.create () in
  List.iter (fun (url, r) -> Cache.insert cache ~now ~key:url ~expiry:(Some (now +. 1e6)) r) bodies;
  let next_url = cycle (Array.map url_of reqs) in
  let lookup_ns =
    1e9
    *. per_call (fun () -> ignore (Sys.opaque_identity (Cache.lookup cache ~now ~key:(next_url ()))))
  in
  (* nk_overlay: gets on a ring of the run's size holding the run's keys. *)
  let module Dht = Core.Overlay.Dht in
  let dht = Dht.create () in
  let names = Array.map Node.name t.w.W.proxies in
  let name i = names.(i mod Array.length names) in
  Array.iter (fun n -> ignore (Dht.join dht n)) names;
  Array.iteri
    (fun i r ->
      ignore (Dht.put dht ~now ~from:(name i) ~key:(url_of r) ~value:(name (i * 7)) ~ttl:1e6))
    reqs;
  let k = ref 0 in
  let get_ns =
    1e9
    *. per_call (fun () ->
           incr k;
           ignore (Sys.opaque_identity (Dht.get dht ~now ~from:(name !k) ~key:(next_url ()))))
  in
  (* nk_integrity: SHA-256 over the origin bodies. *)
  let total = Array.fold_left (fun acc r -> acc + String.length (body r)) 0 resps in
  let verified_kb = float_of_int total /. 1000.0 /. float_of_int (max 1 (Array.length resps)) in
  let next_body = cycle (Array.map body resps) in
  let sha_ns_per_kb =
    1e9
    *. per_call (fun () -> ignore (Sys.opaque_identity (Core.Crypto.Sha256.digest (next_body ()))))
    /. Float.max 1e-3 verified_kb
  in
  (* nk_policy / nk_script / nk_vocab: the run's pipelines on a stub host. *)
  let match_ns, (exec_us, exec_words, ns_per_fuel), xml_us =
    if not pipeline then (0.0, (0.0, 0.0, 0.0), 0.0)
    else begin
      let module P = Core.Pipeline in
      let site_script site = Printf.sprintf "http://%s/nakika.js" site in
      let sites =
        List.sort_uniq compare (List.map (fun r -> site_of (url_of r)) (Array.to_list reqs))
      in
      (* Site scripts from their origins; the walls and the NKP stage are
         the ones the cluster's nakika.net origin serves. *)
      let scripts =
        origin_bodies t (List.map site_script sites)
        @ List.map
            (fun (url, body) -> (url, Message.response ~body ()))
            [
              (P.Pipeline.well_known_client_wall, P.Walls.default_client_wall);
              (P.Pipeline.well_known_server_wall, P.Walls.default_server_wall);
              ("http://nakika.net/nkp.js", P.Nkp.script);
            ]
      in
      let stages = Hashtbl.create 8 in
      let load_stage url =
        match Hashtbl.find_opt stages url with
        | Some s -> s
        | None ->
          let s =
            match List.assoc_opt url scripts with
            | Some r when r.Message.status = 200 -> (
              match
                P.Stage.of_script ~url ~host:(Core.Vocab.Hostcall.stub ~site:(site_of url) ())
                  ~source:(body r) ()
              with
              | Ok s -> Some s
              | Error _ -> None)
            | _ -> None
          in
          Hashtbl.replace stages url s;
          s
      in
      let by_url = Hashtbl.create 64 in
      List.iter (fun (u, r) -> Hashtbl.replace by_url u r) bodies;
      (* The bomb tenant's handler only ends at the sandbox's heap limit,
         so it is left out of the replay. *)
      let runnable =
        Array.of_list
          (List.filter
             (fun r -> r.W.kind <> "bomb" && Hashtbl.mem by_url (url_of r))
             (Array.to_list reqs))
      in
      let next = cycle runnable in
      let fuel = ref 0 in
      (* A node resets a stage context's fuel and heap tallies for every
         pipeline it runs; so does the replay. *)
      let run_one () =
        Hashtbl.iter
          (fun _ s ->
            Option.iter (fun s -> Core.Script.Interp.reset_usage (P.Stage.context s)) s)
          stages;
        let r = next () in
        let o =
          P.Pipeline.execute ~load_stage
            ~fetch:(fun _ -> Message.copy_response (Hashtbl.find by_url (url_of r)))
            (fresh r)
        in
        fuel := !fuel + o.P.Pipeline.fuel
      in
      let exec_s = per_call run_one in
      fuel := 0;
      let calls = 64 in
      let words = ref 0.0 in
      for _ = 1 to calls do
        words := !words +. words_per_call run_one
      done;
      let fuel_per = float_of_int !fuel /. float_of_int (2 * calls) in
      let site_stage r = load_stage (site_script (site_of (url_of r))) in
      let with_stage =
        Array.of_list (List.filter (fun r -> site_stage r <> None) (Array.to_list runnable))
      in
      let match_ns =
        if with_stage = [||] then 0.0
        else
          let next = cycle with_stage in
          1e9
          *. per_call (fun () ->
                 let r = next () in
                 match site_stage r with
                 | Some s -> ignore (Sys.opaque_identity (P.Stage.select s r.W.req))
                 | None -> ())
      in
      let lectures =
        List.filter_map
          (fun (_, r) -> if Message.content_type r = Some "text/xml" then Some (body r) else None)
          bodies
      in
      let xml_us =
        match lectures with
        | [] -> 0.0
        | l ->
          let next = cycle (Array.of_list l) in
          let module Xml = Core.Vocab.Xml in
          1e6
          *. per_call (fun () ->
                 ignore
                   (Sys.opaque_identity
                      (Xml.to_html Core.Workload.Simm.stylesheet (Xml.parse_exn (next ())))))
      in
      ( match_ns,
        (1e6 *. exec_s, !words /. float_of_int calls, 1e9 *. exec_s /. Float.max 1.0 fuel_per),
        xml_us )
    end
  in
  (* nk_telemetry: counter bumps and observations with the run's names
     and label shapes, into a fresh registry. *)
  let shapes =
    Array.of_list
      (List.map (fun (n, l, _) -> (n, l, false)) (Metrics.counters registry)
      @ List.map (fun (n, l, _) -> (n, l, true)) (Metrics.histograms registry))
  in
  let scratch = Metrics.create () in
  let next_shape = cycle shapes in
  let update_ns =
    1e9
    *. per_call (fun () ->
           let n, labels, is_hist = next_shape () in
           if is_hist then Metrics.observe scratch ~labels n 0.003
           else Metrics.incr scratch ~labels n)
  in
  (* bench: the generator's own draws, replayed from a fresh stream. *)
  let rng = Core.Util.Prng.create 12345 in
  let streams = Array.of_list t.w.W.streams in
  let s = ref 0 in
  let gen_us =
    1e6
    *. per_call (fun () ->
           incr s;
           ignore (Sys.opaque_identity (streams.(!s mod Array.length streams).W.draw rng)))
  in
  {
    codec_ns;
    lookup_ns;
    get_ns;
    sha_ns_per_kb;
    verified_kb;
    match_ns;
    exec_us;
    exec_words;
    ns_per_fuel;
    xml_us;
    update_ns;
    gen_us;
  }

(* --- report ------------------------------------------------------------ *)

let report t ~issued ~events ~gen_lag_ms =
  poll t;
  let m = merged t in
  let per x = x /. float_of_int (max 1 t.issued) in
  let c name = float_of_int (Metrics.counter_total m name) in
  let span name = Hashtbl.find_opt t.spans name in
  let span_count name = match span name with Some s -> float_of_int s.count | None -> 0.0 in
  let span_p99_ms name =
    match span name with
    | Some s -> 1000.0 *. Metrics.Histogram.quantile s.durations 99.0
    | None -> 0.0
  in
  let h name = hist_merged m name in
  let hp99 name = Metrics.Histogram.quantile (h name) 99.0 in
  let hsum name = Metrics.Histogram.sum (h name) in
  let hcount name = float_of_int (Metrics.Histogram.count (h name)) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let pipeline = not (List.mem "nk_pipeline" t.w.W.bypassed) in
  let rp = replays t ~registry:m ~pipeline in
  let traced_reqs = span_count "request" in
  let per_traced x = ratio x traced_reqs in
  (* One request and one response per client request and per upstream
     exchange a node starts. *)
  let upstream =
    c "origin-fetches" +. c "peer-fetches" +. c "revalidations" +. c "hedge.issued"
    +. c "diffusion.offloads"
  in
  let msgs_per_req = 2.0 *. (1.0 +. per upstream) in
  let cache_lookups = per (c "cache.hits" +. c "cache.misses") in
  let gets_per_req = per (c "dht.gets") in
  let verifies_per_req = per_traced (span_count "integrity-verify") in
  let updates =
    List.fold_left (fun acc (_, _, v) -> acc +. float_of_int v) 0.0 (Metrics.counters m)
    +. List.fold_left (fun acc (_, _, hh) -> acc +. float_of_int (Metrics.Histogram.count hh)) 0.0
         (Metrics.histograms m)
  in
  let updates_per_req = per updates in
  let registers = List.filter (fun r -> r.W.kind = "nkp-register") t.requests in
  let all_spans = Hashtbl.fold (fun _ s acc -> acc +. float_of_int s.count) t.spans 0.0 in
  let sum_nodes f = Array.fold_left (fun acc n -> acc +. float_of_int (f n)) 0.0 t.w.W.proxies in
  let attributed_us =
    (1e-3 *. rp.codec_ns *. msgs_per_req)
    +. (1e-3 *. rp.lookup_ns *. cache_lookups)
    +. (1e-3 *. rp.get_ns *. gets_per_req)
    +. (1e-3 *. rp.sha_ns_per_kb *. rp.verified_kb *. verifies_per_req)
    +. rp.exec_us
    +. (1e-3 *. rp.update_ns *. updates_per_req)
    +. rp.gen_us
  in
  let net = Core.Node.Cluster.net t.w.W.cluster in
  let per_measured x = x /. float_of_int (max 1 issued) in
  let fields =
    [
      ("nk_sim.events_per_req", per_measured (float_of_int (events - t.daemon_events)));
      ("nk_sim.pending_p99", Metrics.Histogram.quantile t.pending 99.0);
      ("nk_sim.net_kb_per_req", per_measured (float_of_int (net_bytes t - t.net_open) /. 1000.0));
      ("nk_sim.net_dropped", float_of_int (Metrics.counter (Net.metrics net) "net.dropped"));
      ("nk_sim.cpu_busy_frac", ratio (float_of_int t.cpu_busy) (float_of_int t.cpu_samples));
      ("nk_sim.cpu_wait_ms_p99", Metrics.Histogram.quantile t.backlog 99.0);
      ("nk_http.msgs_per_req", msgs_per_req);
      ("nk_http.codec_ns_per_msg", rp.codec_ns);
      ("nk_cache.hit_ratio", ratio (c "cache.hits") (c "cache.hits" +. c "cache.misses"));
      ("nk_cache.evictions_per_kreq", 1000.0 *. per (c "cache.evictions"));
      ("nk_cache.stale_served", c "stale-served" +. c "cache.stale_served");
      ( "nk_cache.mb",
        sum_nodes (fun n -> Core.Cache.Http_cache.size_bytes (Node.cache n)) /. 1048576.0 );
      ("nk_cache.lookup_ns", rp.lookup_ns);
      ("nk_overlay.gets_per_req", gets_per_req);
      ("nk_overlay.hops_mean", ratio (hsum "dht.hops") (hcount "dht.hops"));
      ("nk_overlay.hops_p99", hp99 "dht.hops");
      ("nk_overlay.get_hit_ratio", ratio (c "dht.get-hits") (c "dht.gets"));
      ("nk_overlay.sloppy_hit_ratio", ratio (c "dht.sloppy_hits") (c "dht.gets"));
      ("nk_overlay.hot_replications", c "dht.hotspot_replications");
      ("nk_overlay.get_ns", rp.get_ns);
      ("nk_overlay.sim_ms_lookup_p99", span_p99_ms "dht-lookup");
      ("nk_overlay.sim_ms_peer_fetch_p99", span_p99_ms "peer-fetch");
      ("nk_integrity.verifies_per_req", verifies_per_req);
      ("nk_integrity.sha256_ns_per_kb", rp.sha_ns_per_kb);
      ("nk_resource.shed_ratio", per (c "admission-sheds"));
      ("nk_resource.queue_delay_ms_p99", 1000.0 *. hp99 "admission.queue_delay");
      ("nk_resource.breaker_opens", c "breaker.opens");
      ("nk_resource.hedge_ratio", ratio (c "hedge.issued") (c "peer-fetches"));
      ("nk_resource.hedge_win_ratio", ratio (c "hedge.wins") (c "hedge.issued"));
      ("nk_resource.retry_exhausted", c "retry.budget_exhausted");
      ("nk_resource.deadline_expired_ratio", per (c "deadline-expired"));
      ("nk_resource.throttles", c "monitor.throttles");
      ("nk_resource.terminations", c "monitor.terminations");
      ("nk_resource.quarantine_bans", c "quarantine.bans");
      ("nk_diffusion.offload_ratio", per (c "diffusion.offloads"));
      ( "nk_diffusion.offload_useful_ratio",
        if c "diffusion.offloads" > 0.0 then
          1.0 -. ((c "diffusion.rejects" +. c "diffusion.fallbacks") /. c "diffusion.offloads")
        else 0.0 );
      ("nk_diffusion.stale_replies", c "diffusion.stale_replies");
      ("nk_pipeline.stage_loads_per_req", per_traced (span_count "load-stage"));
      ("nk_pipeline.sim_ms_stage_p99", span_p99_ms "stage");
      ("nk_pipeline.stage_cache_entries", sum_nodes Node.stage_cache_entries);
      ("nk_policy.match_ns", rp.match_ns);
      ("nk_script.fuel_per_req", per (hsum "script.fuel"));
      ("nk_script.heap_kb_p99", hp99 "script.heap" /. 1024.0);
      ( "nk_script.compile_hit_ratio",
        ratio (c "script.compile_cache.hits")
          (c "script.compile_cache.hits" +. c "script.compile_cache.misses") );
      ("nk_script.lint_runs", span_count "script.lint");
      ("nk_script.exec_us", rp.exec_us);
      ("nk_script.exec_words", rp.exec_words);
      ("nk_script.ns_per_fuel", rp.ns_per_fuel);
      ("nk_vocab.xml_render_us", rp.xml_us);
      ( "nk_replication.bus_msgs_per_write",
        ratio (c "bus.published") (float_of_int (List.length registers)) );
      ("nk_replication.bus_retries", c "bus.retries");
      ("nk_replication.dead_letters", c "bus.dead_letters");
      ("nk_telemetry.updates_per_req", updates_per_req);
      ("nk_telemetry.update_ns", rp.update_ns);
      ("nk_telemetry.spans_per_req", per_traced all_spans);
      ("nk_node.origin_fetches_per_req", per (c "origin-fetches"));
      ("nk_node.peer_fetches_per_req", per (c "peer-fetches"));
      ("bench.gen_us_per_req", rp.gen_us);
      ("bench.gen_lag_ms", gen_lag_ms);
      ("attributed_us_per_req", attributed_us);
      ("lost_traces", float_of_int t.lost_traces);
    ]
  in
  let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0" in
  let obj l =
    String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v)) l)
  in
  let self_ms =
    Hashtbl.fold (fun name s acc -> (name, 1000.0 *. per_traced s.self) :: acc) t.spans []
    |> List.sort compare
  in
  Printf.sprintf "{\"values\":{%s},\"self_ms_per_req\":{%s},\"bypassed\":[%s]}" (obj fields)
    (obj self_ms)
    (String.concat "," (List.map (Printf.sprintf "%S") t.w.W.bypassed))
