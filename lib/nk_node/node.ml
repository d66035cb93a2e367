type stage_entry = {
  stage : Nk_pipeline.Stage.t;
  site : string;
  hash : string;
      (* SHA-256 of the script source — the name an offload envelope
         ships instead of the body *)
}

(* Proactive computation diffusion (C3PO): the neighbor pressure table
   fed by the cluster's load-report gossip, plus the offload protocol
   instance (envelope codec, pending table, reply matching). *)
type diffusion = {
  neighbors : Nk_diffusion.Neighbors.t;
  offload : Nk_diffusion.Offload.t;
}

type t = {
  web : Nk_sim.Httpd.t;
  net : Nk_sim.Net.t;
  sim : Nk_sim.Sim.t;
  host : Nk_sim.Net.host;
  dht : Nk_overlay.Dht.t option;
  bus : Nk_replication.Message_bus.t option;
  cfg : Config.t;
  rng : Nk_util.Prng.t;
  cache : Nk_cache.Http_cache.t;
  stage_cache : stage_entry Nk_cache.Memo_cache.t;
  negative : unit Nk_cache.Memo_cache.t;
  accounting : Nk_resource.Accounting.t;
  monitor : Nk_resource.Monitor.t option;
  (* Fig. 6 congestion control; None = resource controls off *)
  quarantine : Nk_resource.Quarantine.t;
  (* terminated sites serve escalating, decaying ban windows *)
  admission : Nk_resource.Admission.t option;
  diffusion : diffusion option;
  breakers : (string, Nk_resource.Breaker.t) Hashtbl.t;
  (* per upstream ("origin:<site>" / "peer:<node>" / "offload:<node>")
     circuit breaker *)
  hedge : Nk_resource.Hedge.t option;
  (* hedged-replica-fetch governor; None = hedging disabled *)
  retry_budget : Nk_resource.Retry_budget.t option;
  (* per-upstream budgeted retries; None = pre-existing retry behavior *)
  store : Nk_replication.Store.t;
  replicas : (string, Nk_replication.Replication.node) Hashtbl.t; (* per site *)
  log_urls : (string, string) Hashtbl.t; (* site -> posting URL *)
  log_entries : (string, string list ref) Hashtbl.t;
  metrics : Nk_telemetry.Metrics.t;
  tracer : Nk_telemetry.Tracer.t;
  events : Nk_telemetry.Events.t;
  mutable active_span : Nk_telemetry.Tracer.span option;
  (* The request span of the pipeline currently on the CPU: hosted
     scripts' own fetches (hostcall closures are per-stage, not
     per-request) parent their spans here. Best effort: a pipeline
     suspended on a sub-fetch can interleave with another request. *)
  mutable active_deadline : Nk_resource.Deadline.t option;
  (* Same discipline for the deadline budget of the request on the
     CPU, so hosted scripts' own fetches run under it too. *)
  local_cidrs : Nk_http.Ip.cidr list;
  mutable in_flight : int * int;
  (* (incarnation, requests inside [process]): requests in flight when
     the host crashed died with it, so each incarnation counts afresh *)
}

let host t = t.host

let name t = Nk_sim.Net.host_name t.host

let config t = t.cfg

let metrics t = t.metrics

let tracer t = t.tracer

let events t = t.events

let cache t = t.cache

let accounting t = t.accounting

let monitor t = t.monitor

let quarantine t = t.quarantine

let admission t = t.admission

let terminated_sites t =
  match t.monitor with Some m -> Nk_resource.Monitor.terminated m | None -> []

let stage_cache_entries t = Nk_cache.Memo_cache.size t.stage_cache

let now t = Nk_sim.Sim.now t.sim

let peer_header = "X-NK-Peer"

(* --- tracing helpers ------------------------------------------------ *)

(* Spans are threaded as [span option]: [None] (tracing disabled, or a
   path with no request context) makes every helper a no-op. *)

let in_span t ?parent name attrs f =
  match parent with
  | None -> f None
  | Some p ->
    Nk_telemetry.Tracer.with_span t.tracer ~parent:p ~attrs name (fun s -> f (Some s))

let set_attr span key value =
  match span with Some s -> Nk_telemetry.Tracer.set_attr s key value | None -> ()

let start_request_span t name (req : Nk_http.Message.request) =
  if not t.cfg.Config.enable_tracing then None
  else
    Some
      (Nk_telemetry.Tracer.start_trace t.tracer name
         ~attrs:
           [
             ("url", Nk_http.Url.to_string req.Nk_http.Message.url);
             ("site", Nk_http.Url.site req.Nk_http.Message.url);
           ])

(* Finish a span, setting [attrs] on it first (in order). *)
let finish_span ?(attrs = []) t span =
  match span with
  | Some s ->
    List.iter (fun (k, v) -> Nk_telemetry.Tracer.set_attr s k v) attrs;
    Nk_telemetry.Tracer.finish t.tracer s
  | None -> ()

(* --- CPU charging (suspends the current cothread) ------------------ *)

let charge_cpu t seconds =
  if seconds > 0.0 then
    Nk_util.Cothread.await (fun k -> Nk_sim.Net.cpu_run t.net t.host ~seconds (fun () -> k ()))

(* CPU that the request consumes without delaying its own response
   (connection bookkeeping, filter teardown): it occupies the CPU and
   thus limits throughput, but overlaps this request's network time. *)
let charge_cpu_background t seconds =
  if seconds > 0.0 then Nk_sim.Net.cpu_run t.net t.host ~seconds (fun () -> ())

(* Usage a site consumed: its accounting (the [site.usage] scripts
   see) and the monitor's congestion windows take the same amounts. *)
let charge t ~site resource amount =
  Nk_resource.Accounting.charge t.accounting ~site resource amount;
  match t.monitor with Some m -> Nk_resource.Monitor.observe m resource amount | None -> ()

(* --- overload resilience --------------------------------------------- *)

(* One breaker per upstream, created lazily on first use and keyed
   ["origin:<site>"] / ["peer:<node>"]. *)
let breaker_for t key =
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
    let b =
      Nk_resource.Breaker.create ~name:key
        ~failure_threshold:t.cfg.Config.breaker_failures
        ~error_rate:t.cfg.Config.breaker_error_rate ~window:t.cfg.Config.breaker_window
        ~cooldown:t.cfg.Config.breaker_cooldown
        ~max_cooldown:t.cfg.Config.breaker_max_cooldown
        ~clock:(fun () -> now t)
        ~metrics:t.metrics ()
    in
    Hashtbl.add t.breakers key b;
    b

type health = {
  queue_delay : float;
  shed_rate : float;
  shedding : bool;
  open_breakers : string list;
  quarantined : string list;
}

let health t =
  {
    queue_delay = Nk_sim.Net.cpu_backlog t.net t.host;
    shed_rate =
      (match t.admission with Some a -> Nk_resource.Admission.shed_rate a | None -> 0.0);
    shedding =
      (match t.admission with Some a -> Nk_resource.Admission.shedding a | None -> false);
    open_breakers =
      Hashtbl.fold
        (fun key b acc ->
          if Nk_resource.Breaker.state b <> Nk_resource.Breaker.Closed then key :: acc
          else acc)
        t.breakers []
      |> List.sort compare;
    quarantined = List.map fst (Nk_resource.Quarantine.active t.quarantine);
  }

(* Liveness epoch under fault injection: bumped by every crash/restart
   of this host. Offload envelopes and neighbor observations are
   guarded by it, so nothing from a pre-crash epoch can act. *)
let host_incarnation net host =
  match Nk_sim.Net.faults net with
  | Some plan ->
    Nk_faults.Plan.incarnation plan ~now:(Nk_sim.Sim.now (Nk_sim.Net.sim net))
      (Nk_sim.Net.host_name host)
  | None -> 0

let incarnation t = host_incarnation t.net t.host

(* The scalar load signal diffusion decisions run on: admission queue
   delay (CPU backlog), shed rate, and admission-queue occupancy,
   combined so that any one saturating input saturates the whole
   signal. Crosses 0.5 exactly at the admission delay target — the
   diffusion low water sits below that, which is what makes diffusion
   proactive rather than a shedding echo. *)
let pressure t =
  let shed_rate, queue_frac =
    match t.admission with
    | Some adm ->
      ( Nk_resource.Admission.shed_rate adm,
        float_of_int (Nk_resource.Admission.queue_length adm)
        /. float_of_int (max 1 t.cfg.Config.admission_capacity) )
    | None -> (0.0, 0.0)
  in
  Nk_diffusion.Pressure.compute ~target:t.cfg.Config.admission_target
    ~queue_delay:(Nk_sim.Net.cpu_backlog t.net t.host)
    ~shed_rate ~queue_frac

let observe_neighbor t ~name:peer ~pressure ~incarnation ~distance =
  match t.diffusion with
  | None -> ()
  | Some d ->
    if peer <> name t then
      Nk_diffusion.Neighbors.observe d.neighbors ~name:peer ~incarnation ~pressure
        ~distance ~now:(now t)

let retry_after_response ?(status = 503) seconds =
  let resp = Nk_http.Message.error_response status in
  Nk_http.Message.set_resp_header resp "Retry-After"
    (string_of_int (max 1 (int_of_float (Float.ceil seconds))));
  resp

(* --- tail tolerance: deadline budgets ------------------------------- *)

(* Every internal hop runs under the smaller of its per-hop timeout and
   the request's remaining budget: waiting longer than the client will
   is capacity spent on an answer nobody reads. *)
let hop_timeout t deadline timeout =
  match deadline with
  | None -> timeout
  | Some d -> Nk_resource.Deadline.clamp d ~now:(now t) timeout

(* [None] is no budget at all, which never runs out. *)
let expired t deadline =
  match deadline with Some d -> Nk_resource.Deadline.expired d ~now:(now t) | None -> false

(* Carry the remaining budget on an outgoing hop. *)
let stamp t deadline req =
  Option.iter (fun d -> Nk_resource.Deadline.stamp d ~now:(now t) req) deadline

(* An expired (or unservable-in-time) budget: count where it died and
   answer an immediate machine-readable 504 — the only useful thing
   left to do with the request is to say so quickly. *)
let deadline_expired_response t ~at =
  Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("at", at) ] "deadline.expired";
  Nk_telemetry.Metrics.incr t.metrics "deadline-expired";
  Nk_resource.Deadline.expired_response ~reason:("deadline-" ^ at) ()

(* --- the content handler: cache + DHT + origin --------------------- *)

let cache_key (req : Nk_http.Message.request) =
  Nk_http.Method_.to_string req.Nk_http.Message.meth
  ^ " "
  ^ Nk_http.Url.to_string req.Nk_http.Message.url

(* Fetch with a deadline, resolving to [None] on timeout. Under fault
   injection the response may never arrive (dropped on the wire, server
   crashed); the timer is a daemon event so pending timeouts never keep
   the simulation alive, and [Cothread.await] ignores whichever of the
   two resumes loses the race. *)
let await_fetch_opt t ~via ~timeout req =
  Nk_util.Cothread.await (fun k ->
      Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:timeout (fun () -> k None);
      let deliver resp = k (Some resp) in
      match via with
      | Some host -> Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:host req deliver
      | None -> Nk_sim.Httpd.fetch t.web ~from:t.host req deliver)

(* A timeout or a server error: what breakers count as failure and what
   earns a retry or a stale fallback. *)
let failed = function None -> true | Some r -> r.Nk_http.Message.status >= 500

let insert_if_cacheable t ~key req resp =
  if Nk_http.Message.cacheable req resp then begin
    let expiry = Nk_http.Message.response_expiry ~now:(now t) resp in
    Nk_cache.Http_cache.insert t.cache ~now:(now t) ~key ~expiry resp;
    match (expiry, t.dht) with
    | Some expiry, Some dht ->
      let ttl = Float.min t.cfg.Config.dht_ttl (expiry -. now t) in
      if ttl > 0.0 then
        ignore
          (Nk_overlay.Dht.put dht ~now:(now t) ~from:(name t) ~key
             ~value:(name t) ~ttl)
    | _ -> ()
  end

(* The upstream accounting step shared by the peer and origin tiers:
   the breaker learns the attempt's outcome, and a success refills the
   upstream class's retry budget. *)
let account_upstream t breaker ~upstream ok =
  if ok then begin
    Nk_resource.Breaker.success breaker;
    Option.iter (fun rb -> Nk_resource.Retry_budget.success rb ~upstream) t.retry_budget
  end
  else Nk_resource.Breaker.failure breaker

(* --- tail tolerance: hedged replica fetches -------------------------- *)

(* The hedge delay for peer fetches: the upstream's observed p95 (the
   [fetch.latency] histogram this node records while hedging is
   enabled), bounded by the hop timeout; a quarter of the timeout
   stands in until the histogram has seen enough samples. *)
let hedge_delay t ~timeout =
  Float.min timeout
    (Nk_resource.Hedge.delay
       ?histogram:
         (Nk_telemetry.Metrics.histogram t.metrics
            ~labels:[ ("upstream", "peer") ]
            "fetch.latency")
       ~fallback:(timeout /. 4.0) ())

(* Race a cooperative-cache peer fetch against one hedged backup
   replica. The primary is fetched immediately; if it has not answered
   after [delay] and the governor grants a token, the same request goes
   to [backup] and whichever response arrives first wins — the loser's
   callback is discarded by the [resolved] latch here, and across
   crashes by the net layer's incarnation guard (a response from a
   pre-crash epoch never reaches us at all). Returns the winning
   response ([None] when nothing answered inside [timeout]) plus the
   name of the peer that served it.

   Breaker accounting: the caller accounts the *winning* arm from the
   verified outcome, exactly as on the unhedged path. A losing primary
   is accounted here — success/failure by status when its response
   straggles in, failure at [timeout] when it never answers — so a
   hedge win can neither mask a dead peer nor strand a half-open probe
   slot. A losing backup was never acquired through its breaker and is
   left alone; its late response only counts [hedge.cancelled]. *)
let hedged_peer_fetch t ~hedge ~primary:(peer, peer_host) ~backup ~delay ~timeout
    ~deadline req =
  Nk_util.Cothread.await (fun resume ->
      let resolved = ref false in
      let primary_done = ref false in
      let winner = ref "" in
      let finish server resp =
        if not !resolved then begin
          resolved := true;
          winner := server;
          resume (resp, server)
        end
      in
      let settle_primary ok =
        if not !primary_done then begin
          primary_done := true;
          if !resolved && !winner <> peer then begin
            let b = breaker_for t ("peer:" ^ peer) in
            if ok then Nk_resource.Breaker.success b else Nk_resource.Breaker.failure b
          end
        end
      in
      Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:timeout (fun () ->
          settle_primary false;
          finish peer None);
      let started = now t in
      Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:peer_host req (fun r ->
          Nk_telemetry.Metrics.observe t.metrics
            ~labels:[ ("upstream", "peer") ]
            "fetch.latency"
            (now t -. started);
          settle_primary (not (failed (Some r)));
          finish peer (Some r));
      match backup with
      | None -> ()
      | Some (backup_name, backup_host) ->
        if delay < timeout then
          Nk_sim.Sim.schedule t.sim ~daemon:true ~delay (fun () ->
              if (not !resolved) && Nk_resource.Hedge.try_hedge hedge then begin
                let breq = Nk_http.Message.copy_request req in
                stamp t deadline breq;
                Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:backup_host breq
                  (fun r ->
                    if !resolved then Nk_resource.Hedge.cancelled hedge
                    else Nk_resource.Hedge.won hedge;
                    finish backup_name (Some r))
              end))

(* The content handler is three tiers, each under one span, tried in
   order inside the request's cothread: the proxy cache, the
   cooperative cache (peers announced in the DHT), the origin. [span]
   is the request span the tiers' spans attach to; [deadline] is the
   request's remaining budget, and every hop runs under
   [min per-hop-timeout remaining]. *)

(* Tier 1: the proxy cache. *)
let cache_tier t ?span key =
  in_span t ?parent:span "cache-lookup" [] (fun sp ->
      let hit = Nk_cache.Http_cache.lookup t.cache ~now:(now t) ~key in
      set_attr sp "hit" (string_of_bool (Option.is_some hit));
      if Option.is_some hit then charge_cpu t t.cfg.Config.costs.Config.cache_hit;
      hit)

(* Tier 3: the origin. A stale copy with a validator turns the fetch
   into a conditional GET, and a 304 refreshes the entry without moving
   the body again (RFC 2616 revalidation under the web's
   expiration-based consistency model). An open breaker short-circuits
   the fetch; a failed attempt gets one budgeted retry; a failure with
   nothing better degrades to a recently expired copy. *)
let origin_tier t ?span ?deadline key req =
  if expired t deadline then deadline_expired_response t ~at:"origin"
  else
    in_span t ?parent:span "origin-fetch" [] (fun osp ->
        let req, validator =
          let stale = Nk_cache.Http_cache.lookup_stale t.cache ~key in
          let header name = Option.bind stale (fun old -> Nk_http.Message.resp_header old name) in
          match (header "ETag", header "Last-Modified") with
          | None, None -> (req, None)
          | etag, last_modified ->
            let creq = Nk_http.Message.copy_request req in
            (match etag with
             | Some etag -> Nk_http.Message.set_req_header creq "If-None-Match" etag
             | None ->
               Option.iter (Nk_http.Message.set_req_header creq "If-Modified-Since") last_modified);
            (creq, stale)
        in
        let fetch_once sp =
          let resp =
            await_fetch_opt t ~via:None
              ~timeout:(hop_timeout t deadline t.cfg.Config.origin_timeout)
              req
          in
          Nk_telemetry.Metrics.incr t.metrics "origin-fetches";
          set_attr sp "status"
            (match resp with
             | Some r -> string_of_int r.Nk_http.Message.status
             | None -> "timeout");
          resp
        in
        let attempt () =
          match validator with
          | None -> fetch_once osp
          | Some _ ->
            in_span t ?parent:osp "revalidation" [] (fun rsp ->
                let resp = fetch_once rsp in
                set_attr rsp "not-modified"
                  (string_of_bool
                     (match resp with
                      | Some r -> r.Nk_http.Message.status = 304
                      | None -> false));
                resp)
        in
        (* A tripped breaker short-circuits the fetch entirely: the dead
           origin costs one probe per cooldown, not one [origin_timeout]
           per request. The short-circuited request still degrades to a
           stale copy when one exists. *)
        let origin_key = "origin:" ^ Nk_http.Url.site req.Nk_http.Message.url in
        let breaker = breaker_for t origin_key in
        let resp, short_circuit =
          match Nk_resource.Breaker.acquire breaker with
          | `Reject retry ->
            Nk_telemetry.Metrics.incr t.metrics "breaker-short-circuits";
            set_attr osp "breaker" "open";
            (None, Some retry)
          | `Proceed ->
            let resp = attempt () in
            (* One budgeted retry: a transient origin failure gets a
               second attempt only while the upstream's retry budget —
               refilled by its own successes — grants a token and the
               request's deadline still has time left. *)
            let resp =
              match t.retry_budget with
              | Some rb
                when failed resp
                     && (not (expired t deadline))
                     && Nk_resource.Retry_budget.try_retry rb ~upstream:origin_key ->
                Nk_telemetry.Metrics.incr t.metrics
                  ~labels:[ ("upstream", origin_key) ]
                  "retry.attempts";
                set_attr osp "retried" "true";
                attempt ()
              | _ -> resp
            in
            account_upstream t breaker ~upstream:origin_key (not (failed resp));
            (resp, None)
        in
        match resp with
        | Some resp when resp.Nk_http.Message.status < 500 -> (
          match (resp.Nk_http.Message.status, validator) with
          | 304, Some old ->
            Nk_telemetry.Metrics.incr t.metrics "revalidations";
            (match Nk_http.Message.response_expiry ~now:(now t) resp with
             | Some expiry -> Nk_cache.Http_cache.refresh t.cache ~key ~expiry
             | None -> Nk_cache.Http_cache.remove t.cache ~key);
            old
          | _ ->
            insert_if_cacheable t ~key req resp;
            resp)
        | _ -> (
          (* Stale-if-error (RFC 2616 §13.1.5 spirit): when the origin
             times out or answers with a server error, a cached copy
             that expired no more than [stale_if_error] seconds ago is
             better than failing the client. The [X-NaKika-Stale]
             header carries the staleness in seconds so clients and
             tests can tell degraded responses apart. *)
          match
            if t.cfg.Config.stale_if_error <= 0.0 then None
            else Nk_cache.Http_cache.lookup_stale_entry t.cache ~key
          with
          | Some (old, expiry)
            when Nk_http.Status.is_success old.Nk_http.Message.status
                 && now t -. expiry <= t.cfg.Config.stale_if_error ->
            let age = Float.max 0.0 (now t -. expiry) in
            Nk_http.Message.set_resp_header old "X-NaKika-Stale"
              (string_of_int (int_of_float age));
            Nk_telemetry.Metrics.incr t.metrics "cache.stale_served";
            Nk_telemetry.Metrics.incr t.metrics "stale-served";
            set_attr osp "stale" "true";
            old
          | _ -> (
            match (resp, short_circuit) with
            | Some resp, _ -> resp
            (* No stale fallback and an open breaker: fail fast with a
               retry hint instead of pretending we waited. *)
            | None, Some retry -> retry_after_response retry
            | None, None -> Nk_http.Message.error_response 504)))

(* Peer-served content comes from an untrusted node: check the §6
   integrity headers and fall back on any violation. Content that never
   carried integrity headers is unprotected (a producer opt-in);
   stripping attacks are the probabilistic verifier's job, not this
   check's. *)
let verify_peer t ?span ~peer resp =
  match t.cfg.Config.integrity_key with
  | None -> true
  | Some key ->
    in_span t ?parent:span "integrity-verify" [] (fun vsp ->
        match Nk_integrity.Integrity.verify ~key ~now:(now t) resp with
        | Ok () ->
          set_attr vsp "result" "ok";
          true
        | Error Nk_integrity.Integrity.Missing_headers ->
          Nk_telemetry.Metrics.incr t.metrics "integrity-unverified";
          set_attr vsp "result" "unverified";
          true
        | Error violation ->
          Nk_telemetry.Metrics.incr t.metrics "integrity-violations";
          set_attr vsp "result" "violation";
          Logs.warn (fun m ->
              m "[%s] integrity violation from %s: %s" (name t) peer
                (Nk_integrity.Integrity.violation_to_string violation));
          false)

(* One peer hop under its "peer-fetch" span, hedged when hedging is on:
   the verified, successful response (or [None]) and the peer that
   served it. *)
let fetch_from_peer t dht ?span ?deadline ~key ~peer ~peer_host ~rest req =
  in_span t ?parent:span "peer-fetch" [ ("peer", peer) ] (fun psp ->
      let peer_req = Nk_http.Message.copy_request req in
      Nk_http.Message.set_req_header peer_req peer_header "1";
      stamp t deadline peer_req;
      let timeout = hop_timeout t deadline t.cfg.Config.peer_timeout in
      let raw, served_by =
        match t.hedge with
        | None -> (await_fetch_opt t ~via:(Some peer_host) ~timeout peer_req, peer)
        | Some hedge ->
          (* The backup is the next live replica: the remaining
             announced holders first, then the key's ring replica set
             ([Ring.successors]). *)
          Nk_resource.Hedge.note_primary hedge;
          let backup =
            rest @ Nk_overlay.Dht.replica_names dht ~key
            |> List.find_opt (fun c -> c <> peer && c <> name t)
            |> fun c ->
            Option.bind c (fun c ->
                Option.map (fun h -> (c, h)) (Nk_sim.Httpd.resolve t.web c))
          in
          let delay = hedge_delay t ~timeout in
          set_attr psp "hedge_delay" (Printf.sprintf "%.4f" delay);
          let resp, server =
            hedged_peer_fetch t ~hedge ~primary:(peer, peer_host) ~backup ~delay ~timeout
              ~deadline peer_req
          in
          if server <> peer then set_attr psp "hedge_winner" server;
          (resp, server)
      in
      match raw with
      | None ->
        set_attr psp "timeout" "true";
        (None, served_by)
      | Some resp ->
        let verified = verify_peer t ?span:psp ~peer resp in
        set_attr psp "verified" (string_of_bool verified);
        if verified && Nk_http.Status.is_success resp.Nk_http.Message.status then
          (Some resp, served_by)
        else (None, served_by))

(* Tier 2: the cooperative cache. Try up to two peers the DHT announces
   for [key], each under [peer_timeout] and the request's remaining
   budget; a peer that times out, fails, or serves tampered content
   falls through to the next candidate and finally to [from_origin]. *)
let peer_tier t dht ?span ?deadline key req ~from_origin =
  let result =
    in_span t ?parent:span "dht-lookup" [] (fun sp ->
        let result = Nk_overlay.Dht.get dht ~now:(now t) ~from:(name t) ~key in
        charge_cpu t
          (float_of_int (max 1 result.Nk_overlay.Dht.hops)
          *. t.cfg.Config.costs.Config.dht_per_hop);
        set_attr sp "hops" (string_of_int result.Nk_overlay.Dht.hops);
        set_attr sp "values" (string_of_int (List.length result.Nk_overlay.Dht.values));
        result)
  in
  let rec try_peers budget candidates =
    match candidates with
    (* No budget left for a peer hop: [from_origin] answers the
       machine-readable 504. *)
    | _ when expired t deadline -> from_origin ()
    | [] -> from_origin ()
    | _ when budget = 0 -> from_origin ()
    | peer :: rest -> (
      let peer_breaker = breaker_for t ("peer:" ^ peer) in
      match Nk_resource.Breaker.acquire peer_breaker with
      | `Reject _ ->
        (* A peer behind an open breaker is skipped outright — and
           without consuming the budget, so one dead peer doesn't halve
           our cooperative-cache reach. *)
        Nk_telemetry.Metrics.incr t.metrics "breaker-short-circuits";
        try_peers budget rest
      | `Proceed -> (
        match Nk_sim.Httpd.resolve t.web peer with
        | None ->
          (* Release the (possibly half-open probe) slot we claimed. *)
          Nk_resource.Breaker.failure peer_breaker;
          from_origin ()
        | Some peer_host -> (
          Nk_telemetry.Metrics.incr t.metrics "dht-hits";
          let resp, served_by =
            fetch_from_peer t dht ?span ?deadline ~key ~peer ~peer_host ~rest req
          in
          (* Accounting goes to the arm that actually served (the hedged
             backup may have won); unhedged, [served_by = peer]. *)
          account_upstream t (breaker_for t ("peer:" ^ served_by)) ~upstream:"peer"
            (Option.is_some resp);
          match (resp, t.retry_budget, rest) with
          | Some resp, _, _ ->
            Nk_telemetry.Metrics.incr t.metrics "peer-fetches";
            insert_if_cacheable t ~key req resp;
            resp
          (* Trying the next candidate is a retry of the upstream class:
             under a retry budget it must find a token, or the chain
             collapses straight to the origin. *)
          | None, Some rb, _ :: _ when budget > 1 ->
            if Nk_resource.Retry_budget.try_retry rb ~upstream:"peer" then
              try_peers (budget - 1) rest
            else from_origin ()
          | None, _, _ -> try_peers (budget - 1) rest)))
  in
  try_peers 2 (List.filter (fun peer -> peer <> name t) result.Nk_overlay.Dht.values)

(* Fetch content for [req] through the three tiers. *)
let content_fetch t ?(allow_peers = true) ?span ?deadline (req : Nk_http.Message.request) =
  let key = cache_key req in
  match cache_tier t ?span key with
  | Some resp -> resp
  | None -> (
    let from_origin () = origin_tier t ?span ?deadline key req in
    match t.dht with
    | Some dht when allow_peers -> peer_tier t dht ?span ?deadline key req ~from_origin
    | _ -> from_origin ())

(* --- host capabilities handed to vocabularies ----------------------- *)

let replica t site =
  match (Hashtbl.find_opt t.replicas site, t.bus) with
  | Some r, _ -> Some r
  | None, Some bus ->
    let r =
      Nk_replication.Replication.attach ~bus ~name:(name t) ~host:t.host ~store:t.store ~site
        Nk_replication.Replication.Optimistic
    in
    (* Re-converge after partitions that outlast the bus's retry budget:
       periodically re-broadcast everything this replica knows. *)
    if t.cfg.Config.anti_entropy_interval > 0.0 then
      Nk_replication.Replication.start_anti_entropy r
        ~interval:t.cfg.Config.anti_entropy_interval ();
    Hashtbl.add t.replicas site r;
    Some r
  | None, None -> None

(* Emission control (§3.2): hosted scripts' own web accesses pass the
   server-side administrative wall before leaving the node. The wall
   stage is loaded through the regular cached path; [load_wall] is tied
   in after stage loading is defined. *)
let emission_check t (req : Nk_http.Message.request) ~load_wall =
  match load_wall t with
  | None -> None
  | Some stage -> (
    match Nk_pipeline.Stage.select stage req with
    | None -> None
    | Some policy -> (
      match policy.Nk_policy.Policy.on_request with
      | None -> None
      | Some handler -> (
        match
          Nk_pipeline.Pipeline.run_handler stage ~this_request:req ~response:None handler
        with
        | Ok (Some denial) ->
          Nk_telemetry.Metrics.incr t.metrics "emission-denials";
          Some denial
        | Ok None -> None
        | Error _ -> Some (Nk_http.Message.error_response 500))))

let hostcall t ~site ~load_wall : Nk_vocab.Hostcall.t =
  let vocab_key key = Printf.sprintf "vocab:%s:%s" site key in
  (* Hard state goes through the site's replica when there is a bus,
     else straight to the local store. *)
  let hard_state via_replica local =
    match replica t site with Some r -> via_replica r | None -> local t.store
  in
  {
    Nk_vocab.Hostcall.now = (fun () -> now t);
    site;
    fetch =
      (fun req ->
        (* Hostcall closures are per-stage, not per-request: parent the
           script's own fetch at whatever request span currently owns
           the CPU (best effort under cothread interleaving). *)
        let resp =
          in_span t ?parent:t.active_span "script-fetch" [ ("site", site) ] (fun sp ->
              match emission_check t req ~load_wall with
              | Some denial ->
                set_attr sp "denied" "true";
                denial
              | None -> content_fetch t ?span:sp ?deadline:t.active_deadline req)
        in
        let bytes = float_of_int (Nk_http.Message.content_length resp) in
        charge t ~site Nk_resource.Resource.Bandwidth bytes;
        resp);
    cache_lookup =
      (fun key -> Nk_cache.Http_cache.lookup t.cache ~now:(now t) ~key:(vocab_key key));
    cache_store =
      (fun ~key ~ttl resp ->
        Nk_cache.Http_cache.insert t.cache ~now:(now t) ~key:(vocab_key key)
          ~expiry:(Some (now t +. ttl)) resp);
    log = (fun msg -> Logs.debug (fun m -> m "[%s/%s] %s" (name t) site msg));
    is_local =
      (fun ip_str ->
        match Nk_http.Ip.of_string ip_str with
        | Error _ -> false
        | Ok ip -> List.exists (fun cidr -> Nk_http.Ip.cidr_contains cidr ip) t.local_cidrs);
    congestion =
      (fun resource_name ->
        let resource =
          List.find_opt
            (fun r -> Nk_resource.Resource.to_string r = resource_name)
            Nk_resource.Resource.all
        in
        match resource with
        | Some r -> Nk_resource.Accounting.usage t.accounting ~site r
        | None -> 0.0);
    hard_state_get =
      (fun ~key ->
        hard_state (fun r -> Nk_replication.Replication.read r ~key) (fun store ->
            Nk_replication.Store.get store ~site ~key));
    hard_state_put =
      (fun ~key value ->
        hard_state (fun r -> Nk_replication.Replication.update r ~key ~value) (fun store ->
            Nk_replication.Store.put store ~site ~key value));
    hard_state_delete =
      (fun ~key ->
        hard_state (fun r -> Nk_replication.Replication.delete r ~key) (fun store ->
            Nk_replication.Store.delete store ~site ~key));
    hard_state_keys =
      (fun ~prefix ->
        hard_state (fun r -> Nk_replication.Replication.keys r ~prefix) (fun store ->
            Nk_replication.Store.keys store ~site ~prefix));
    publish =
      (fun ~topic payload ->
        match t.bus with
        | Some bus -> Nk_replication.Message_bus.publish bus ~from:(name t) ~topic ~payload
        | None -> ());
    enable_access_log = (fun ~url -> Hashtbl.replace t.log_urls site url);
  }

(* --- stage loading: fetch, evaluate, cache --------------------------- *)

let site_of_stage_url url =
  match Nk_http.Url.parse url with
  | Ok u -> Nk_http.Url.site u
  | Error _ -> "unknown"

(* Per-site sandbox caps lowered from a provisioning plan
   ([site "..." { fuel <= N; heap <= N }]): the effective limit is the
   global cap tightened by the first matching site rule. *)
let site_limit overrides ~site ~global =
  match Nk_resource.Shares.first_match overrides ~site with
  | Some v -> min global v
  | None -> global

(* Admission-time lint: analyze the fetched source (report cached by
   SHA-256 process-wide), export the diagnostic counts, and under strict
   mode refuse the stage before any script code runs. A refusal flows
   into the negative cache like any other script error. *)
let lint_stage t ?span ~url ~site source =
  match t.cfg.Config.lint_mode with
  | `Off -> Ok ()
  | (`Permissive | `Strict) as mode ->
    in_span t ?parent:span "script.lint" [ ("stage", url) ] (fun sp ->
        let report = Nk_analysis.Analysis.analyze_source source in
        let errors = Nk_analysis.Analysis.errors report in
        let warnings = Nk_analysis.Analysis.warnings report in
        set_attr sp "errors" (string_of_int errors);
        set_attr sp "warnings" (string_of_int warnings);
        let labels = [ ("site", site) ] in
        if errors > 0 then
          Nk_telemetry.Metrics.incr t.metrics ~labels ~by:errors "script.lint.errors";
        if warnings > 0 then
          Nk_telemetry.Metrics.incr t.metrics ~labels ~by:warnings "script.lint.warnings";
        if mode = `Strict && errors > 0 then begin
          set_attr sp "rejected" "true";
          let first =
            List.find
              (fun (d : Nk_analysis.Diagnostic.t) ->
                d.Nk_analysis.Diagnostic.severity = Nk_analysis.Diagnostic.Error)
              report.Nk_analysis.Analysis.diagnostics
          in
          Error
            (Printf.sprintf "%s: rejected by lint: %d error(s), first: %s" url errors
               (Nk_analysis.Diagnostic.to_string first))
        end
        else Ok ())

(* The stage installer, over a fetched source ([`Source], linted then
   compiled) or a program the compile cache already holds
   ([`Program (hash, program)]). It joins the site's replication group,
   wires the hostcalls, charges [cpu] (after the join, where the
   offload receiver has always paid it), builds the stage and caches it
   under [url] until the script response's expiry ([resp]) or
   [script_ttl]. A failure is negative-cached for [negative_ttl]. *)
let rec install_stage t ?span ?resp ?(cpu = 0.0) ~url ~site code =
  (* Join the site's replication group up front so updates published
     before this node's first hard-state access still arrive. *)
  ignore (replica t site);
  (* The administrative stages themselves are exempt from emission
     control (they *are* the control, and routing them through it would
     recurse). *)
  let load_wall t =
    if url = Nk_pipeline.Pipeline.well_known_server_wall then None
    else load_stage t Nk_pipeline.Pipeline.well_known_server_wall
  in
  let host = hostcall t ~site ~load_wall in
  let max_fuel = site_limit t.cfg.Config.site_fuel ~site ~global:t.cfg.Config.script_max_fuel in
  let max_heap_bytes =
    site_limit t.cfg.Config.site_heap ~site ~global:t.cfg.Config.script_max_heap
  in
  charge_cpu t cpu;
  let built =
    match code with
    | `Program (_, program) ->
      Nk_pipeline.Stage.of_program ~url ~host ~max_fuel ~max_heap_bytes
        ~seed:t.cfg.Config.seed program
    | `Source source ->
      Result.bind (lint_stage t ?span ~url ~site source) (fun () ->
          in_span t ?parent:span "script.compile" [ ("stage", url) ] (fun _ ->
              (* Whether this body was already compiled (by this or any
                 other simulated node in the process) or cost a fresh
                 parse+compile. *)
              let on_compile_cache outcome =
                Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("site", site) ]
                  (match outcome with
                   | `Hit -> "script.compile_cache.hits"
                   | `Miss -> "script.compile_cache.misses")
              in
              Nk_pipeline.Stage.of_script ~url ~host ~max_fuel ~max_heap_bytes
                ~seed:t.cfg.Config.seed ~on_compile_cache ~lint:`Off ~source ()))
  in
  match built with
  | Ok stage ->
    (* Context reuse reports the previous pipeline's consumption: fold
       it into the per-site fuel/heap histograms. *)
    Nk_script.Interp.set_usage_observer (Nk_pipeline.Stage.context stage)
      (fun ~fuel ~heap ->
        let labels = [ ("site", site) ] in
        if fuel > 0 then
          Nk_telemetry.Metrics.observe t.metrics ~labels "script.fuel" (float_of_int fuel);
        if heap > 0 then
          Nk_telemetry.Metrics.observe t.metrics ~labels "script.heap" (float_of_int heap));
    let expiry =
      match Option.bind resp (Nk_http.Message.response_expiry ~now:(now t)) with
      | Some e -> e
      | None -> now t +. t.cfg.Config.script_ttl
    in
    let hash =
      match code with `Program (hash, _) -> hash | `Source s -> Nk_crypto.Sha256.digest s
    in
    Nk_cache.Memo_cache.put t.stage_cache ~key:url ~expiry { stage; site; hash };
    Ok stage
  | Error msg as e ->
    Nk_telemetry.Metrics.incr t.metrics "script-errors";
    Logs.warn (fun m -> m "[%s] stage %s failed: %s" (name t) url msg);
    Nk_cache.Memo_cache.put t.negative ~key:url
      ~expiry:(now t +. t.cfg.Config.negative_ttl) ();
    e

and load_stage t ?span url =
  match Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url with
  | Some entry ->
    charge_cpu t
      (t.cfg.Config.costs.Config.tree_cached +. t.cfg.Config.costs.Config.context_reuse);
    (* Context reuse resets the usage counters (§4); like the prototype,
       a pipeline suspended mid-request shares the stage context, so the
       reset is best effort. *)
    Nk_script.Interp.reset_usage (Nk_pipeline.Stage.context entry.stage);
    Some entry.stage
  | None when Nk_cache.Memo_cache.find t.negative ~now:(now t) url <> None -> None
  | None when Result.is_error (Nk_http.Url.parse url) -> None
  | None ->
    in_span t ?parent:span "load-stage" [ ("stage", url) ] (fun sp ->
        (* Deliberately not under the request's deadline budget: a tight
           budget expiring a script fetch would negative-cache the site
           for [negative_ttl], degrading every later request. *)
        let resp = content_fetch t ?span:sp (Nk_http.Message.request url) in
        if not (Nk_http.Status.is_success resp.Nk_http.Message.status) then begin
          (* Remember that this site publishes no script (§4). *)
          Nk_cache.Memo_cache.put t.negative ~key:url
            ~expiry:(now t +. t.cfg.Config.negative_ttl) ();
          None
        end
        else begin
          let source = Nk_http.Body.to_string resp.Nk_http.Message.resp_body in
          let costs = t.cfg.Config.costs in
          charge_cpu t
            (costs.Config.context_create +. costs.Config.parse_base
            +. (costs.Config.parse_per_byte *. float_of_int (String.length source)));
          Result.to_option
            (install_stage t ?span:sp ~resp ~url ~site:(site_of_stage_url url) (`Source source))
        end)

(* --- request processing ---------------------------------------------- *)

let access_log t ~site ~(req : Nk_http.Message.request) ~(resp : Nk_http.Message.response) =
  if Hashtbl.mem t.log_urls site then begin
    let entry =
      Printf.sprintf "%.3f %s %s %d" (now t)
        (Nk_http.Ip.to_string req.Nk_http.Message.client.Nk_http.Ip.ip)
        (Nk_http.Url.to_string req.Nk_http.Message.url)
        resp.Nk_http.Message.status
    in
    match Hashtbl.find_opt t.log_entries site with
    | Some r -> r := entry :: !r
    | None -> Hashtbl.add t.log_entries site (ref [ entry ])
  end

let account t ~site ~cpu ~heap ~bytes ~elapsed =
  let charge = charge t ~site in
  charge Nk_resource.Resource.Cpu cpu;
  charge Nk_resource.Resource.Memory heap;
  charge Nk_resource.Resource.Bandwidth bytes;
  charge Nk_resource.Resource.Running_time elapsed;
  charge Nk_resource.Resource.Bytes_transferred bytes

(* Process one client request inside a cothread; returns the response
   plus the interpreter fuel and heap the pipeline consumed (offload
   replies ship those, so a remote execution stays accountable). *)
let process t ?span ?deadline (req : Nk_http.Message.request) =
  let started = now t in
  let site = Nk_http.Url.site req.Nk_http.Message.url in
  let costs = t.cfg.Config.costs in
  let epoch = incarnation t in
  let count = match t.in_flight with e, n when e = epoch -> n + 1 | _ -> 1 in
  t.in_flight <- (epoch, count);
  let concurrency = float_of_int count *. costs.Config.concurrency_cpu in
  (* Leaves once, on success or on a pipeline exception; a straggler
     from an incarnation that has since crashed has nothing to leave. *)
  let leave () =
    match t.in_flight with e, n when e = epoch -> t.in_flight <- (e, n - 1) | _ -> ()
  in
  Option.iter
    (fun d ->
      set_attr span "deadline_remaining"
        (Printf.sprintf "%.4f" (Nk_resource.Deadline.remaining d ~now:(now t))))
    deadline;
  (* Expose this request's span to the hostcall closures while the
     pipeline runs (best effort: restored even on exceptions, but a
     suspended pipeline's sub-fetches may interleave). The deadline
     budget rides the same way so scripts' own fetches run under it. *)
  let saved = t.active_span in
  let saved_deadline = t.active_deadline in
  t.active_span <- span;
  t.active_deadline <- deadline;
  let pipeline () =
    if not t.cfg.Config.enable_pipeline then (content_fetch t ?span ?deadline req, 0, 0, 0)
    else begin
      let outcome =
        Nk_pipeline.Pipeline.execute
          ~load_stage:(fun url ->
            let stage = load_stage t ?span url in
            if Option.is_some stage then charge_cpu t costs.Config.predicate_eval;
            stage)
          ~fetch:(fun req -> content_fetch t ?span ?deadline req)
          ?telemetry:(Option.map (fun s -> (t.tracer, s)) span)
          req
      in
      set_attr span "source"
        (match outcome.Nk_pipeline.Pipeline.source with
         | Nk_pipeline.Pipeline.From_failure Nk_pipeline.Pipeline.Killed ->
           Nk_telemetry.Metrics.incr t.metrics "dropped-termination";
           "killed"
         | Nk_pipeline.Pipeline.From_failure _ ->
           Nk_telemetry.Metrics.incr t.metrics "script-errors";
           "failure"
         | Nk_pipeline.Pipeline.From_script stage_url -> "script:" ^ stage_url
         | Nk_pipeline.Pipeline.From_origin -> "origin");
      ( outcome.Nk_pipeline.Pipeline.response,
        outcome.Nk_pipeline.Pipeline.fuel,
        outcome.Nk_pipeline.Pipeline.heap,
        outcome.Nk_pipeline.Pipeline.handlers_run )
    end
  in
  let response, fuel, heap, handlers =
    match
      Fun.protect pipeline ~finally:(fun () ->
          t.active_span <- saved;
          t.active_deadline <- saved_deadline)
    with
    | result -> result
    | exception exn ->
      leave ();
      raise exn
  in
  (* Handler CPU: engine crossings, interpreter fuel, and allocation
     (GC/paging) pressure. *)
  let handler_cpu =
    (float_of_int fuel *. costs.Config.handler_per_fuel)
    +. (float_of_int heap *. costs.Config.heap_cpu_per_byte)
  in
  let crossing_cpu = float_of_int handlers *. costs.Config.handler_invoke in
  charge_cpu t handler_cpu;
  (* Bookkeeping, engine crossings and concurrency (scheduling/paging)
     pressure occupy the CPU — limiting capacity — but overlap this
     request's network time rather than delaying its response. *)
  charge_cpu_background t (costs.Config.proxy_base +. concurrency +. crossing_cpu);
  leave ();
  let elapsed = now t -. started in
  let bytes = float_of_int (Nk_http.Message.content_length response) in
  account t ~site
    ~cpu:(costs.Config.proxy_base +. concurrency +. handler_cpu +. crossing_cpu)
    ~heap:(float_of_int heap) ~bytes ~elapsed;
  access_log t ~site ~req ~resp:response;
  Nk_telemetry.Metrics.observe t.metrics "latency" elapsed;
  let labels = [ ("site", site) ] in
  Nk_telemetry.Metrics.incr t.metrics ~labels "site.requests";
  Nk_telemetry.Metrics.observe t.metrics ~labels "site.latency" elapsed;
  (response, fuel, heap)

(* --- the request path's shared steps ---------------------------------- *)

(* Receiver-side deadline shed, for peer and offload requests alike: a
   carried budget below our queue-delay estimate (or already spent)
   cannot be served in time, and refusing now frees the sender to try
   elsewhere within the budget. [Error spent] says which it was. *)
let receiver_deadline t req =
  match Nk_resource.Deadline.of_request ~now:(now t) req with
  | Some d
    when Nk_resource.Deadline.remaining d ~now:(now t) <= Nk_sim.Net.cpu_backlog t.net t.host
    ->
    Error (Nk_resource.Deadline.expired d ~now:(now t))
  | deadline -> Ok deadline

(* Admission control: the host's CPU backlog is the queueing delay a
   newly admitted request would see. [Ok release] frees the slot;
   [Error (retry_after, reason)] is a shed. *)
let admit t ~site =
  match t.admission with
  | None -> Ok ignore
  | Some adm -> (
    match
      Nk_resource.Admission.offer adm ~site ~queue_delay:(Nk_sim.Net.cpu_backlog t.net t.host)
    with
    | Nk_resource.Admission.Admitted -> Ok (fun () -> Nk_resource.Admission.release adm ~site)
    | Nk_resource.Admission.Shed { retry_after; reason } -> Error (retry_after, reason))

(* Serve a request the node has taken on: open its span, run [work] in a
   cothread, then free the admission slot, count the response, let
   [edit] touch it, close the span and [reply]. If [work] raises, [fail]
   answers instead; [errors] names the failure for the log and counts a
   script error, while [None] (the peer path) only marks the span. *)
let serve t span_name ?(attrs = []) ?(release = ignore) ?(edit = ignore)
    ?(errors = Some "pipeline error") req work ~reply ~fail =
  let span = start_request_span t span_name req in
  List.iter (fun (k, v) -> set_attr span k v) attrs;
  Nk_util.Cothread.spawn
    (fun () -> work span)
    ~on_done:(fun ((resp, _, _) as result) ->
      release ();
      Nk_telemetry.Metrics.incr t.metrics "responses";
      edit resp;
      finish_span t span ~attrs:[ ("status", string_of_int resp.Nk_http.Message.status) ];
      reply result)
    ~on_error:(fun exn ->
      release ();
      let error =
        match errors with
        | None -> "true"
        | Some what ->
          Nk_telemetry.Metrics.incr t.metrics "script-errors";
          Logs.warn (fun m -> m "[%s] %s: %s" (name t) what (Printexc.to_string exn));
          Printexc.to_string exn
      in
      finish_span t span ~attrs:[ ("error", error) ];
      fail ())

(* An answer given without serving the request still gets a one-span
   trace: admission decisions are part of "where did this request's
   time go?". *)
let answer_early t req k ~outcome resp =
  finish_span t (start_request_span t "request" req)
    ~attrs:[ ("outcome", outcome); ("status", string_of_int resp.Nk_http.Message.status) ];
  k resp

(* The front-door gates, in order: a quarantined site's ban window (the
   503 says when trying again might succeed), the monitor's throttle
   draw, and a budget spent before we could do anything. [Some (outcome,
   answer)] refuses the request without taking a queue slot. *)
let gate t ~site deadline =
  if Nk_resource.Quarantine.is_banned t.quarantine ~site then begin
    Nk_telemetry.Metrics.incr t.metrics "dropped-termination";
    Some
      ("banned-site", retry_after_response (Nk_resource.Quarantine.remaining t.quarantine ~site))
  end
  else if
    (* Without resource controls there is no monitor, the fraction is
       0 and nothing is drawn. *)
    let fraction =
      match t.monitor with
      | Some m -> Nk_resource.Monitor.throttle_fraction m ~site
      | None -> 0.0
    in
    fraction > 0.0 && Nk_util.Prng.float t.rng 1.0 < fraction
  then begin
    Nk_telemetry.Metrics.incr t.metrics "rejected-throttle";
    Some ("rejected-throttle", Nk_http.Message.error_response 503)
  end
  else if expired t deadline then
    Some ("deadline-admission", deadline_expired_response t ~at:"admission")
  else None

(* §3.1: a Range request is processed on the entire instance (the
   pipeline may transcode it); the slice, parsed on arrival, is cut out
   only for the final client response. *)
let slice_range t req =
  let range = Option.bind (Nk_http.Message.req_header req "Range") Nk_http.Range.parse in
  fun resp ->
    Option.iter
      (fun r -> if Nk_http.Range.apply r resp then Nk_telemetry.Metrics.incr t.metrics "range-responses")
      range

(* The §6 threat: a node that arbitrarily modifies cached content
   before serving it to its peers. *)
let falsify t resp =
  if t.cfg.Config.misbehaving then
    Nk_http.Message.set_body resp
      (Nk_util.Strutil.replace_all
         (Nk_http.Body.to_string resp.Nk_http.Message.resp_body)
         ~sub:"content" ~by:"FALSIFIED")

(* --- computation diffusion (C3PO over the health plane) --------------- *)

(* The stage-status lookup: the name of the work this site's requests
   would run, offloadable only once known locally. [Some hash] when the
   stage is cached (a previous request warmed it), [Some ""] when the
   site is known to publish no script (walls-only pipeline), [None] when
   we have never looked — the first request must execute here and warm
   the caches. *)
let offload_hash t site =
  let url = Nk_pipeline.Pipeline.site_script_url site in
  match Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url with
  | Some entry -> Some entry.hash
  | None when Nk_cache.Memo_cache.find t.negative ~now:(now t) url <> None -> Some ""
  | None -> None

(* Decide whether this request should diffuse. Entirely inert when
   diffusion is disabled — no rng draws, no metrics — so a disabled node
   behaves bit-identically to one built before diffusion existed. *)
let offload_plan t ~site =
  match t.diffusion with
  | None -> None
  | Some d -> (
    let p = pressure t in
    if p < t.cfg.Config.diffusion_low_water then None
    else
      match offload_hash t site with
      | None -> None
      | Some script_hash -> (
        let candidates =
          Nk_diffusion.Neighbors.candidates d.neighbors ~now:(now t)
            ~staleness:t.cfg.Config.diffusion_staleness
            ~fanout:t.cfg.Config.diffusion_fanout
        in
        match
          Nk_diffusion.Policy.decide ~pressure:p
            ~low_water:t.cfg.Config.diffusion_low_water ~candidates
        with
        | Nk_diffusion.Policy.Local -> None
        | Nk_diffusion.Policy.Offload eligible ->
          Option.map
            (fun target -> (d, p, script_hash, target))
            (Nk_diffusion.Policy.pick ~rng:t.rng eligible)))

(* Ship the request to [target]; any failure — open breaker, rejection,
   timeout — falls back to [fallback] (the normal local admission path),
   so diffusion can never lose a request, only decline to help. *)
let attempt_offload t ~site ~plan:(d, p, script_hash, target) ?deadline req k ~fallback =
  let target_name = target.Nk_diffusion.Neighbors.name in
  let fall_back reason =
    Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("reason", reason) ]
      "diffusion.fallbacks";
    fallback ()
  in
  let breaker = breaker_for t ("offload:" ^ target_name) in
  match Nk_resource.Breaker.acquire breaker with
  | `Reject _ ->
    Nk_telemetry.Metrics.incr t.metrics "breaker-short-circuits";
    fall_back "breaker-open"
  | `Proceed ->
    let span = start_request_span t "request" req in
    set_attr span "pressure" (Printf.sprintf "%.3f" p);
    let ospan =
      Option.map
        (fun s ->
          Nk_telemetry.Tracer.start_span t.tracer ~parent:s
            ~attrs:[ ("target", target_name) ]
            "offload")
        span
    in
    let slice = slice_range t req in
    (* A fallback closes both spans; the local path opens its own. *)
    let give_up ~outcome reason =
      finish_span t ospan ~attrs:[ ("outcome", outcome) ];
      finish_span t span ~attrs:[ ("source", "offload-fallback") ];
      fall_back reason
    in
    (* The envelope ships the request's headers, so stamping the
       remaining budget here propagates it to the offload target; the
       reply timeout shrinks to the budget for the same reason the
       per-hop fetch timeouts do. *)
    stamp t deadline req;
    Nk_diffusion.Offload.send d.offload ~target:target_name
      ~target_incarnation:target.Nk_diffusion.Neighbors.incarnation ~site ~script_hash
      ~timeout:(hop_timeout t deadline t.cfg.Config.diffusion_offload_timeout)
      ~request:req
      ~on_done:(function
        | Some (Nk_diffusion.Offload.Executed { response; fuel = _; heap = _ }) ->
          Nk_resource.Breaker.success breaker;
          Nk_telemetry.Metrics.incr t.metrics
            ~labels:[ ("target", target_name) ]
            "diffusion.offloads";
          Nk_telemetry.Metrics.incr t.metrics "responses";
          slice response;
          finish_span t ospan ~attrs:[ ("outcome", "executed") ];
          finish_span t span
            ~attrs:
              [
                ("status", string_of_int response.Nk_http.Message.status);
                ("source", "offload:" ^ target_name);
              ];
          k response
        | Some (Nk_diffusion.Offload.Rejected reason) ->
          (* The target answered: it is alive, just unwilling. Not a
             breaker failure — tripping on a loaded-but-healthy neighbor
             would blind us to it for a whole cooldown. *)
          Nk_resource.Breaker.success breaker;
          give_up ~outcome:("rejected:" ^ reason) "rejected"
        | None ->
          Nk_resource.Breaker.failure breaker;
          give_up ~outcome:"timeout" "timeout")

(* Receiver side: resolve the shipped hash to a runnable stage before
   the pipeline goes looking for a script. Runs inside the request's
   cothread (the hash-miss path awaits a bounded origin fetch). *)
let resolve_offload_stage t (env : Nk_diffusion.Offload.request_envelope) =
  let site = env.Nk_diffusion.Offload.site in
  let url = Nk_pipeline.Pipeline.site_script_url site in
  match (env.Nk_diffusion.Offload.script_hash, offload_hash t site) with
  | "", None ->
    (* The sender knows the site publishes no script; spare the pipeline
       the origin probe it would otherwise pay to learn the same. *)
    Nk_cache.Memo_cache.put t.negative ~key:url ~expiry:(now t +. t.cfg.Config.negative_ttl) ()
  | "", Some _ -> ()
  (* Every cached stage carries its (non-empty) hash. *)
  | _, Some known when known <> "" -> ()
  | hash, _ -> (
    match Nk_script.Compile.find_cached_by_hash hash with
    | Some program ->
      (* Installed straight from the compiled program: no source, no
         parse, no lint (the node that compiled it linted it). *)
      ignore
        (install_stage t ~cpu:t.cfg.Config.costs.Config.context_create ~url ~site
           (`Program (hash, program)))
    | None -> (
      (* Hash miss: the program fell out of the (LRU-bounded) compile
         cache, or was never compiled in this process. Fetch the script
         from the origin under its own — short — deadline and warm the
         HTTP cache so the pipeline's stage load finds it without paying
         [origin_timeout]. *)
      Nk_telemetry.Metrics.incr t.metrics "diffusion.hash_misses";
      let req = Nk_http.Message.request url in
      match
        await_fetch_opt t ~via:None ~timeout:t.cfg.Config.diffusion_fetch_timeout req
      with
      | Some resp when Nk_http.Status.is_success resp.Nk_http.Message.status ->
        insert_if_cacheable t ~key:(cache_key req) req resp
      | _ -> ()))

let handle_offload_request t d ~payload =
  match Nk_diffusion.Offload.decode_request_envelope payload with
  | Error msg ->
    Logs.debug (fun m -> m "[%s] undecodable offload request: %s" (name t) msg)
  | Ok env -> (
    let site = env.Nk_diffusion.Offload.site in
    let req = env.Nk_diffusion.Offload.request in
    let reject reason =
      Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("reason", reason) ]
        "diffusion.rejects";
      Nk_diffusion.Offload.reply d.offload ~to_:env (Nk_diffusion.Offload.Rejected reason)
    in
    (* The sender addressed an incarnation of us that no longer exists:
       whatever it believed about our load died with it. *)
    if env.Nk_diffusion.Offload.target_incarnation <> incarnation t then
      reject "incarnation"
    else if Nk_resource.Quarantine.is_banned t.quarantine ~site then reject "banned-site"
    else if pressure t >= t.cfg.Config.diffusion_high_water then reject "pressure"
    else
      match receiver_deadline t req with
      | Error spent ->
        Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("at", "offload") ]
          "deadline.expired";
        reject (if spent then "deadline-expired" else "deadline-queue")
      | Ok deadline -> (
        match admit t ~site with
        | Error (_, reason) -> reject ("admission-" ^ reason)
        | Ok release ->
          serve t "offload-request" req
            ~attrs:[ ("origin", env.Nk_diffusion.Offload.origin_node) ]
            ~release ~errors:(Some "offloaded pipeline error")
            (fun span ->
              resolve_offload_stage t env;
              process t ?span ?deadline req)
            ~reply:(fun (response, fuel, heap) ->
              Nk_diffusion.Offload.reply d.offload ~to_:env
                (Nk_diffusion.Offload.Executed { response; fuel; heap }))
            ~fail:(fun () -> reject "error")))

(* The request path, in order. A peer request (another node's
   cooperative-cache fetch) passes the receiver deadline shed and is
   served straight from cache or origin: no pipeline, no further DHT
   consultation (avoids routing loops). A client request passes the
   front-door gates, may diffuse to a less pressured neighbor, and is
   otherwise admitted and served here. *)
let handle t (req : Nk_http.Message.request) k =
  Nk_telemetry.Metrics.incr t.metrics "requests";
  let reply (resp, _, _) = k resp in
  let fail () = k (Nk_http.Message.error_response 500) in
  if Nk_http.Message.req_header req peer_header <> None then
    match receiver_deadline t req with
    | Error spent ->
      Nk_telemetry.Metrics.incr t.metrics "responses";
      k (deadline_expired_response t ~at:(if spent then "peer" else "peer-queue"))
    | Ok deadline ->
      serve t "peer-request" req ~edit:(falsify t) ~errors:None
        (fun span -> (content_fetch t ~allow_peers:false ?span ?deadline req, 0, 0))
        ~reply ~fail
  else begin
    (* Strip the .nakika.net suffix clients use to reach us (§3). *)
    Option.iter
      (fun origin -> req.Nk_http.Message.url <- origin)
      (Nk_http.Url.of_nakika req.Nk_http.Message.url);
    let site = Nk_http.Url.site req.Nk_http.Message.url in
    (* The request's deadline budget: minted here from
       [request_deadline], or carried in from an upstream Na Kika node,
       whichever is tighter. [None] (the default config, no header)
       leaves every downstream path as it was before deadlines existed. *)
    let deadline =
      Nk_resource.Deadline.admit ~now:(now t) ~budget:t.cfg.Config.request_deadline req
    in
    let local () =
      match admit t ~site with
      | Error (retry_after, reason) ->
        Nk_telemetry.Metrics.incr t.metrics "admission-sheds";
        answer_early t req k ~outcome:("admission-" ^ reason) (retry_after_response retry_after)
      | Ok release ->
        serve t "request" req ~release ~edit:(slice_range t req)
          (fun span -> process t ?span ?deadline req)
          ~reply ~fail
    in
    match gate t ~site deadline with
    | Some (outcome, resp) -> answer_early t req k ~outcome resp
    (* Diffusion sits after the gates but before admission: an offloaded
       request never takes a local queue slot, which is exactly the
       relief a pressured node needs. *)
    | None -> (
      match offload_plan t ~site with
      | None -> local ()
      | Some plan -> attempt_offload t ~site ~plan ?deadline req k ~fallback:local)
  end

(* --- congestion control (Fig. 6) ------------------------------------ *)

(* The one Fig. 6 action only a node can take: kill the scripting
   contexts of the site's cached stage (in-flight pipelines die at their
   next evaluation step) and refuse the site's requests for an
   escalating, decaying ban window — repeat offenders wait longer,
   reformed ones recover. *)
let terminate_site ~stage_cache ~quarantine ~now ~site =
  let url = Nk_pipeline.Pipeline.site_script_url site in
  (match Nk_cache.Memo_cache.find stage_cache ~now url with
   | Some entry when entry.site = site ->
     Nk_script.Interp.kill (Nk_pipeline.Stage.context entry.stage);
     Nk_cache.Memo_cache.remove stage_cache url
   | _ -> ());
  ignore (Nk_resource.Quarantine.punish quarantine ~site)

(* --- periodic upkeep and access-log posting (§3.3) ---------------------- *)

(* Run [f] every [period] seconds, first one period from now, on daemon
   events: periodic upkeep never keeps a simulation alive. *)
let every t period f =
  let rec cycle () =
    f ();
    Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:period cycle
  in
  Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:period cycle

(* Soft-state maintenance: DHT announcements are TTL'd ([dht_ttl]),
   typically shorter than cached entries' lifetimes; re-announce fresh
   cache contents so cooperative caching keeps finding them (Coral-style
   refresh). *)
let start_reannouncer t dht =
  every t (Float.max 5.0 (t.cfg.Config.dht_ttl /. 2.0)) (fun () ->
      Nk_cache.Http_cache.fold_fresh t.cache ~now:(now t) ~init:()
        ~f:(fun () key expiry ->
          let ttl = Float.min t.cfg.Config.dht_ttl (expiry -. now t) in
          if ttl > 0.0 then
            ignore (Nk_overlay.Dht.put dht ~now:(now t) ~from:(name t) ~key ~value:(name t) ~ttl)))

(* Expired sloppy placements otherwise die only lazily, on the next
   lookup of their own key: a crowd that moves on leaves its copies
   pinned on the holders until someone asks again. Sweeping on half
   the placement TTL makes reconvergence a property of the clock, not
   of lookup luck. Every hotspot-enabled node runs one against the
   shared index, so the sweeps of one instant repeat each other;
   [Dht.sweep] skips a repeat when no rate or placement has changed
   since, so the extra ones cost a comparison. *)
let start_dht_sweeper t dht =
  every t (Float.max 1.0 (t.cfg.Config.hotspot_ttl /. 2.0)) (fun () ->
      Nk_overlay.Dht.sweep dht ~now:(now t))

let start_log_poster t =
  every t 30.0 (fun () ->
      Hashtbl.iter
        (fun site url ->
          match Hashtbl.find_opt t.log_entries site with
          | Some entries when !entries <> [] ->
            let body = String.concat "\n" (List.rev !entries) in
            entries := [];
            let req = Nk_http.Message.request ~meth:Nk_http.Method_.POST ~body url in
            Nk_sim.Httpd.fetch t.web ~from:t.host req (fun _ ->
                Nk_telemetry.Metrics.incr t.metrics "log-posts")
          | _ -> ())
        t.log_urls)

(* Publish the node's own load view as gauges every report interval, so
   [nakika stats --health] and merged benchmark registries can show
   per-node overload state without poking node internals. *)
let start_health_gauges t =
  let period = t.cfg.Config.health_report_interval in
  if period > 0.0 then begin
    let was_down = ref false in
    every t period (fun () ->
        let down = Nk_sim.Net.host_down t.net t.host in
        (* Requests admitted before a crash died with the host: their
           queue slots must not haunt admission after restart. *)
        if !was_down && not down then
          Option.iter Nk_resource.Admission.reset t.admission;
        was_down := down;
        if not down then begin
          let h = health t in
          let set = Nk_telemetry.Metrics.set_gauge t.metrics in
          set "health.queue_delay" h.queue_delay;
          set "health.shed_rate" h.shed_rate;
          set "health.open_breakers" (float_of_int (List.length h.open_breakers));
          set "health.quarantined_sites" (float_of_int (List.length h.quarantined));
          if Option.is_some t.diffusion then set "diffusion.pressure" (pressure t)
        end)
  end

let create ~web ~host ?dht ?bus ?(config = Config.default) () =
  let net = Nk_sim.Httpd.net web in
  let sim = Nk_sim.Net.sim net in
  let clock () = Nk_sim.Sim.now sim in
  let metrics = Nk_telemetry.Metrics.create () in
  let node_name = Nk_sim.Net.host_name host in
  (* Startup validation with the same checker core the provisioning
     verifier runs: a node never silently accepts inverted waters, a
     non-positive admission capacity, or an oversubscribed share table
     — it refuses to construct. *)
  (match Config.validate config with
  | [] -> ()
  | problems ->
    invalid_arg
      (Printf.sprintf "Node.create %s: invalid config: %s" node_name
         (String.concat "; " problems)));
  let diffusion =
    match bus with
    | Some b when config.Config.enable_diffusion ->
      Some
        {
          neighbors = Nk_diffusion.Neighbors.create ();
          offload =
            Nk_diffusion.Offload.create ~name:node_name
              ~incarnation:(fun () -> host_incarnation net host)
              ~clock
              (* Non-daemon: a pending offload's timeout is the fallback
                 guarantee, so it must fire even when the target's crash
                 has left no other events (a daemon timer would let the
                 simulation drain and strand the request). *)
              ~schedule:(fun delay k -> Nk_sim.Sim.schedule sim ~delay k)
              ~publish:(fun ~topic ~payload ->
                Nk_replication.Message_bus.publish b ~from:node_name ~topic ~payload)
              ~metrics ();
        }
    | _ -> None
  in
  let stage_cache = Nk_cache.Memo_cache.create () in
  let accounting = Nk_resource.Accounting.create () in
  let quarantine =
    Nk_resource.Quarantine.create ~base:config.Config.termination_penalty
      ~max_window:config.Config.quarantine_max ~decay:config.Config.quarantine_decay
      ~site_params:config.Config.site_quarantine ~clock ~metrics ()
  in
  let events = Nk_telemetry.Events.create ~clock () in
  let monitor =
    if config.Config.enable_resource_controls then
      Some
        (Nk_resource.Monitor.create ~accounting
           ~cpu_congestion_backlog:config.Config.cpu_congestion_backlog
           ~memory_congestion_bytes:config.Config.memory_congestion_bytes
           ~bandwidth_congestion_bytes:config.Config.bandwidth_congestion_bytes
           ~control_interval:config.Config.control_interval
           ~control_timeout:config.Config.control_timeout
           ~cpu_backlog:(fun () -> Nk_sim.Net.cpu_backlog net host)
           ~clock
           ~schedule:(fun delay k -> Nk_sim.Sim.schedule sim ~daemon:true ~delay k)
           ~terminate:(fun ~site -> terminate_site ~stage_cache ~quarantine ~now:(clock ()) ~site)
           ~events ~metrics ())
    else None
  in
  let t =
    {
      web;
      net;
      sim;
      host;
      dht = (if config.Config.enable_dht then dht else None);
      bus;
      cfg = config;
      rng = Nk_util.Prng.create (config.Config.seed + String.length (Nk_sim.Net.host_name host));
      cache = Nk_cache.Http_cache.create ~max_bytes:config.Config.cache_bytes ();
      stage_cache;
      negative = Nk_cache.Memo_cache.create ();
      accounting;
      monitor;
      quarantine;
      admission =
        (if config.Config.enable_admission then
           Some
             (Nk_resource.Admission.create ~target:config.Config.admission_target
                ~interval:config.Config.admission_interval
                ~capacity:config.Config.admission_capacity
                ~shares:(Nk_resource.Shares.create config.Config.site_shares)
                ~clock ~metrics ())
         else None);
      diffusion;
      breakers = Hashtbl.create 8;
      hedge =
        (if config.Config.enable_hedging then
           Some (Nk_resource.Hedge.create ~rate:config.Config.hedge_rate ~metrics ())
         else None);
      retry_budget =
        (if config.Config.retry_budget_ratio > 0.0 then
           Some
             (Nk_resource.Retry_budget.create ~ratio:config.Config.retry_budget_ratio
                ~metrics ())
         else None);
      store = Nk_replication.Store.create ();
      replicas = Hashtbl.create 4;
      log_urls = Hashtbl.create 4;
      log_entries = Hashtbl.create 4;
      metrics;
      tracer = Nk_telemetry.Tracer.create ~capacity:config.Config.trace_capacity ~clock ();
      events;
      active_span = None;
      active_deadline = None;
      local_cidrs =
        (* [Config.validate] above rejected every entry that fails to parse. *)
        List.map
          (fun s -> Result.get_ok (Nk_http.Ip.cidr_of_string s))
          config.Config.local_clients;
      in_flight = (0, 0);
    }
  in
  Nk_cache.Http_cache.set_metrics t.cache metrics;
  Nk_sim.Httpd.serve web ~host ~hostnames:[ Nk_sim.Net.host_name host ] (fun req k ->
      handle t req k);
  Option.iter
    (fun dht ->
      ignore (Nk_overlay.Dht.join dht (name t));
      start_reannouncer t dht;
      if config.Config.enable_hotspots then start_dht_sweeper t dht)
    t.dht;
  Option.iter Nk_resource.Monitor.start t.monitor;
  (* The offload protocol rides the bus: each node owns a request topic
     (work addressed to it) and a reply topic (answers to work it
     shipped). Point-to-point semantics over pub/sub, with the bus's
     acked-retry reliability for free. *)
  (match (t.diffusion, bus) with
   | Some d, Some b ->
     Nk_replication.Message_bus.attach b ~name:node_name ~host;
     Nk_replication.Message_bus.subscribe b ~name:node_name
       ~topic:(Nk_diffusion.Offload.reply_topic node_name)
       ~handler:(fun ~payload ~from:_ ->
         Nk_diffusion.Offload.handle_reply d.offload ~payload);
     Nk_replication.Message_bus.subscribe b ~name:node_name
       ~topic:(Nk_diffusion.Offload.request_topic node_name)
       ~handler:(fun ~payload ~from:_ -> handle_offload_request t d ~payload)
   | _ -> ());
  start_log_poster t;
  start_health_gauges t;
  t
