(* The benchmark's workloads: topology, content, the reference body of
   every request, and the open-loop request streams.

   A workload is built in two steps. [prepare] computes the reference
   bodies the response checks compare against; it is bench work, so it
   runs before the set-up clock starts. The builder it returns creates
   the cluster and installs the content, which is what set-up time
   measures. Every request a run issues is drawn from PRNGs seeded by
   the workload seed; the cluster's own seed is fixed, so the program
   under test sees nothing of the seed but the requests. *)

module Cluster = Core.Node.Cluster
module Node = Core.Node.Node
module Origin = Core.Node.Origin
module Config = Core.Node.Config
module Message = Core.Http.Message
module Prng = Core.Util.Prng
module Net = Core.Sim.Net
module Plan = Core.Faults.Plan

let epoch = 1_136_073_600.0

(* What a correct 200 carries. Replicated hard state can make two
   answers legal (a read that races the write's replication). *)
type expect = Exact of string | One_of of string list

type request = {
  req : Message.request;
  client : Net.host;
  proxy : Node.t option; (* pinned edge node; [None]: DNS redirection picks *)
  expect : expect;
  kind : string; (* request class, for the per-class failure report *)
}

(* One open-loop stream: arrivals at [rate] per simulated second while
   the stream is on, with Poisson gaps or, when [paced], fixed spacing
   (the seed then only picks what each request asks for). [on t] is the
   first instant >= [t] at which the stream is on. *)
type stream = {
  rate : float;
  paced : bool;
  on : float -> float;
  draw : Prng.t -> request;
}

type t = {
  cluster : Cluster.t;
  proxies : Node.t array;
  origins : Origin.t array;
  streams : stream list;
  start : float; (* first arrival *)
  warmup : float; (* simulated seconds of unmeasured load *)
  measure : float; (* simulated seconds of measured arrivals *)
  limit : float; (* latency limit for goodput *)
  timeout : float; (* client patience: a synthesized 504 after this *)
  clients : Net.host array;
  bypassed : string list; (* layers this workload's configuration turns off *)
}

type spec = {
  name : string;
  prepare : unit -> seed:int -> tracing:bool -> t;
}

let always t = t

(* Tracing settings: traced runs keep enough completed traces per node
   ([capacity]) that the bench's poller never loses one between two
   polls. *)
let traced ?(capacity = 4096) config tracing =
  {
    config with
    Config.enable_tracing = tracing;
    trace_capacity = (if tracing then capacity else 16);
  }

let zipf_path r = Printf.sprintf "/zipf/%d.html" r
let zipf_body r = Printf.sprintf "<html>zipf rank %d</html>" r

(* --- zipf-1k ----------------------------------------------------------- *)

(* 1000 edge nodes, one client beside each, one signed origin with 10k
   static URLs; the ROADMAP's planet-scale arm with integrity checks on
   every peer-served copy. *)
let zipf_1k =
  let universe = 10_000 and nodes = 1000 and key = "crowd-publisher-key" in
  let site = "www.crowd.example" in
  let prepare () =
    let bodies = Array.init universe zipf_body in
    let urls = Array.init universe (fun r -> Printf.sprintf "http://%s%s" site (zipf_path r)) in
    let zipf = Core.Workload.Zipf.create ~s:0.9 ~universe in
    fun ~seed ~tracing ->
      let cluster =
        Cluster.create ~seed:4242 ~default_latency:0.005 ~default_bandwidth:12_500_000.0 ()
      in
      let origin = Cluster.add_origin cluster ~name:site ~sign_key:key () in
      Array.iteri
        (fun r body -> Origin.set_static origin ~path:(zipf_path r) ~max_age:600 body)
        bodies;
      let config =
        traced
          {
            Config.default with
            Config.enable_pipeline = false;
            enable_resource_controls = false;
            enable_admission = false;
            lint_mode = `Off;
            integrity_key = Some key;
            enable_hotspots = true;
            hotspot_threshold = 5.0;
            hotspot_replicas = 4;
            hotspot_ttl = 60.0;
            hotspot_halflife = 5.0;
          }
          tracing ~capacity:256
      in
      let proxies =
        Array.init nodes (fun i ->
            Cluster.add_proxy cluster ~name:(Printf.sprintf "edge-%04d.nakika.net" i) ~config ())
      in
      (* Each client's last mile to its own edge is 0.2-1.0 ms, drawn
         from the seed, vs 5 ms cross traffic: the redirector's close
         set pins the client there. *)
      let last_mile = Prng.create (seed + 17) in
      let clients =
        Array.mapi
          (fun i proxy ->
            let c = Cluster.add_client cluster ~name:(Printf.sprintf "client-%04d" i) in
            Cluster.connect cluster c (Node.host proxy)
              ~latency:(0.0002 +. Prng.float last_mile 0.0008)
              ~bandwidth:12_500_000.0;
            c)
          proxies
      in
      let draw rng =
        let rank = Core.Workload.Zipf.sample zipf rng in
        {
          req = Message.request urls.(rank);
          client = clients.(Prng.int rng nodes);
          proxy = None;
          expect = Exact bodies.(rank);
          kind = "zipf";
        }
      in
      {
        cluster;
        proxies;
        origins = [| origin |];
        streams = [ { rate = 1200.0; paced = false; on = always; draw } ];
        start = epoch +. 2.0;
        warmup = 5.0;
        measure = 20.0;
        limit = 0.05;
        timeout = 10.0;
        clients;
        bypassed =
          [ "nk_resource"; "nk_diffusion"; "nk_pipeline"; "nk_policy"; "nk_script"; "nk_vocab";
            "nk_replication" ];
      }
  in
  { name = "zipf-1k"; prepare }

(* --- edge-scripts ------------------------------------------------------ *)

module Simm = Core.Workload.Simm
module Specweb = Core.Workload.Specweb

(* Reference models of the two tenants' content, written from their
   specification rather than read back from the origin. *)
let video_body k =
  let buf = Buffer.create Simm.video_bytes in
  let rng = Prng.create (1000 + k) in
  while Buffer.length buf < Simm.video_bytes do
    Buffer.add_char buf (Char.chr (Prng.int rng 256))
  done;
  Buffer.contents buf

let specweb_static_body i =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "<html><head><title>File %d</title></head><body>" i);
  for line = 1 to 80 do
    Buffer.add_string buf
      (Printf.sprintf "<p>SPECweb99 class file %d line %d: static workload content.</p>" i line)
  done;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

let specweb_profile user =
  Printf.sprintf "age=%d;plan=standard;mail=%s@example.org" (20 + (Hashtbl.hash user mod 50)) user

let register_pages user =
  List.map
    (fun msg ->
      Printf.sprintf "<html><body><h1>Registration</h1><p>%s: %s</p></body></html>" user msg)
    [ "registered"; "already registered" ]

let profile_pages user =
  List.map
    (fun p -> Printf.sprintf "<html><body><h1>Profile %s</h1><p>%s</p></body></html>" user p)
    [ specweb_profile user; "unknown user" ]

let query (r : Message.request) name =
  Option.value (Core.Http.Url.query_get r.Message.url name) ~default:""

let path (r : Message.request) = r.Message.url.Core.Http.Url.path

(* 5 edge nodes serving SIMM lectures (rendered at the edge by the
   site's onResponse script) and videos, plus SPECweb-style Na Kika
   Pages over replicated hard state. Bounded student and user
   populations make (page, user) pairs repeat. *)
let edge_scripts =
  let students = Array.init 8 (Printf.sprintf "stu%d") in
  let simm_share = 0.7 and rate = 40.0 in
  let prepare () =
    let lectures = Hashtbl.create 1024 in
    Array.iter
      (fun student ->
        for m = 1 to Simm.modules do
          for k = 1 to Simm.lectures_per_module do
            Hashtbl.replace lectures (m, k, student)
              (Simm.render_html ~module_:m ~lecture:k ~student)
          done
        done)
      students;
    let videos = Array.init (Simm.videos + 1) video_body in
    let statics = Array.init (Specweb.static_files + 1) specweb_static_body in
    fun ~seed:_ ~tracing ->
      let cluster = Cluster.create ~seed:31 () in
      let simm = Cluster.add_origin cluster ~name:Simm.host () in
      Simm.install_origin simm;
      let spec = Cluster.add_origin cluster ~name:Specweb.host () in
      Specweb.install_origin spec;
      let config = traced { Config.default with Config.enable_resource_controls = false } tracing in
      let proxies =
        Array.init 5 (fun i ->
            let name = Printf.sprintf "nk%d.nakika.net" i in
            let p = Cluster.add_proxy cluster ~name ~config () in
            Array.iter
              (fun o ->
                Cluster.connect cluster (Node.host p) (Origin.host o) ~latency:0.02
                  ~bandwidth:5_000_000.0)
              [| simm; spec |];
            p)
      in
      let clients =
        Array.init 10 (fun i ->
            let c = Cluster.add_client cluster ~name:(Printf.sprintf "user%d" i) in
            Array.iter
              (fun p ->
                Cluster.connect cluster c (Node.host p) ~latency:0.005 ~bandwidth:5_000_000.0)
              proxies;
            c)
      in
      let simm_draw rng =
        let student = students.(Prng.int rng (Array.length students)) in
        let req = Simm.make_request ~rng ~mode:Simm.Edge ~student in
        let expect, kind =
          if Simm.is_video req then
            (Exact videos.(Scanf.sscanf (path req) "/media/v%d.nkv" Fun.id), "simm-video")
          else
            ( Exact
                (Scanf.sscanf (path req) "/content/m%d/lec%d.xml" (fun m k ->
                     Hashtbl.find lectures (m, k, student))),
              "simm-lecture" )
        in
        { req; client = clients.(Prng.int rng (Array.length clients)); proxy = None; expect; kind }
      in
      let spec_draw rng =
        let req = Specweb.make_request ~rng ~mode:Specweb.Nakika in
        let p = path req in
        let expect, kind =
          let user = query req "user" in
          if String.equal p "/nkp/register.nkp" then (One_of (register_pages user), "nkp-register")
          else if String.equal p "/nkp/profile.nkp" then (One_of (profile_pages user), "nkp-profile")
          else (Exact statics.(Scanf.sscanf p "/files/f%d.html" Fun.id), "spec-static")
        in
        { req; client = clients.(Prng.int rng (Array.length clients)); proxy = None; expect; kind }
      in
      {
        cluster;
        proxies;
        origins = [| simm; spec |];
        streams =
          [
            { rate = rate *. simm_share; paced = false; on = always; draw = simm_draw };
            { rate = rate *. (1.0 -. simm_share); paced = false; on = always; draw = spec_draw };
          ];
        start = epoch +. 2.0;
        warmup = 40.0;
        measure = 120.0;
        limit = 1.0;
        timeout = 10.0;
        clients;
        bypassed = [ "nk_integrity"; "nk_diffusion" ];
      }
  in
  { name = "edge-scripts"; prepare }

(* --- flash-crowd ------------------------------------------------------- *)

let crowd_site = "www.example.edu"

(* The crowd site's script does real per-response work, so what
   diffusion moves is a fuel-metered pipeline execution. *)
let crowd_script =
  Printf.sprintf
    {|
var p = new Policy();
p.url = ["%s"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("origin", "edge"));
}
p.register();
|}
    crowd_site

let bomb_body = "<html>pay no attention to the script behind the curtain</html>"

(* 6 edge nodes with every overload and tail mechanism on: a Zipf
   background, recurring bursts pinned to one node, a memory-bomb
   tenant, and a fault plan (edge crash + restart, origin outage,
   latency spikes on one replica link). Arrivals are paced: with Poisson
   gaps the admission queue flipped between a queued and an idle regime
   from seed to seed, and the median and p99 with it. *)
let flash_crowd =
  let universe = 1000 in
  let background = 60.0 and burst = 450.0 and bomb = 2.0 in
  let period = 10.0 and burst_len = 5.0 in
  let prepare () =
    let bodies = Array.init universe zipf_body in
    let urls =
      Array.init universe (fun r -> Printf.sprintf "http://%s%s" crowd_site (zipf_path r))
    in
    let zipf = Core.Workload.Zipf.create ~s:0.9 ~universe in
    let hot_url = Printf.sprintf "http://%s/hot.html" crowd_site in
    let hot_body = "<html>flash crowd at the edge</html>" in
    fun ~seed ~tracing ->
      let start = epoch +. 2.0 in
      let names = Array.init 6 (Printf.sprintf "fc%d.nakika.net") in
      let plan = Plan.create ~seed:(seed + 1) () in
      List.iter
        (fun at ->
          Plan.crash plan ~host:names.(5) ~at:(start +. at) ~restart:(start +. at +. 6.0) ();
          Plan.fail_origin plan ~host:crowd_site ~at:(start +. at +. 10.0)
            ~until:(start +. at +. 14.0) ())
        [ 14.0; 44.0; 74.0 ];
      Plan.spike_link plan ~src:names.(1) ~dst:names.(2) ~probability:0.3 ~extra:0.2 ();
      Plan.spike_link plan ~src:names.(2) ~dst:names.(1) ~probability:0.3 ~extra:0.2 ();
      let cluster = Cluster.create ~seed:5 ~faults:plan () in
      let crowd = Cluster.add_origin cluster ~name:crowd_site () in
      Array.iteri
        (fun r body -> Origin.set_static crowd ~path:(zipf_path r) ~max_age:60 body)
        bodies;
      Origin.set_static crowd ~path:"/hot.html" ~max_age:60
        "<html>flash crowd at the origin</html>";
      Origin.set_static crowd ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
        crowd_script;
      let bomber = Cluster.add_origin cluster ~name:Core.Workload.Flashcrowd.bomb_host () in
      Core.Workload.Flashcrowd.install_bomb_site bomber;
      let config =
        traced
          {
            Config.default with
            Config.enable_diffusion = true;
            enable_hedging = true;
            request_deadline = 2.0;
            retry_budget_ratio = 0.2;
            (* CPU overload is admission control's to handle: the Fig. 6
               monitor acts on CPU congestion only past the admission
               delay target, and on the memory bomb at once. *)
            cpu_congestion_backlog = 1.0;
          }
          tracing
      in
      let proxies = Array.map (fun name -> Cluster.add_proxy cluster ~name ~config ()) names in
      let clients =
        Array.init 6 (fun i -> Cluster.add_client cluster ~name:(Printf.sprintf "fan%d" i))
      in
      let pick rng = clients.(Prng.int rng (Array.length clients)) in
      let background_draw rng =
        let rank = Core.Workload.Zipf.sample zipf rng in
        { req = Message.request urls.(rank); client = pick rng; proxy = None;
          expect = Exact bodies.(rank); kind = "background" }
      in
      let burst_draw rng =
        { req = Message.request hot_url; client = pick rng; proxy = Some proxies.(0);
          expect = Exact hot_body; kind = "burst" }
      in
      let bomb_draw rng =
        { req = Core.Workload.Flashcrowd.bomb_request (); client = pick rng; proxy = None;
          expect = Exact bomb_body; kind = "bomb" }
      in
      (* Bursts recur every [period] seconds for [burst_len] seconds. *)
      let in_burst t =
        let phase = Float.rem (t -. start) period in
        if phase < burst_len then t else t -. phase +. period
      in
      {
        cluster;
        proxies;
        origins = [| crowd; bomber |];
        streams =
          [
            { rate = background; paced = true; on = always; draw = background_draw };
            { rate = burst; paced = true; on = in_burst; draw = burst_draw };
            { rate = bomb; paced = true; on = always; draw = bomb_draw };
          ];
        start;
        warmup = 5.0;
        measure = 90.0;
        limit = 1.0;
        timeout = 10.0;
        clients;
        bypassed = [ "nk_integrity"; "nk_vocab"; "nk_replication" ];
      }
  in
  { name = "flash-crowd"; prepare }

let all = [ zipf_1k; edge_scripts; flash_crowd ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
