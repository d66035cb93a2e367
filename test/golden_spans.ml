(* Golden span trees: drives small deployments through one instance of
   every request-path branch and prints each node's completed traces
   with [Tracer.render]. `dune runtest` diffs the output against
   golden_spans.expected, so any change to a span's name, parent,
   attributes or simulated duration shows up as a diff. After an
   intended change, `dune promote` refreshes the expected file. *)

open Core.Node
open Core.Http

let epoch = Core.Sim.Sim.epoch

let signed_key = "publisher-key"

let site_script =
  {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("hello", "edge"));
}
p.register();
|}

let fetch cluster ~client ~proxy req =
  let result = ref None in
  Cluster.fetch cluster ~client ~proxy req (fun r -> result := Some r);
  result

let fetch_sync cluster ~client ~proxy req =
  let result = fetch cluster ~client ~proxy req in
  Cluster.run cluster;
  match !result with Some r -> r | None -> failwith "no response"

let page () = Message.request "http://www.example.edu/index.html"

let basic_site ?sign_key ?(max_age = 300) cluster =
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" ?sign_key () in
  Origin.set_static origin ~path:"/index.html" ~max_age "<html>hello</html>";
  origin

let dump title cluster =
  Printf.printf "=== %s\n" title;
  List.iter
    (fun node ->
      Printf.printf "--- %s\n" (Node.name node);
      List.iter
        (fun trace -> print_string (Core.Telemetry.Tracer.render trace))
        (Core.Telemetry.Tracer.traces (Node.tracer node)))
    (Cluster.proxies cluster);
  print_newline ()

let cache_hit () =
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore (fetch_sync cluster ~client ~proxy (page ()));
  ignore (fetch_sync cluster ~client ~proxy (page ()));
  dump "cache hit" cluster

(* nk-b, the newest announced holder, crashes: nk-c's peer fetch to it
   hangs, the hedge to nk-a wins, and the signed copy passes integrity
   verification. nk-a's side of the hedge is a peer request. *)
let hedged_peer_fetch () =
  Core.Script.Compile.cache_clear ();
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.crash plan ~host:"nk-b.nakika.net" ~at:(epoch +. 5.0) ();
  let cluster = Cluster.create ~faults:plan () in
  ignore (basic_site ~sign_key:signed_key cluster);
  let config =
    { Config.default with Config.enable_hedging = true; integrity_key = Some signed_key }
  in
  let a = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" ~config () in
  let b = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" ~config () in
  let c = Cluster.add_proxy cluster ~name:"nk-c.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore (fetch_sync cluster ~client ~proxy:a (page ()));
  ignore (fetch_sync cluster ~client ~proxy:b (page ()));
  Core.Sim.Sim.run ~until:(epoch +. 6.0) (Cluster.sim cluster);
  ignore (fetch cluster ~client ~proxy:c (page ()));
  Cluster.run ~until:(epoch +. 20.0) cluster;
  dump "hedged peer fetch with integrity verification" cluster

let revalidation () =
  let cluster = Cluster.create () in
  ignore (basic_site ~max_age:10 cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore (fetch_sync cluster ~client ~proxy (page ()));
  Core.Sim.Sim.run ~until:(epoch +. 11.0) (Cluster.sim cluster);
  ignore (fetch_sync cluster ~client ~proxy (page ()));
  dump "304 revalidation" cluster

(* The origin fails from +5 s; once the copy has expired every request
   is a failed origin fetch served stale, until the breaker opens and
   the short-circuited request is served stale without an origin hop. *)
let breaker_stale () =
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.fail_origin plan ~host:"www.example.edu" ~at:(epoch +. 5.0)
    ~until:(epoch +. 10_000.0) ();
  let cluster = Cluster.create ~faults:plan () in
  ignore (basic_site ~max_age:10 cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore (fetch_sync cluster ~client ~proxy (page ()));
  Core.Sim.Sim.run ~until:(epoch +. 30.0) (Cluster.sim cluster);
  for _ = 1 to 4 do
    ignore (fetch_sync cluster ~client ~proxy (page ()))
  done;
  dump "breaker short-circuit served stale-if-error" cluster

(* A one-slot admission queue: of two simultaneous arrivals, the second
   is shed. *)
let admission_shed () =
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let config = { Config.default with Config.admission_capacity = 1 } in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore (fetch cluster ~client ~proxy (page ()));
  ignore (fetch cluster ~client ~proxy (page ()));
  Cluster.run cluster;
  dump "admission shed" cluster

let deadline_admission () =
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req = page () in
  Message.set_req_header req Core.Resource.Deadline.header "0";
  ignore (fetch_sync cluster ~client ~proxy req);
  dump "deadline-admission 504" cluster

(* nk1 warms the site's stage locally, then offloads the next request to
   nk2 (planted as an idle neighbor), which executes it. *)
let offload () =
  Core.Script.Compile.cache_clear ();
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    site_script;
  let config =
    {
      Config.default with
      Config.enable_diffusion = true;
      diffusion_low_water = 0.0;
      diffusion_staleness = 1000.0;
      diffusion_offload_timeout = 0.3;
    }
  in
  let p1 = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  ignore (Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config ());
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore (fetch_sync cluster ~client ~proxy:p1 (page ()));
  Node.observe_neighbor p1 ~name:"nk2.nakika.net" ~pressure:(-1.0) ~incarnation:0
    ~distance:0.01;
  ignore (fetch_sync cluster ~client ~proxy:p1 (page ()));
  dump "diffusion offload answered by the target" cluster

let () =
  cache_hit ();
  hedged_peer_fetch ();
  revalidation ();
  breaker_stale ();
  admission_shed ();
  deadline_admission ();
  offload ()
