module Plan = Nk_faults.Plan
module Cluster = Nk_node.Cluster

let epoch = Nk_sim.Sim.epoch

let plan ~degraded =
  let plan = Plan.create ~seed:5 () in
  if degraded then begin
    Plan.crash plan ~host:"nk-b.nakika.net" ~at:(epoch +. 5.6) ~restart:(epoch +. 21.0) ();
    Plan.fail_origin plan ~host:"dead.example.org" ~at:(epoch +. 4.0) ~until:(epoch +. 90.0) ()
  end;
  plan

type outcome = {
  tally : Open_loop.t;
  bare_503s : int;
  dead_origin_hits : int;
  cluster : Cluster.t;
}

let run plan =
  let cluster = Cluster.create ~seed:(Chaos.seed_base () + Plan.seed plan) ~faults:plan () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Nk_node.Origin.set_static origin ~path:"/hot.html" ~max_age:60 "<html>flash crowd</html>";
  let dead = Cluster.add_origin cluster ~name:"dead.example.org" () in
  Nk_node.Origin.set_static dead ~path:"/item.html" ~max_age:2 "<html>fragile</html>";
  List.iter
    (fun name -> ignore (Cluster.add_proxy cluster ~name ()))
    [ "nk-a.nakika.net"; "nk-b.nakika.net"; "nk-c.nakika.net" ];
  let clients =
    Array.of_list
      [
        Cluster.add_client cluster ~name:"c1";
        Cluster.add_client cluster ~name:"c2";
        Cluster.add_client cluster ~name:"c3";
      ]
  in
  let tally = Open_loop.create () in
  let bare_503s = ref 0 in
  let must_hint resp _ =
    if resp.Nk_http.Message.status = 503 && Nk_http.Message.resp_header resp "Retry-After" = None
    then incr bare_503s
  in
  for i = 0 to 599 do
    Open_loop.fetch_at tally cluster ~clients ~on_response:must_hint
      ~at:(epoch +. 5.0 +. (0.002 *. float_of_int i))
      "http://www.example.edu/hot.html"
  done;
  for i = 0 to 29 do
    Open_loop.fetch_at tally cluster ~clients
      ~at:(epoch +. 1.0 +. float_of_int i)
      "http://dead.example.org/item.html"
  done;
  Nk_sim.Sim.run ~until:(epoch +. 90.0) (Cluster.sim cluster);
  {
    tally;
    bare_503s = !bare_503s;
    dead_origin_hits = Nk_node.Origin.request_count dead;
    cluster;
  }
