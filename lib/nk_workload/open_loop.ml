type t = {
  mutable issued : int;
  mutable ok : int;
  mutable rejected : int;
  mutable errors : int;
  mutable latencies : float list;
}

let create () = { issued = 0; ok = 0; rejected = 0; errors = 0; latencies = [] }

let fetch_at t cluster ~at ~clients ?proxy ?(on_response = fun _ _ -> ()) url =
  let sim = Nk_node.Cluster.sim cluster in
  Nk_sim.Sim.schedule_at sim at (fun () ->
      t.issued <- t.issued + 1;
      let started = Nk_sim.Sim.now sim in
      Nk_node.Cluster.fetch cluster
        ~client:clients.(t.issued mod Array.length clients)
        ?proxy ~timeout:10.0 (Nk_http.Message.request url)
        (fun resp ->
          let elapsed = Nk_sim.Sim.now sim -. started in
          (match resp.Nk_http.Message.status with
           | 200 ->
             t.ok <- t.ok + 1;
             t.latencies <- elapsed :: t.latencies
           | 503 -> t.rejected <- t.rejected + 1
           | _ -> t.errors <- t.errors + 1);
          on_response resp elapsed))

let answered t = t.ok + t.rejected + t.errors

let goodput t = float_of_int t.ok /. float_of_int (max 1 t.issued)

let percentile samples p =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (min (n - 1) (int_of_float (float_of_int n *. p)))
