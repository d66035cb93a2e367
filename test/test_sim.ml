(* The discrete-event simulator: clock, event ordering, daemon events,
   links, CPUs, and the simulated web. *)

open Core.Sim
open Core.Http

let start = 1_136_073_600.0

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.schedule sim ~delay:2.0 (fun () -> seen := ("b", Sim.now sim) :: !seen);
  Sim.schedule sim ~delay:1.0 (fun () -> seen := ("a", Sim.now sim) :: !seen);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-6)))) "ordered with timestamps"
    [ ("a", start +. 1.0); ("b", start +. 2.0) ]
    (List.rev !seen)

let test_ties_fifo () =
  let sim = Sim.create () in
  let seen = ref [] in
  List.iter
    (fun tag -> Sim.schedule sim ~delay:1.0 (fun () -> seen := tag :: !seen))
    [ "first"; "second"; "third" ];
  Sim.run sim;
  Alcotest.(check (list string)) "fifo ties" [ "first"; "second"; "third" ] (List.rev !seen)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let result = ref 0.0 in
  Sim.schedule sim ~delay:1.0 (fun () ->
      Sim.schedule sim ~delay:1.0 (fun () -> result := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "nested" (start +. 2.0) !result

let test_run_until () =
  let sim = Sim.create () in
  let ran = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr ran);
  Sim.schedule sim ~delay:10.0 (fun () -> incr ran);
  Sim.run ~until:(start +. 5.0) sim;
  Alcotest.(check int) "only early event" 1 !ran;
  Alcotest.(check (float 1e-6)) "clock at deadline" (start +. 5.0) (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "late event after full run" 2 !ran

let test_daemon_events_dont_block_run () =
  let sim = Sim.create () in
  let daemon_fires = ref 0 in
  let rec heartbeat () =
    incr daemon_fires;
    Sim.schedule sim ~daemon:true ~delay:1.0 heartbeat
  in
  Sim.schedule sim ~daemon:true ~delay:1.0 heartbeat;
  let work_done = ref false in
  Sim.schedule sim ~delay:3.5 (fun () -> work_done := true);
  Sim.run sim;
  Alcotest.(check bool) "work done" true !work_done;
  Alcotest.(check bool) "daemons ran while work pending" true (!daemon_fires >= 3);
  Alcotest.(check bool) "run returned despite daemons" true (!daemon_fires < 10)

let test_negative_delay_clamped () =
  let sim = Sim.create () in
  let at = ref 0.0 in
  Sim.schedule sim ~delay:(-5.0) (fun () -> at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "clamped to now" start !at

let test_net_latency () =
  let sim = Sim.create () in
  let net = Net.create sim ~default_latency:0.1 ~default_bandwidth:1_000_000.0 () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let arrived = ref 0.0 in
  Net.send net ~src:a ~dst:b ~size:100_000 (fun () -> arrived := Sim.now sim);
  Sim.run sim;
  (* 0.1 s latency + 100 KB / 1 MBps = 0.1 s transmit *)
  Alcotest.(check (float 1e-6)) "latency + transmit" (start +. 0.2) !arrived

let test_net_bandwidth_sharing () =
  (* Two back-to-back transfers on the same link serialize through the
     shared pipe. *)
  let sim = Sim.create () in
  let net = Net.create sim ~default_latency:0.0 ~default_bandwidth:1_000_000.0 () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.send net ~src:a ~dst:b ~size:1_000_000 (fun () -> t1 := Sim.now sim);
  Net.send net ~src:a ~dst:b ~size:1_000_000 (fun () -> t2 := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-3)) "first after 1s" (start +. 1.0) !t1;
  Alcotest.(check (float 1e-3)) "second queued to 2s" (start +. 2.0) !t2

let test_net_explicit_link () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  (* The paper's WAN emulation: 80 ms delay, 8 Mbps cap. *)
  Net.connect net a b ~latency:0.08 ~bandwidth:1_000_000.0;
  let est = Net.transfer_time_estimate net ~src:a ~dst:b ~size:1_000_000 in
  Alcotest.(check (float 1e-6)) "estimate" 1.08 est;
  let est_rev = Net.transfer_time_estimate net ~src:b ~dst:a ~size:1_000_000 in
  Alcotest.(check (float 1e-6)) "symmetric" 1.08 est_rev

let test_local_send_instant () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let a = Net.add_host net ~name:"a" () in
  let at = ref 0.0 in
  Net.send net ~src:a ~dst:a ~size:1_000_000 (fun () -> at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "same-host delivery is free" start !at

let test_cpu_queueing () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let h = Net.add_host net ~name:"h" () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.cpu_run net h ~seconds:1.0 (fun () -> t1 := Sim.now sim);
  Net.cpu_run net h ~seconds:1.0 (fun () -> t2 := Sim.now sim);
  Alcotest.(check (float 1e-6)) "backlog visible" 2.0 (Net.cpu_backlog net h);
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "first at 1s" (start +. 1.0) !t1;
  Alcotest.(check (float 1e-6)) "second serialized" (start +. 2.0) !t2;
  Alcotest.(check (float 1e-6)) "backlog drained" 0.0 (Net.cpu_backlog net h)

let test_cpu_speed_scaling () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let fast = Net.add_host net ~name:"fast" ~cpu_speed:2.0 () in
  let done_at = ref 0.0 in
  Net.cpu_run net fast ~seconds:1.0 (fun () -> done_at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "half the time" (start +. 0.5) !done_at


let test_net_egress_cap () =
  (* A host's shared uplink: transfers to *different* destinations still
     serialize through the per-host egress pipe. *)
  let sim = Sim.create () in
  let net = Net.create sim ~default_latency:0.0 ~default_bandwidth:100_000_000.0 () in
  let server = Net.add_host net ~name:"server" () in
  Net.set_egress_limit net server 1_000_000.0;
  let c1 = Net.add_host net ~name:"c1" () in
  let c2 = Net.add_host net ~name:"c2" () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.send net ~src:server ~dst:c1 ~size:1_000_000 (fun () -> t1 := Sim.now sim);
  Net.send net ~src:server ~dst:c2 ~size:1_000_000 (fun () -> t2 := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 0.05)) "first ~1s" (start +. 1.0) !t1;
  Alcotest.(check (float 0.05)) "second queued behind the uplink" (start +. 2.0) !t2;
  (* Inbound traffic is not limited by the egress cap. *)
  let t3 = ref 0.0 in
  Net.send net ~src:c1 ~dst:server ~size:1_000_000 (fun () -> t3 := Sim.now sim);
  Sim.run sim;
  Alcotest.(check bool) "inbound fast" true (!t3 -. Sim.now sim < 0.2)

let make_web () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let web = Httpd.create net in
  (sim, net, web)

let test_httpd_fetch () =
  let sim, net, web = make_web () in
  let server = Net.add_host net ~name:"server.org" () in
  Httpd.serve web ~host:server ~hostnames:[ "server.org" ] (fun req k ->
      k
        (Message.response
           ~body:("you asked for " ^ req.Message.url.Url.path)
           ()));
  let client = Net.add_host net ~name:"client" () in
  let got = ref "" in
  Httpd.fetch web ~from:client (Message.request "http://server.org/hello") (fun resp ->
      got := Body.to_string resp.Message.resp_body);
  Sim.run sim;
  Alcotest.(check string) "handler saw path" "you asked for /hello" !got

let test_httpd_unknown_host () =
  let sim, _net, web = make_web () in
  let client = Net.add_host (Httpd.net web) ~name:"client" () in
  let status = ref 0 in
  Httpd.fetch web ~from:client (Message.request "http://nowhere.invalid/") (fun resp ->
      status := resp.Message.status);
  Sim.run sim;
  Alcotest.(check int) "502" 502 !status

let test_httpd_fetch_via () =
  let sim, net, web = make_web () in
  let proxy = Net.add_host net ~name:"proxy" () in
  Httpd.serve web ~host:proxy ~hostnames:[ "proxy" ] (fun _req k ->
      k (Message.response ~body:"proxied" ()));
  let client = Net.add_host net ~name:"client" () in
  let got = ref "" in
  (* The URL host names a server that does not exist; fetch_via ignores it. *)
  Httpd.fetch_via web ~from:client ~via:proxy (Message.request "http://anything.org/x")
    (fun resp -> got := Body.to_string resp.Message.resp_body);
  Sim.run sim;
  Alcotest.(check string) "via proxy" "proxied" !got

let test_httpd_response_isolation () =
  (* Each fetch must get a private copy of the response. *)
  let sim, net, web = make_web () in
  let shared = Message.response ~body:"shared" () in
  let server = Net.add_host net ~name:"s.org" () in
  Httpd.serve web ~host:server ~hostnames:[ "s.org" ] (fun _req k -> k shared);
  let client = Net.add_host net ~name:"c" () in
  let r1 = ref None in
  Httpd.fetch web ~from:client (Message.request "http://s.org/") (fun resp -> r1 := Some resp);
  Sim.run sim;
  Message.set_body (Option.get !r1) "mutated";
  Alcotest.(check string) "original untouched" "shared" (Body.to_string shared.Message.resp_body)

let suite =
  [
    Alcotest.test_case "clock advances through events" `Quick test_clock_advances;
    Alcotest.test_case "equal-time events run FIFO" `Quick test_ties_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run ~until stops early" `Quick test_run_until;
    Alcotest.test_case "daemon events do not block run" `Quick
      test_daemon_events_dont_block_run;
    Alcotest.test_case "negative delays clamp to now" `Quick test_negative_delay_clamped;
    Alcotest.test_case "net: latency + transmit time" `Quick test_net_latency;
    Alcotest.test_case "net: shared pipe serializes transfers" `Quick
      test_net_bandwidth_sharing;
    Alcotest.test_case "net: explicit WAN link (80ms/8Mbps)" `Quick test_net_explicit_link;
    Alcotest.test_case "net: per-host egress cap" `Quick test_net_egress_cap;
    Alcotest.test_case "net: same-host sends are free" `Quick test_local_send_instant;
    Alcotest.test_case "cpu: work queues" `Quick test_cpu_queueing;
    Alcotest.test_case "cpu: speed scaling" `Quick test_cpu_speed_scaling;
    Alcotest.test_case "httpd: fetch by hostname" `Quick test_httpd_fetch;
    Alcotest.test_case "httpd: unknown host yields 502" `Quick test_httpd_unknown_host;
    Alcotest.test_case "httpd: fetch_via overrides resolution" `Quick test_httpd_fetch_via;
    Alcotest.test_case "httpd: responses are copied" `Quick test_httpd_response_isolation;
  ]
