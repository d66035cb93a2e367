(* The capacity-plan toolchain (lib/nk_provision): parsing, the four
   verifier passes (units, ordering, feasibility, shadowing) against a
   golden diagnostics corpus that pins message text AND position, the
   lowering to node configs, and the end-to-end guarantee that a
   verifier-accepted plan always lowers to a config node construction
   accepts (they share one checker, [Config.validate]). *)

module P = Core.Provision.Provision
module Lower = Core.Provision.Lower
module D = Core.Analysis.Diagnostic
module Config = Core.Node.Config

let diag_strings (r : P.report) = List.map D.to_string r.P.diagnostics

let check_diags label plan expected =
  Alcotest.(check (list string)) label expected (diag_strings (P.check plan))

(* --- parsing ---------------------------------------------------------- *)

let test_parse_positions () =
  let r = P.check "node \"*\" {\n  capacity { admission = 64 }\n}\n" in
  Alcotest.(check int) "clean plan: no diagnostics" 0 (List.length r.P.diagnostics);
  match r.P.plan with
  | None -> Alcotest.fail "plan did not parse"
  | Some plan ->
    Alcotest.(check int) "one item" 1 (List.length plan.Core.Provision.Ast.items);
    Alcotest.(check string) "hash is sha-256 hex" "64"
      (string_of_int (String.length plan.Core.Provision.Ast.hash))

let test_parse_error_position () =
  check_diags "missing brace"
    "node \"*\" \n  capacity { admission = 64 }\n"
    [ "2:3: error[parse-error]: expected '{' to open the node block, found identifier \
       \"capacity\"" ]

let test_lex_error () =
  check_diags "unknown unit"
    "node \"*\" { capacity { admission = 64qux } }\n"
    [ "1:35: error[lex-error]: unknown unit \"qux\" (expected %, ms, s, m, h, b, kb, mb or \
       gb)" ]

let test_units_sugar () =
  (* 500ms, 5m, 8mb, underscores in numbers all normalize. *)
  let r =
    P.compile
      "node \"*\" {\n\
      \  capacity { admission = 64; target = 500ms; fuel = 2_000_000; heap = 8mb }\n\
      \  quarantine { base = 2s; max = 5m }\n\
       }\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check (float 1e-9)) "500ms" 0.5 c.Config.admission_target;
    Alcotest.(check int) "2_000_000" 2_000_000 c.Config.script_max_fuel;
    Alcotest.(check int) "8mb" (8 * 1024 * 1024) c.Config.script_max_heap;
    Alcotest.(check (float 1e-9)) "2s" 2.0 c.Config.termination_penalty;
    Alcotest.(check (float 1e-9)) "5m" 300.0 c.Config.quarantine_max
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_hotspots_section () =
  (* The hotspots section lowers to the DHT hot-key knobs; detection
     stays off unless the plan turns it on. *)
  let r =
    P.compile
      "node \"*\" {\n\
      \  hotspots { enabled = on; threshold = 12; replicas = 2; ttl = 90s; halflife = 5s }\n\
       }\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check bool) "enabled" true c.Config.enable_hotspots;
    Alcotest.(check (float 1e-9)) "threshold" 12.0 c.Config.hotspot_threshold;
    Alcotest.(check int) "replicas" 2 c.Config.hotspot_replicas;
    Alcotest.(check (float 1e-9)) "ttl" 90.0 c.Config.hotspot_ttl;
    Alcotest.(check (float 1e-9)) "halflife" 5.0 c.Config.hotspot_halflife
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_deadline_section () =
  (* The deadline section lowers to the tail-tolerance knobs; all of
     them ship off so a plan that says nothing changes nothing. *)
  let r =
    P.compile
      "node \"*\" {\n\
      \  deadline { request = 2s; hedge = on; hedge-rate = 4%; retry_budget = 10% }\n\
       }\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  (match r.P.lowered with
   | [ l ] ->
     let c = l.Lower.config in
     Alcotest.(check (float 1e-9)) "request" 2.0 c.Config.request_deadline;
     Alcotest.(check bool) "hedge" true c.Config.enable_hedging;
     Alcotest.(check (float 1e-9)) "hedge-rate" 0.04 c.Config.hedge_rate;
     Alcotest.(check (float 1e-9)) "retry_budget" 0.1 c.Config.retry_budget_ratio
   | _ -> Alcotest.fail "expected exactly one lowered config");
  (* Defaults: a plan with an empty deadline section keeps the tail
     machinery off. *)
  match (P.compile "node \"*\" {\n  deadline { }\n}\n").P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check (float 1e-9)) "off by default" 0.0 c.Config.request_deadline;
    Alcotest.(check bool) "hedging off" false c.Config.enable_hedging;
    Alcotest.(check (float 1e-9)) "no retry budget" 0.0 c.Config.retry_budget_ratio
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_deadline_rate_range () =
  check_diags "hedge-rate above 100%"
    "node \"*\" {\n  deadline { hedge-rate = 130% }\n}\n"
    [ "2:27: error[unit-mismatch]: deadline.hedge-rate: percent must be in (0%, 100%]" ]

let test_node_legal_values_verify () =
  (* Values [Node.create] accepts must verify and lower unchanged: 0
     switches the deadline and the retry budget off, a cache may be 0
     bytes, and a hotspot threshold is any positive rate. *)
  let r =
    P.compile
      "node \"*\" {\n\
      \  deadline { request = 0s; retry_budget = 0 }\n\
      \  capacity { cache = 0 }\n\
      \  hotspots { threshold = 0.5 }\n\
       }\n"
  in
  Alcotest.(check (list string)) "no diagnostics" [] (diag_strings r);
  match r.P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check (float 0.0)) "request" 0.0 c.Config.request_deadline;
    Alcotest.(check (float 0.0)) "retry_budget" 0.0 c.Config.retry_budget_ratio;
    Alcotest.(check int) "cache" 0 c.Config.cache_bytes;
    Alcotest.(check (float 0.0)) "threshold" 0.5 c.Config.hotspot_threshold
  | _ -> Alcotest.fail "expected exactly one lowered config"

(* --- golden diagnostics: units pass ----------------------------------- *)

let test_units_unknown_section () =
  check_diags "unknown section"
    "node \"*\" {\n  capcity { admission = 64 }\n}\n"
    [ "2:3: error[unknown-section]: unknown section \"capcity\" (expected capacity, \
       diffusion, hotspots, breaker, quarantine, deadline)" ]

let test_units_unknown_key () =
  check_diags "unknown key"
    "node \"*\" {\n  breaker { failures = 3; cooloff = 5s }\n}\n"
    [ "2:27: error[unknown-key]: unknown breaker setting \"cooloff\" (expected failures, \
       error-rate, window, cooldown, max)" ]

let test_units_kind_mismatch () =
  check_diags "duration where count expected"
    "node \"*\" {\n  capacity { admission = 2s }\n}\n"
    [ "2:26: error[unit-mismatch]: capacity.admission: expected a bare count, got duration" ]

let test_units_share_not_percent () =
  check_diags "share in seconds"
    "site \"a.example\" { share >= 30s }\n"
    [ "1:20: error[unit-mismatch]: share must be a percent (e.g. 30%), got duration" ]

let test_units_share_out_of_range () =
  check_diags "share above 100%"
    "site \"a.example\" { share >= 130% }\n"
    [ "1:20: error[share-out-of-range]: share must be in (0%, 100%], got 130%" ]

let test_units_bad_pattern () =
  check_diags "interior wildcard"
    "site \"a.*.example\" { fuel <= 1000 }\n"
    [ "1:6: error[bad-pattern]: site pattern \"a.*.example\": wildcards must be \"*\" or \
       \"*.suffix\"" ]

(* --- golden diagnostics: ordering pass -------------------------------- *)

let test_ordering_inverted_waters () =
  check_diags "low above default high"
    "node \"*\" {\n  diffusion { low = 0.9 }\n}\n"
    [ "2:21: error[inverted-waters]: diffusion waters: low (0.9) must be below high (0.8) \
       (the default high)" ]

let test_ordering_waters_both_set () =
  check_diags "both set, inverted"
    "node \"*\" {\n  diffusion { low = 80%; high = 40% }\n}\n"
    [ "2:21: error[inverted-waters]: diffusion waters: low (0.8) must be below high (0.4)" ]

let test_ordering_breaker_cooldown () =
  check_diags "cooldown above cap"
    "node \"*\" {\n  breaker { cooldown = 2m; max = 30s }\n}\n"
    [ "2:24: error[breaker-cooldown-exceeds-max]: breaker cooldown (120s) exceeds the \
       backoff cap (30s)" ]

let test_ordering_quarantine_base () =
  check_diags "node quarantine base above max"
    "node \"*\" {\n  quarantine { base = 10m; max = 4m }\n}\n"
    [ "2:23: error[quarantine-base-exceeds-max]: quarantine base window (600s) exceeds the \
       cap (240s)" ]

let test_ordering_site_quarantine () =
  check_diags "site quarantine base above its max"
    "site \"a.example\" { quarantine base 10m max 5m }\n"
    [ "1:36: error[quarantine-base-exceeds-max]: site \"a.example\": quarantine base window \
       (600s) exceeds its max (300s)" ]

(* --- golden diagnostics: feasibility pass ----------------------------- *)

let test_feasibility_oversubscribed () =
  check_diags "shares above 100%"
    "site \"a.example\" { share >= 60% }\nsite \"b.example\" { share >= 70% }\n"
    [ "2:20: error[shares-infeasible]: declared shares sum to 130% of admission capacity \
       (over 100%); site \"b.example\" is the rule that crosses the line" ]

let test_feasibility_wildcard_share () =
  check_diags "share on wildcard"
    "site \"*.example\" { share >= 10% }\n"
    [ "1:20: error[share-on-wildcard]: site \"*.example\": a share on a wildcard pattern \
       reserves capacity for unboundedly many tenants; name each tenant site explicitly" ]

let test_feasibility_rounds_to_zero () =
  check_diags "1% of 10 slots"
    "node \"*\" {\n  capacity { admission = 10 }\n}\nsite \"a.example\" { share >= 1% }\n"
    [ "4:20: error[share-rounds-to-zero]: site \"a.example\": a 1% share of node \"*\"'s \
       admission capacity (10 slots) rounds to zero slots" ]

(* --- golden diagnostics: shadowing pass ------------------------------- *)

let test_shadowing_warns () =
  check_diags "wildcard shadows later exact rule"
    "site \"*.example\" { fuel <= 1000 }\nsite \"a.example\" { fuel <= 2000 }\n"
    [ "2:6: warning[shadowed-rule]: site rule \"a.example\" can never match: every site it \
       covers is claimed by \"*.example\" (line 1)" ]

let test_shadowed_share_not_counted () =
  (* The shadowed rule's share must not count toward feasibility: the
     only error here would be double-counting a.example's 60%. *)
  let r =
    P.check "site \"a.example\" { share >= 60% }\nsite \"a.example\" { share >= 60% }\n"
  in
  Alcotest.(check int) "one warning, no errors" 0 (P.errors r);
  Alcotest.(check int) "shadow warning present" 1 (P.warnings r)

(* --- lowering --------------------------------------------------------- *)

let multi_tenant =
  "node \"*.nakika.net\" {\n\
  \  capacity { admission = 64; target = 500ms }\n\
   }\n\
   site \"video.example\" { share >= 30%; fuel <= 40000; heap <= 4mb; quarantine base 2s \
   max 5m }\n\
   site \"news.example\" { share >= 20% }\n"

let test_lowering_multi_tenant () =
  let r = P.compile multi_tenant in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check string) "pattern" "*.nakika.net" l.Lower.node_pattern;
    Alcotest.(check int) "capacity" 64 c.Config.admission_capacity;
    Alcotest.(check (list (pair string (float 1e-9)))) "shares in declaration order"
      [ ("video.example", 0.30); ("news.example", 0.20) ]
      c.Config.site_shares;
    Alcotest.(check (list (pair string int))) "fuel caps" [ ("video.example", 40000) ]
      c.Config.site_fuel;
    Alcotest.(check (list (pair string int))) "heap caps"
      [ ("video.example", 4 * 1024 * 1024) ]
      c.Config.site_heap;
    (match c.Config.site_quarantine with
     | [ (site, base, max_) ] ->
       Alcotest.(check string) "quarantine site" "video.example" site;
       Alcotest.(check (float 1e-9)) "base" 2.0 base;
       Alcotest.(check (float 1e-9)) "max" 300.0 max_
     | _ -> Alcotest.fail "expected one quarantine override");
    (match c.Config.plan_hash with
     | Some h -> Alcotest.(check int) "plan hash recorded" 64 (String.length h)
     | None -> Alcotest.fail "plan hash missing")
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_lowering_deterministic () =
  let c1 = P.compile multi_tenant and c2 = P.compile multi_tenant in
  match (c1.P.lowered, c2.P.lowered) with
  | [ a ], [ b ] ->
    Alcotest.(check bool) "identical configs" true (a.Lower.config = b.Lower.config);
    Alcotest.(check bool) "identical hashes" true (P.hash c1 = P.hash c2)
  | _ -> Alcotest.fail "expected one lowered config each"

let test_config_for_matching () =
  let r =
    P.compile
      "node \"nk1.nakika.net\" {\n  capacity { admission = 32 }\n}\n\
       node \"*\" {\n  capacity { admission = 64 }\n}\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  let cap node =
    match P.config_for r ~node with
    | Some c -> c.Config.admission_capacity
    | None -> -1
  in
  Alcotest.(check int) "exact match wins" 32 (cap "nk1.nakika.net");
  Alcotest.(check int) "wildcard catches the rest" 64 (cap "nk2.nakika.net")

let test_site_only_plan_gets_default_node () =
  let r = P.compile "site \"a.example\" { share >= 10% }\n" in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    Alcotest.(check string) "implicit wildcard node" "*" l.Lower.node_pattern;
    Alcotest.(check int) "default capacity" Config.default.Config.admission_capacity
      l.Lower.config.Config.admission_capacity
  | _ -> Alcotest.fail "expected one lowered config"

let test_explain_mentions_lowering () =
  let r = P.compile multi_tenant in
  let text = P.explain r in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle and len = String.length text in
        let rec scan i = i + n <= len && (String.sub text i n = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "explain mentions %s" needle) true found)
    [ "capacity.admission -> admission_capacity"; "share 30%"; "quarantine base 2s" ]

(* --- the end-to-end guarantee (qcheck) -------------------------------- *)

(* Every plan spelling the schema declares, with its knob. *)
let provisionable =
  List.filter_map
    (fun (k : Config.knob) -> Option.map (fun spelling -> (spelling, k)) k.Config.plan)
    Config.knobs

(* A value inside [k]'s legal range, written in plan syntax, with the
   float the knob must hold once it is lowered. *)
let gen_in_range (k : Config.knob) =
  QCheck.Gen.(
    let lo = match k.Config.range with Config.Positive | Config.Unit_open -> 1 | _ -> 0 in
    match k.Config.kind with
    | Config.Count -> map (fun n -> (string_of_int n, float_of_int n)) (int_range 1 100_000)
    | Config.Number ->
      map
        (fun n -> (Printf.sprintf "%d.%02d" (n / 100) (n mod 100), float_of_int n /. 100.0))
        (int_range lo 100_000)
    | Config.Duration ->
      map (fun n -> (Printf.sprintf "%dms" n, float_of_int n /. 1000.0)) (int_range lo 600_000)
    | Config.Fraction ->
      map (fun p -> (Printf.sprintf "%d%%" p, float_of_int p /. 100.0)) (int_range lo 100)
    | Config.Bytes ->
      map (fun n -> (Printf.sprintf "%dkb" n, float_of_int (n * 1024))) (int_range lo 65_536)
    | Config.Toggle -> map (fun b -> ((if b then "on" else "off"), if b then 1.0 else 0.0)) bool)

(* Random plans over the real grammar: every schema key may appear,
   mostly with an in-range value and sometimes with one drawn from
   mixed ranges and units, so some plans verify and some do not. The
   property under test is one-sided: whenever the verifier says yes,
   the lowered configs must pass [Config.validate] — the exact checker
   [Node.create] enforces. *)
let gen_plan =
  QCheck.Gen.(
    let mixed =
      oneof
        [
          map (fun n -> Printf.sprintf "%d" n) (int_range (-2) 200);
          map (fun n -> Printf.sprintf "%d%%" n) (int_range (-10) 160);
          map (fun n -> Printf.sprintf "%dms" n) (int_range (-100) 5000);
          map (fun n -> Printf.sprintf "%ds" n) (int_range 0 400);
          map (fun n -> Printf.sprintf "%dmb" n) (int_range 0 128);
          oneofl [ "on"; "off"; "0.3"; "0.9" ];
        ]
    in
    let node_block =
      let* chosen =
        List.fold_right
          (fun ((section, key), k) acc ->
            let* keep = int_bound 3 in
            let* value = frequency [ (4, map fst (gen_in_range k)); (1, mixed) ] in
            let* rest = acc in
            if keep = 0 then return ((section, Printf.sprintf "    %s = %s" key value) :: rest)
            else return rest)
          provisionable (return [])
      in
      let section name =
        let lines =
          List.filter_map (fun (s, line) -> if s = name then Some line else None) chosen
        in
        Printf.sprintf "  %s {\n%s\n  }\n" name (String.concat "\n" lines)
      in
      let names = List.sort_uniq compare (List.map fst chosen) in
      return (Printf.sprintf "node \"*\" {\n%s}\n" (String.concat "" (List.map section names)))
    in
    let site i =
      let* share = int_range 1 60 in
      let* with_share = bool in
      let* fuel = int_range (-5) 100000 in
      let* with_fuel = bool in
      let clauses =
        (if with_share then [ Printf.sprintf "share >= %d%%" share ] else [])
        @ (if with_fuel then [ Printf.sprintf "fuel <= %d" fuel ] else [])
      in
      match clauses with
      | [] -> return ""
      | clauses ->
        return
          (Printf.sprintf "site \"tenant%d.example\" { %s }\n" i (String.concat "; " clauses))
    in
    let* node = node_block in
    let* n_sites = int_range 0 4 in
    let* sites =
      List.fold_right
        (fun i acc ->
          let* s = site i in
          let* rest = acc in
          return (s :: rest))
        (List.init n_sites (fun i -> i))
        (return [])
    in
    return (node ^ String.concat "" sites))

let accepted_plans_lower_to_valid_configs =
  QCheck.Test.make ~name:"verifier-accepted plans lower to node-accepted configs"
    ~count:300
    (QCheck.make ~print:(fun s -> s) gen_plan)
    (fun plan_text ->
      let checked = P.check plan_text in
      QCheck.assume (P.errors checked = 0);
      let r = P.compile plan_text in
      if P.errors r > 0 then
        QCheck.Test.fail_reportf "verified plan failed to compile:\n%s"
          (String.concat "\n" (diag_strings r));
      if r.P.lowered = [] then QCheck.Test.fail_reportf "verified plan lowered to nothing";
      List.iter
        (fun (l : Lower.lowered) ->
          match Config.validate l.Lower.config with
          | [] -> ()
          | problems ->
            QCheck.Test.fail_reportf "verifier accepted but node rejects: %s\nplan:\n%s"
              (String.concat "; " problems) plan_text)
        r.P.lowered;
      true)

(* The schema round trip: any in-range value for any provisionable
   knob verifies (ordering findings against the defaults aside), lowers
   to a config whose getter returns exactly that value, and shows up in
   [explain] under its plan spelling. *)
let knob_round_trip =
  let ordering_codes = List.map (fun (o : Config.order) -> o.Config.code) Config.orderings in
  QCheck.Test.make ~name:"every provisionable knob round-trips through lowering and explain"
    ~count:300
    (QCheck.make
       ~print:(fun (((section, key), _), (text, _)) -> Printf.sprintf "%s.%s = %s" section key text)
       QCheck.Gen.(
         let* ((_, k) as entry) = oneofl provisionable in
         let* value = gen_in_range k in
         return (entry, value)))
    (fun (((section, key), (k : Config.knob)), (text, v)) ->
      let plan_text = Printf.sprintf "node \"*\" {\n  %s { %s = %s }\n}\n" section key text in
      let r = P.check plan_text in
      List.iter
        (fun (d : D.t) ->
          if not (List.mem d.D.code ordering_codes) then
            QCheck.Test.fail_reportf "in-range value rejected: %s" (D.to_string d))
        r.P.diagnostics;
      match r.P.plan with
      | None -> QCheck.Test.fail_reportf "did not parse:\n%s" plan_text
      | Some plan ->
        let lowered = Lower.lower plan in
        let got = List.map (fun l -> k.Config.get l.Lower.config) lowered in
        if got <> [ v ] then
          QCheck.Test.fail_reportf "%s lowered to %s, expected %g" k.Config.field
            (String.concat ", " (List.map string_of_float got)) v;
        let line =
          Printf.sprintf "  %s.%s -> %s = %s\n" section key k.Config.field (Config.show k v)
        in
        let text = Lower.explain plan lowered in
        let n = String.length line in
        let rec scan i =
          i + n <= String.length text && (String.sub text i n = line || scan (i + 1))
        in
        if not (scan 0) then QCheck.Test.fail_reportf "explain lacks %S:\n%s" line text;
        true)

let lowering_is_deterministic =
  QCheck.Test.make ~name:"lowering is deterministic" ~count:100
    (QCheck.make ~print:(fun s -> s) gen_plan)
    (fun plan_text ->
      let a = P.compile plan_text and b = P.compile plan_text in
      List.map (fun l -> l.Lower.config) a.P.lowered
      = List.map (fun l -> l.Lower.config) b.P.lowered)

(* --- plan-provisioned node end to end --------------------------------- *)

let test_plan_drives_a_node () =
  let r = P.compile multi_tenant in
  let config =
    match P.config_for r ~node:"nk1.nakika.net" with
    | Some c -> c
    | None -> Alcotest.fail "no config for node"
  in
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"video.example" () in
  Core.Node.Origin.set_static origin ~path:"/a.html" ~max_age:300 "<html>v</html>";
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Core.Node.Cluster.add_client cluster ~name:"c1" in
  let result = ref None in
  Core.Node.Cluster.fetch cluster ~client ~proxy
    (Core.Http.Message.request "http://video.example/a.html")
    (fun resp -> result := Some resp);
  Core.Node.Cluster.run cluster;
  (match !result with
   | Some resp -> Alcotest.(check int) "served" 200 resp.Core.Http.Message.status
   | None -> Alcotest.fail "no response");
  (* The plan's share table reached the admission controller. *)
  match Core.Node.Node.admission proxy with
  | None -> Alcotest.fail "admission controller missing"
  | Some adm ->
    Alcotest.(check int) "video slice: 30% of 64"
      19
      (Core.Resource.Admission.fair_share adm ~site:"video.example");
    Alcotest.(check int) "news slice: 20% of 64" 13
      (Core.Resource.Admission.fair_share adm ~site:"news.example")

let suite =
  [
    Alcotest.test_case "parse: clean plan, positions, hash" `Quick test_parse_positions;
    Alcotest.test_case "parse: error carries position" `Quick test_parse_error_position;
    Alcotest.test_case "lex: unknown unit" `Quick test_lex_error;
    Alcotest.test_case "units: suffix sugar normalizes" `Quick test_units_sugar;
    Alcotest.test_case "units: hotspots section lowers" `Quick test_hotspots_section;
    Alcotest.test_case "units: deadline section lowers" `Quick test_deadline_section;
    Alcotest.test_case "units: deadline rate range" `Quick test_deadline_rate_range;
    Alcotest.test_case "units: node-legal values verify" `Quick test_node_legal_values_verify;
    Alcotest.test_case "units: unknown section" `Quick test_units_unknown_section;
    Alcotest.test_case "units: unknown key" `Quick test_units_unknown_key;
    Alcotest.test_case "units: kind mismatch" `Quick test_units_kind_mismatch;
    Alcotest.test_case "units: share must be percent" `Quick test_units_share_not_percent;
    Alcotest.test_case "units: share range" `Quick test_units_share_out_of_range;
    Alcotest.test_case "units: bad pattern" `Quick test_units_bad_pattern;
    Alcotest.test_case "ordering: inverted waters vs default" `Quick
      test_ordering_inverted_waters;
    Alcotest.test_case "ordering: inverted waters, both set" `Quick
      test_ordering_waters_both_set;
    Alcotest.test_case "ordering: breaker cooldown cap" `Quick test_ordering_breaker_cooldown;
    Alcotest.test_case "ordering: quarantine base cap" `Quick test_ordering_quarantine_base;
    Alcotest.test_case "ordering: site quarantine window" `Quick
      test_ordering_site_quarantine;
    Alcotest.test_case "feasibility: oversubscribed shares" `Quick
      test_feasibility_oversubscribed;
    Alcotest.test_case "feasibility: wildcard share" `Quick test_feasibility_wildcard_share;
    Alcotest.test_case "feasibility: share rounds to zero" `Quick
      test_feasibility_rounds_to_zero;
    Alcotest.test_case "shadowing: warns on dominated rule" `Quick test_shadowing_warns;
    Alcotest.test_case "shadowing: shadowed share not double-counted" `Quick
      test_shadowed_share_not_counted;
    Alcotest.test_case "lowering: multi-tenant plan" `Quick test_lowering_multi_tenant;
    Alcotest.test_case "lowering: deterministic" `Quick test_lowering_deterministic;
    Alcotest.test_case "lowering: config_for first match" `Quick test_config_for_matching;
    Alcotest.test_case "lowering: site-only plan" `Quick test_site_only_plan_gets_default_node;
    Alcotest.test_case "explain: shows the lowering map" `Quick test_explain_mentions_lowering;
    QCheck_alcotest.to_alcotest accepted_plans_lower_to_valid_configs;
    QCheck_alcotest.to_alcotest lowering_is_deterministic;
    QCheck_alcotest.to_alcotest knob_round_trip;
    Alcotest.test_case "plan config drives a real node" `Quick test_plan_drives_a_node;
  ]
