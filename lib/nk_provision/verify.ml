(* The multi-pass static verifier for capacity plans, in the
   nk_analysis style: every pass walks the typed IR and reports
   position-carrying [Nk_analysis.Diagnostic]s; nothing mutates the
   plan. Passes:

   - {b units}: every setting key is known, carries its knob's unit
     kind, and sits in the range the node enforces for that knob
     ([Config.knobs]); site patterns are well-formed.
   - {b ordering}: each [Config.orderings] pair (diffusion waters,
     breaker cooldown vs max, quarantine base vs max) is ordered —
     checked against the block's own settings with [Config.default]
     filling unset knobs, so [low = 0.9] alone is caught against the
     default high water.
   - {b feasibility}: per node block, the shares declared by site rules
     sum to at most 100% and each reserves at least one whole slot of
     that block's admission capacity. Share clauses must name concrete
     sites: a share on a wildcard pattern reserves capacity for
     unboundedly many tenants and no static check can make that sound.
   - {b shadowing}: a site rule (or node block) subsumed by an earlier
     pattern can never match — a warning, since the plan still has a
     well-defined meaning.

   The fifth check — that the lowered [Config] is one a node accepts —
   is [Config.validate], shared verbatim with node construction; the
   facade ([Provision.compile]) runs it after lowering. *)

module D = Nk_analysis.Diagnostic
module Config = Nk_node.Config

(* --- the knob vocabulary -------------------------------------------- *)

(* Every node-level setting the language can express is a knob of
   [Config.knobs] with a plan spelling; the verifier, the lowering and
   the node read the same descriptor, so they cannot drift apart. *)
let provisionable =
  List.filter_map
    (fun (k : Config.knob) -> Option.map (fun spelling -> (spelling, k)) k.Config.plan)
    Config.knobs

let sections =
  List.fold_left
    (fun acc ((section, _), _) -> if List.mem section acc then acc else acc @ [ section ])
    [] provisionable

let knob ~section ~key = List.assoc_opt (section, key) provisionable

let expected = function
  | Config.Count -> "a bare count"
  | Config.Number -> "a bare number"
  | Config.Duration -> "a duration (e.g. 500ms, 2s, 5m)"
  | Config.Fraction -> "a fraction (0.3) or percent (30%)"
  | Config.Bytes -> "a size (64mb) or byte count"
  | Config.Toggle -> "on or off"

(* Normalize a written value to the float the knob holds (toggles to
   1 / 0, sizes truncated to whole bytes as the int field will), then
   hold it to the range the node enforces; or explain why not. *)
let normalize kind range (v : Ast.value) =
  let value =
    match (kind, v) with
    | Config.Count, Ast.Number f ->
      if Float.is_integer f then Ok f else Error "expected a whole number"
    | Config.Number, Ast.Number f -> Ok f
    | Config.Duration, Ast.Duration s -> Ok s
    | Config.Fraction, Ast.Percent p -> Ok (p /. 100.0)
    | Config.Fraction, Ast.Number f -> Ok f
    | Config.Bytes, (Ast.Size b | Ast.Number b) -> Ok (Float.of_int (int_of_float b))
    | Config.Toggle, Ast.Flag b -> Ok (if b then 1.0 else 0.0)
    | _ -> Error (Printf.sprintf "expected %s, got %s" (expected kind) (Ast.kind_label v))
  in
  Result.bind value (fun f ->
      if Config.in_range range f then Ok f
      else
        let percent = match v with Ast.Percent _ -> true | _ -> false in
        Error
          (Printf.sprintf "%s %s" (Ast.kind_label v) (Config.describe_range ~percent range)))

(* A site pattern is an exact host, "*", or "*.suffix". *)
let pattern_problem pattern =
  if pattern = "" then Some "site pattern is empty"
  else if pattern = "*" then None
  else if String.contains pattern '*' then
    if String.length pattern > 2 && String.sub pattern 0 2 = "*."
       && not (String.contains_from pattern 2 '*')
    then None
    else Some "wildcards must be \"*\" or \"*.suffix\""
  else None

(* --- units / ranges --------------------------------------------------- *)

let check_share_value v pos diags =
  match v with
  | Ast.Percent p ->
    if p <= 0.0 || p > 100.0 then
      diags := D.error "share-out-of-range" pos "share must be in (0%%, 100%%], got %g%%" p :: !diags
  | other ->
    diags :=
      D.error "unit-mismatch" pos "share must be a percent (e.g. 30%%), got %s"
        (Ast.kind_label other)
      :: !diags

let units_pass (plan : Ast.t) =
  let diags = ref [] in
  let mismatch what kind range v pos =
    match normalize kind range v with
    | Ok _ -> ()
    | Error why -> diags := D.error "unit-mismatch" pos "%s: %s" what why :: !diags
  in
  List.iter
    (function
      | Ast.Node block ->
        (match pattern_problem block.Ast.node_pattern with
         | Some why ->
           diags :=
             D.error "bad-pattern" block.Ast.node_pos "node pattern %S: %s"
               block.Ast.node_pattern why
             :: !diags
         | None -> ());
        List.iter
          (fun (sec : Ast.section) ->
            if not (List.mem sec.Ast.section sections) then
              diags :=
                D.error "unknown-section" sec.Ast.section_pos
                  "unknown section %S (expected %s)" sec.Ast.section
                  (String.concat ", " sections)
                :: !diags
            else
              List.iter
                (fun (s : Ast.setting) ->
                  match knob ~section:sec.Ast.section ~key:s.Ast.key with
                  | None ->
                    let known =
                      List.filter_map
                        (fun ((sc, k), _) -> if sc = sec.Ast.section then Some k else None)
                        provisionable
                    in
                    diags :=
                      D.error "unknown-key" s.Ast.key_pos "unknown %s setting %S (expected %s)"
                        sec.Ast.section s.Ast.key (String.concat ", " known)
                      :: !diags
                  | Some k ->
                    mismatch
                      (Printf.sprintf "%s.%s" sec.Ast.section s.Ast.key)
                      k.Config.kind k.Config.range s.Ast.value s.Ast.value_pos)
                sec.Ast.settings)
          block.Ast.sections
      | Ast.Site rule ->
        (match pattern_problem rule.Ast.pattern with
         | Some why ->
           diags :=
             D.error "bad-pattern" rule.Ast.pattern_pos "site pattern %S: %s" rule.Ast.pattern
               why
             :: !diags
         | None -> ());
        List.iter
          (fun clause ->
            match clause with
            | Ast.Share (v, pos) -> check_share_value v pos diags
            | Ast.Fuel (v, pos) -> mismatch "fuel cap" Config.Count Config.Positive v pos
            | Ast.Heap (v, pos) -> mismatch "heap cap" Config.Bytes Config.Positive v pos
            | Ast.Quarantine_window { base; base_pos; max_; max_pos } ->
              mismatch "quarantine base" Config.Duration Config.Positive base base_pos;
              mismatch "quarantine max" Config.Duration Config.Positive max_ max_pos)
          rule.Ast.clauses)
    plan.Ast.items;
  !diags

(* --- ordering --------------------------------------------------------- *)

(* A node block's well-formed settings in source order, each with its
   knob and normalized value (malformed settings already carry a units
   error and lower to nothing). *)
let settings (block : Ast.node_block) =
  List.concat_map
    (fun (sec : Ast.section) ->
      List.filter_map
        (fun (s : Ast.setting) ->
          Option.bind (knob ~section:sec.Ast.section ~key:s.Ast.key) (fun (k : Config.knob) ->
              match normalize k.Config.kind k.Config.range s.Ast.value with
              | Ok v -> Some (k, v, s.Ast.value_pos)
              | Error _ -> None))
        sec.Ast.settings)
    block.Ast.sections

(* The block's settings applied over [config] — the node-level half of
   lowering, shared with the ordering and feasibility passes so they
   judge exactly the values a node will run with. *)
let apply_settings block config =
  List.fold_left (fun config ((k : Config.knob), v, _) -> k.Config.set config v) config
    (settings block)

let ordering_pass (plan : Ast.t) =
  let diags = ref [] in
  List.iter
    (fun (block : Ast.node_block) ->
      let written = settings block in
      let config = apply_settings block Config.default in
      let pos (k : Config.knob) =
        List.fold_left
          (fun acc ((set : Config.knob), _, p) ->
            if set.Config.field = k.Config.field then Some p else acc)
          None written
      in
      let defaulted (k : Config.knob) =
        match (pos k, k.Config.plan) with
        | None, Some (_, key) -> Printf.sprintf " (the default %s)" key
        | _ -> ""
      in
      List.iter
        (fun (o : Config.order) ->
          let low = o.Config.low.Config.get config and high = o.Config.high.Config.get config in
          match (pos o.Config.low, pos o.Config.high) with
          | (Some p, _ | None, Some p) when not (Config.ordered o ~low ~high) ->
            diags :=
              D.error o.Config.code p "%s%s%s"
                (Printf.sprintf o.Config.says (Config.show o.Config.low low)
                   (Config.show o.Config.high high))
                (defaulted o.Config.low) (defaulted o.Config.high)
              :: !diags
          | _ -> ())
        Config.orderings)
    (Ast.nodes plan);
  (* Per-site quarantine windows carry both bounds in one clause. *)
  List.iter
    (fun (rule : Ast.site_rule) ->
      List.iter
        (function
          | Ast.Quarantine_window { base; base_pos; max_; max_pos = _ } -> (
            match
              ( normalize Config.Duration Config.Positive base,
                normalize Config.Duration Config.Positive max_ )
            with
            | Ok b, Ok m when b > m ->
              diags :=
                D.error "quarantine-base-exceeds-max" base_pos
                  "site %S: quarantine base window (%gs) exceeds its max (%gs)" rule.Ast.pattern
                  b m
                :: !diags
            | _ -> ())
          | _ -> ())
        rule.Ast.clauses)
    (Ast.sites plan);
  !diags

(* --- shadowing / dominance ------------------------------------------- *)

(* Which earlier rule, if any, makes this one unreachable? *)
let shadowed_by earlier pattern =
  List.find_opt (fun (p, _) -> Ast.subsumes ~pattern:p ~other:pattern) earlier

let shadow_pass (plan : Ast.t) =
  let diags = ref [] in
  let walk items ~what =
    ignore
      (List.fold_left
         (fun earlier (pattern, pos) ->
           (match shadowed_by earlier pattern with
            | Some (by, by_pos) ->
              diags :=
                D.warning "shadowed-rule" pos
                  "%s %S can never match: every site it covers is claimed by %S (line %d)"
                  what pattern by by_pos.Nk_script.Ast.line
                :: !diags
            | None -> ());
           (pattern, pos) :: earlier)
         [] items)
  in
  walk
    (List.map (fun (r : Ast.site_rule) -> (r.Ast.pattern, r.Ast.pattern_pos)) (Ast.sites plan))
    ~what:"site rule";
  walk
    (List.map (fun (b : Ast.node_block) -> (b.Ast.node_pattern, b.Ast.node_pos)) (Ast.nodes plan))
    ~what:"node block";
  !diags

(* The site rules that can actually fire (not shadowed by an earlier
   pattern) — what feasibility sums and what the compiler lowers. *)
let reachable_sites (plan : Ast.t) =
  List.rev
    (fst
       (List.fold_left
          (fun (kept, earlier) (r : Ast.site_rule) ->
            let entry = (r.Ast.pattern, r.Ast.pattern_pos) in
            if shadowed_by earlier r.Ast.pattern <> None then (kept, entry :: earlier)
            else (r :: kept, entry :: earlier))
          ([], []) (Ast.sites plan)))

(* --- feasibility ------------------------------------------------------ *)

let declared_share (rule : Ast.site_rule) =
  List.find_map
    (function
      | Ast.Share (Ast.Percent p, pos) when p > 0.0 && p <= 100.0 -> Some (p, pos)
      | _ -> None)
    rule.Ast.clauses

let feasibility_pass (plan : Ast.t) =
  let diags = ref [] in
  let shares =
    List.filter_map
      (fun (r : Ast.site_rule) ->
        match declared_share r with
        | None -> None
        | Some (percent, pos) ->
          if r.Ast.pattern = "*" || String.contains r.Ast.pattern '*' then begin
            diags :=
              D.error "share-on-wildcard" pos
                "site %S: a share on a wildcard pattern reserves capacity for unboundedly \
                 many tenants; name each tenant site explicitly"
                r.Ast.pattern
              :: !diags;
            None
          end
          else Some (r.Ast.pattern, percent, pos))
      (reachable_sites plan)
  in
  let total = List.fold_left (fun acc (_, p, _) -> acc +. p) 0.0 shares in
  (if total > 100.0 +. 1e-9 then
     match List.rev shares with
     | (pattern, _, pos) :: _ ->
       diags :=
         D.error "shares-infeasible" pos
           "declared shares sum to %g%% of admission capacity (over 100%%); site %S is the \
            rule that crosses the line"
           total pattern
         :: !diags
     | [] -> ());
  (* Every declared share must also land on at least one whole queue
     slot on every node block it applies to (all of them: site rules
     are not node-scoped). *)
  let blocks =
    match Ast.nodes plan with
    | [] ->
      [ ("(default)", Config.default.Config.admission_capacity) ]
      (* no node block: shares apply to default-configured nodes *)
    | blocks ->
      List.map
        (fun b ->
          (b.Ast.node_pattern, (apply_settings b Config.default).Config.admission_capacity))
        blocks
  in
  List.iter
    (fun (pattern, percent, pos) ->
      List.iter
        (fun (node_pattern, capacity) ->
          if Nk_resource.Shares.slots ~capacity (percent /. 100.0) < 1 then
            diags :=
              D.error "share-rounds-to-zero" pos
                "site %S: a %g%% share of node %S's admission capacity (%d slots) rounds to \
                 zero slots"
                pattern percent node_pattern capacity
              :: !diags)
        blocks)
    shares;
  !diags

(* --- the pass pipeline ------------------------------------------------ *)

let check (plan : Ast.t) =
  List.sort D.compare
    (units_pass plan @ ordering_pass plan @ feasibility_pass plan @ shadow_pass plan)
