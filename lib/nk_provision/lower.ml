(* Lowering: a verified plan to the [Nk_node.Config] values the nodes
   it provisions will run. Lowering is total on verified plans (every
   setting the verifier accepted has a knob here — both read the same
   [Config.knobs] descriptors) and deterministic: the same plan text always
   produces the same configs, which is what makes the plan hash an
   audit handle for a deployment's resource policy. *)

module Config = Nk_node.Config

type lowered = {
  node_pattern : string; (* which nodes this config provisions *)
  node_pos : Ast.pos;
  config : Config.t;
}

(* Site rules lower into the per-site tables, in declaration order
   (first match wins at runtime, same as in the plan). Shadowed rules
   are dropped — the verifier already warned — so the runtime tables
   contain only rules that can fire. *)
let site_tables (plan : Ast.t) =
  let rules = Verify.reachable_sites plan in
  let shares =
    List.filter_map
      (fun (r : Ast.site_rule) ->
        match Verify.declared_share r with
        | Some (percent, _) when not (String.contains r.Ast.pattern '*') ->
          Some (r.Ast.pattern, percent /. 100.0)
        | _ -> None)
      rules
  in
  let table ~pick =
    List.filter_map
      (fun (r : Ast.site_rule) ->
        List.find_map (fun clause -> pick r.Ast.pattern clause) r.Ast.clauses)
      rules
  in
  let quarantine =
    table ~pick:(fun pattern -> function
      | Ast.Quarantine_window { base; max_; _ } -> (
        match
          ( Verify.normalize Config.Duration Config.Positive base,
            Verify.normalize Config.Duration Config.Positive max_ )
        with
        | Ok b, Ok m -> Some (pattern, b, m)
        | _ -> None)
      | _ -> None)
  in
  let fuel =
    table ~pick:(fun pattern -> function
      | Ast.Fuel (v, _) -> (
        match Verify.normalize Config.Count Config.Positive v with
        | Ok f -> Some (pattern, int_of_float f)
        | Error _ -> None)
      | _ -> None)
  in
  let heap =
    table ~pick:(fun pattern -> function
      | Ast.Heap (v, _) -> (
        match Verify.normalize Config.Bytes Config.Positive v with
        | Ok b -> Some (pattern, int_of_float b)
        | Error _ -> None)
      | _ -> None)
  in
  (shares, quarantine, fuel, heap)

let lower ?(base = Config.default) (plan : Ast.t) =
  let shares, quarantine, fuel, heap = site_tables plan in
  let with_sites config =
    {
      config with
      Config.site_shares = shares;
      site_quarantine = quarantine;
      site_fuel = fuel;
      site_heap = heap;
      plan_hash = Some plan.Ast.hash;
    }
  in
  match Ast.nodes plan with
  | [] ->
    (* A plan of only site rules provisions every node off the base
       config — an implicit [node "*" {}] block. *)
    [
      {
        node_pattern = "*";
        node_pos = { Nk_script.Ast.line = 1; col = 1 };
        config = with_sites base;
      };
    ]
  | blocks ->
    List.map
      (fun (b : Ast.node_block) ->
        {
          node_pattern = b.Ast.node_pattern;
          node_pos = b.Ast.node_pos;
          config = with_sites (Verify.apply_settings b base);
        })
      blocks

(* The config a named node runs: first node block whose pattern matches,
   same matcher the runtime share tables use. *)
let config_for lowered ~node =
  List.find_map
    (fun l ->
      if Nk_resource.Shares.matches ~pattern:l.node_pattern node then Some l.config else None)
    lowered

(* Human-readable lowering map for [nakika plan explain]: which plan
   field became which config knob, per node block. *)
let explain (plan : Ast.t) lowered =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "plan %s\n" (String.sub plan.Ast.hash 0 12);
  List.iter
    (fun l ->
      Printf.bprintf buf "node %S:\n" l.node_pattern;
      let c = l.config in
      List.iter
        (fun (k : Config.knob) ->
          match k.Config.plan with
          | Some (section, key) ->
            Printf.bprintf buf "  %s.%s -> %s = %s\n" section key k.Config.field
              (Config.show k (k.Config.get c))
          | None -> ())
        Config.knobs;
      List.iter
        (fun (pattern, f) ->
          Printf.bprintf buf "  site %S -> share %g%% (%d of %d slots)\n" pattern (100.0 *. f)
            (Nk_resource.Shares.slots ~capacity:c.Config.admission_capacity f)
            c.Config.admission_capacity)
        c.Config.site_shares;
      List.iter
        (fun (pattern, base, max_) ->
          Printf.bprintf buf "  site %S -> quarantine base %gs max %gs\n" pattern base max_)
        c.Config.site_quarantine;
      List.iter
        (fun (pattern, fuel) -> Printf.bprintf buf "  site %S -> fuel cap %d\n" pattern fuel)
        c.Config.site_fuel;
      List.iter
        (fun (pattern, heap) ->
          Printf.bprintf buf "  site %S -> heap cap %d bytes\n" pattern heap)
        c.Config.site_heap)
    lowered;
  Buffer.contents buf
