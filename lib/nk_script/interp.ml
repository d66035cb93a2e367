open Value

type ctx = Value.ctx = {
  globals : Value.scope;
  max_fuel : int;
  max_heap : int;
  mutable fuel_used : int;
  mutable heap_used : int;
  mutable killed : bool;
  mutable usage_observer : (fuel:int -> heap:int -> unit) option;
}

exception Resource_exhausted = Value.Resource_exhausted

exception Terminated = Value.Terminated

(* Non-local control flow inside the evaluator. *)
exception Return_exc of Value.t

exception Break_exc

exception Continue_exc

exception Throw_exc of Value.t

type env = { scopes : Value.scope list; this : Value.t }
(* [scopes] is innermost-first and always ends with the context globals. *)

let create ?(max_fuel = 5_000_000) ?(max_heap_bytes = 64 * 1024 * 1024) () =
  {
    globals = Hashtbl.create 64;
    max_fuel;
    max_heap = max_heap_bytes;
    fuel_used = 0;
    heap_used = 0;
    killed = false;
    usage_observer = None;
  }

let define_global ctx name v = scope_bind ctx.globals name v

let get_global ctx name = Option.map (fun r -> !r) (Hashtbl.find_opt ctx.globals name)

let remove_global ctx name = scope_unbind ctx.globals name

let fuel_used ctx = ctx.fuel_used

let heap_used ctx = ctx.heap_used

let set_usage_observer ctx f = ctx.usage_observer <- Some f

let reset_usage ctx =
  (* The counters are zeroed between requests, so this is the natural
     place to publish "what the last pipeline consumed" to telemetry. *)
  (match ctx.usage_observer with
   | Some f when ctx.fuel_used > 0 || ctx.heap_used > 0 ->
     f ~fuel:ctx.fuel_used ~heap:ctx.heap_used
   | _ -> ());
  ctx.fuel_used <- 0;
  ctx.heap_used <- 0

let kill ctx = ctx.killed <- true

let revive ctx = ctx.killed <- false

let charge_fuel ctx n =
  if ctx.killed then raise Terminated;
  ctx.fuel_used <- ctx.fuel_used + n;
  if ctx.fuel_used > ctx.max_fuel then raise (Resource_exhausted "fuel limit exceeded")

let consume_fuel ctx n = charge_fuel ctx (max 0 n)

let charge_alloc ctx v =
  ctx.heap_used <- ctx.heap_used + alloc_size v;
  if ctx.heap_used > ctx.max_heap then raise (Resource_exhausted "heap limit exceeded")

let lookup env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> ( match Hashtbl.find_opt scope name with Some r -> Some r | None -> go rest)
  in
  go env.scopes

let declare env name v =
  match env.scopes with
  | scope :: _ -> scope_bind scope name v
  | [] -> assert false

(* --- built-in methods on primitive values ------------------------- *)

let str_index s i = if i >= 0 && i < String.length s then Vstr (String.make 1 s.[i]) else Vundefined

let string_method ctx s name args =
  (* One-shot array view: indexed argument access is O(1) instead of a
     List.nth walk per access. *)
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  let arg i = if i < nargs then argv.(i) else Vundefined in
  let iarg i = to_int (arg i) in
  let sarg i = to_string (arg i) in
  let ret v =
    charge_alloc ctx v;
    v
  in
  match name with
  | "charAt" -> ret (match str_index s (iarg 0) with Vundefined -> Vstr "" | v -> v)
  | "charCodeAt" ->
    let i = iarg 0 in
    if i >= 0 && i < String.length s then Vnum (float_of_int (Char.code s.[i])) else Vnum Float.nan
  | "indexOf" -> (
    match Nk_util.Strutil.index_sub s ~sub:(sarg 0) ~start:(iarg 1) with
    | Some i -> Vnum (float_of_int i)
    | None -> Vnum (-1.0))
  | "substring" | "slice" ->
    let len = String.length s in
    let clamp i = if i < 0 then max 0 (len + i) else min i len in
    let a = clamp (iarg 0) in
    let b = if nargs > 1 then clamp (iarg 1) else len in
    let a, b = if a <= b then (a, b) else (b, a) in
    ret (Vstr (String.sub s a (b - a)))
  | "split" ->
    let sep = sarg 0 in
    let parts =
      if sep = "" then List.init (String.length s) (fun i -> String.make 1 s.[i])
      else
        (* split on the literal separator *)
        let rec go start acc =
          match Nk_util.Strutil.index_sub s ~sub:sep ~start with
          | Some i ->
            go (i + String.length sep) (String.sub s start (i - start) :: acc)
          | None -> List.rev (String.sub s start (String.length s - start) :: acc)
        in
        go 0 []
    in
    ret (Varr (new_arr (List.map (fun p -> Vstr p) parts)))
  | "toLowerCase" -> ret (Vstr (String.lowercase_ascii s))
  | "toUpperCase" -> ret (Vstr (String.uppercase_ascii s))
  | "trim" -> ret (Vstr (String.trim s))
  | "startsWith" -> Vbool (Nk_util.Strutil.starts_with ~prefix:(sarg 0) s)
  | "endsWith" -> Vbool (Nk_util.Strutil.ends_with ~suffix:(sarg 0) s)
  | "includes" -> Vbool (Nk_util.Strutil.contains_sub s ~sub:(sarg 0))
  | "replace" -> ret (Vstr (Nk_util.Strutil.replace_all s ~sub:(sarg 0) ~by:(sarg 1)))
  | "concat" -> ret (Vstr (s ^ String.concat "" (List.map to_string args)))
  | "repeat" ->
    let n = iarg 0 in
    if n < 0 then error "repeat count must be non-negative";
    let buf = Buffer.create (String.length s * n) in
    for _ = 1 to n do
      Buffer.add_string buf s
    done;
    ret (Vstr (Buffer.contents buf))
  | "toString" -> Vstr s
  | _ -> error "string has no method '%s'" name

let bytes_method ctx b name args =
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  let arg i = if i < nargs then argv.(i) else Vundefined in
  match name with
  | "append" ->
    let s =
      match arg 0 with
      | Vbytes other -> bytes_to_string other
      | v -> to_string v
    in
    ctx.heap_used <- ctx.heap_used + String.length s;
    if ctx.heap_used > ctx.max_heap then raise (Resource_exhausted "heap limit exceeded");
    bytes_append b s;
    Vundefined
  | "toString" ->
    let v = Vstr (bytes_to_string b) in
    charge_alloc ctx v;
    v
  | "slice" ->
    let len = b.blen in
    let clamp i = if i < 0 then max 0 (len + i) else min i len in
    let a = clamp (to_int (arg 0)) in
    let e = if nargs > 1 then clamp (to_int (arg 1)) else len in
    let a, e = if a <= e then (a, e) else (e, a) in
    let v = Vbytes (bytes_of_string (Bytes.sub_string b.data a (e - a))) in
    charge_alloc ctx v;
    v
  | "clear" ->
    b.blen <- 0;
    Vundefined
  | _ -> error "bytearray has no method '%s'" name

(* --- the evaluator ------------------------------------------------- *)

let rec eval ctx env (e : Ast.expr) : Value.t =
  charge_fuel ctx 1;
  match e.Ast.desc with
  | Ast.Undefined -> Vundefined
  | Ast.Null -> Vnull
  | Ast.Bool b -> Vbool b
  | Ast.Number n -> Vnum n
  | Ast.String s -> Vstr s
  | Ast.This -> env.this
  | Ast.Ident name -> (
    match lookup env name with
    | Some r -> !r
    | None -> error "'%s' is not defined" name)
  | Ast.Array_lit items ->
    let v = Varr (new_arr (List.map (eval ctx env) items)) in
    charge_alloc ctx v;
    v
  | Ast.Object_lit fields ->
    let o = new_obj () in
    List.iter (fun (k, fe) -> obj_set o k (eval ctx env fe)) fields;
    let v = Vobj o in
    charge_alloc ctx v;
    v
  | Ast.Func (params, body) ->
    let v = Vfun (Script_fn { params; body; closure = env.scopes; fname = "<anonymous>" }) in
    charge_alloc ctx v;
    v
  | Ast.Member (obj_e, name) -> member_get ctx (eval ctx env obj_e) name
  | Ast.Index (obj_e, idx_e) ->
    let obj = eval ctx env obj_e in
    let idx = eval ctx env idx_e in
    index_get ctx obj idx
  | Ast.Call (f_e, arg_es) -> eval_call ctx env f_e arg_es
  | Ast.New (ctor_e, arg_es) ->
    let ctor = eval ctx env ctor_e in
    let args = List.map (eval ctx env) arg_es in
    eval_new ctx ctor args
  | Ast.Assign (lv, op, rhs_e) ->
    let rhs = eval ctx env rhs_e in
    let value =
      match op with
      | None -> rhs
      | Some binop ->
        let old = read_lvalue ctx env lv in
        eval_binop ctx binop old rhs
    in
    write_lvalue ctx env lv value;
    value
  | Ast.Unop (op, e) -> (
    let v = eval ctx env e in
    match op with
    | Ast.Not -> Vbool (not (truthy v))
    | Ast.Neg -> Vnum (-.to_number v)
    | Ast.Bnot -> Vnum (float_of_int (lnot (to_int v)))
    | Ast.Typeof -> Vstr (type_name v))
  | Ast.Binop (op, a_e, b_e) ->
    let a = eval ctx env a_e in
    let b = eval ctx env b_e in
    eval_binop ctx op a b
  | Ast.Logical (Ast.And, a_e, b_e) ->
    let a = eval ctx env a_e in
    if truthy a then eval ctx env b_e else a
  | Ast.Logical (Ast.Or, a_e, b_e) ->
    let a = eval ctx env a_e in
    if truthy a then a else eval ctx env b_e
  | Ast.Cond (c, t, f) -> if truthy (eval ctx env c) then eval ctx env t else eval ctx env f
  | Ast.Incr (prefix, lv) -> step_lvalue ctx env lv 1.0 prefix
  | Ast.Decr (prefix, lv) -> step_lvalue ctx env lv (-1.0) prefix
  | Ast.Delete (obj_e, field) -> (
    match eval ctx env obj_e with
    | Vobj o ->
      obj_delete o field;
      Vbool true
    | v -> error "cannot delete property '%s' of a %s" field (type_name v))

and step_lvalue ctx env lv delta prefix =
  let old = to_number (read_lvalue ctx env lv) in
  let updated = old +. delta in
  write_lvalue ctx env lv (Vnum updated);
  Vnum (if prefix then updated else old)

and eval_binop ctx op a b =
  match op with
  | Ast.Add -> (
    match (a, b) with
    | (Vstr _, _ | _, Vstr _) ->
      let v = Vstr (to_string a ^ to_string b) in
      charge_alloc ctx v;
      v
    | _ -> Vnum (to_number a +. to_number b))
  | Ast.Sub -> Vnum (to_number a -. to_number b)
  | Ast.Mul -> Vnum (to_number a *. to_number b)
  | Ast.Div -> Vnum (to_number a /. to_number b)
  | Ast.Mod ->
    let x = to_number a and y = to_number b in
    Vnum (Float.rem x y)
  | Ast.Eq -> Vbool (equal a b)
  | Ast.Neq -> Vbool (not (equal a b))
  | Ast.Lt -> compare_values a b (fun c -> c < 0)
  | Ast.Le -> compare_values a b (fun c -> c <= 0)
  | Ast.Gt -> compare_values a b (fun c -> c > 0)
  | Ast.Ge -> compare_values a b (fun c -> c >= 0)
  | Ast.Band -> Vnum (float_of_int (to_int a land to_int b))
  | Ast.Bor -> Vnum (float_of_int (to_int a lor to_int b))
  | Ast.Bxor -> Vnum (float_of_int (to_int a lxor to_int b))
  | Ast.Shl -> Vnum (float_of_int (to_int a lsl (to_int b land 31)))
  | Ast.Shr -> Vnum (float_of_int (to_int a asr (to_int b land 31)))

and compare_values a b test =
  match (a, b) with
  | Vstr x, Vstr y -> Vbool (test (String.compare x y))
  | _ ->
    let x = to_number a and y = to_number b in
    if Float.is_nan x || Float.is_nan y then Vbool false else Vbool (test (Float.compare x y))

and member_get ctx obj name =
  match obj with
  | Vobj o -> obj_get o name
  | Vstr s -> (
    match name with
    | "length" -> Vnum (float_of_int (String.length s))
    | _ -> native name (fun _ args -> string_method ctx s name args))
  | Vbytes b -> (
    match name with
    | "length" -> Vnum (float_of_int b.blen)
    | _ -> native name (fun _ args -> bytes_method ctx b name args))
  | Varr a -> (
    match name with
    | "length" -> Vnum (float_of_int a.len)
    | _ -> native name (fun _ args -> array_method ctx a name args))
  | Vnull | Vundefined -> error "cannot read property '%s' of %s" name (to_string obj)
  | Vnum _ | Vbool _ | Vfun _ -> Vundefined

and array_method ctx a name args =
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  let arg i = if i < nargs then argv.(i) else Vundefined in
  let ret v =
    charge_alloc ctx v;
    v
  in
  match name with
  | "push" ->
    List.iter (fun v -> arr_push a v) args;
    Vnum (float_of_int a.len)
  | "pop" ->
    if a.len = 0 then Vundefined
    else begin
      a.len <- a.len - 1;
      a.items.(a.len)
    end
  | "shift" ->
    if a.len = 0 then Vundefined
    else begin
      let first = a.items.(0) in
      Array.blit a.items 1 a.items 0 (a.len - 1);
      a.len <- a.len - 1;
      first
    end
  | "join" ->
    let sep = match arg 0 with Vundefined -> "," | v -> to_string v in
    ret (Vstr (String.concat sep (List.map to_string (arr_to_list a))))
  | "indexOf" ->
    let target = arg 0 in
    let rec go i =
      if i >= a.len then Vnum (-1.0)
      else if equal a.items.(i) target then Vnum (float_of_int i)
      else go (i + 1)
    in
    go 0
  | "includes" ->
    let target = arg 0 in
    let rec go i = i < a.len && (equal a.items.(i) target || go (i + 1)) in
    Vbool (go 0)
  | "slice" ->
    let clamp i = if i < 0 then max 0 (a.len + i) else min i a.len in
    let s = clamp (to_int (arg 0)) in
    let e = if nargs > 1 then clamp (to_int (arg 1)) else a.len in
    let e = max s e in
    ret (Varr (new_arr (Array.to_list (Array.sub a.items s (e - s)))))
  | "concat" ->
    let extra =
      List.concat_map (function Varr other -> arr_to_list other | v -> [ v ]) args
    in
    ret (Varr (new_arr (arr_to_list a @ extra)))
  | "reverse" ->
    let items = Array.sub a.items 0 a.len in
    Array.iteri (fun i v -> a.items.(a.len - 1 - i) <- v) items;
    Varr a
  | "map" ->
    let f = arg 0 in
    ret
      (Varr
         (new_arr
            (List.mapi
               (fun i v -> apply_fn ctx ~this:Vundefined f [ v; Vnum (float_of_int i) ])
               (arr_to_list a))))
  | "filter" ->
    let f = arg 0 in
    ret
      (Varr
         (new_arr
            (List.filter
               (fun v -> truthy (apply_fn ctx ~this:Vundefined f [ v ]))
               (arr_to_list a))))
  | "forEach" ->
    let f = arg 0 in
    List.iteri
      (fun i v -> ignore (apply_fn ctx ~this:Vundefined f [ v; Vnum (float_of_int i) ]))
      (arr_to_list a);
    Vundefined
  | "sort" ->
    let items = Array.sub a.items 0 a.len in
    let cmp =
      match arg 0 with
      | Vfun _ as f ->
        fun x y ->
          let r = to_number (apply_fn ctx ~this:Vundefined f [ x; y ]) in
          if r < 0.0 then -1 else if r > 0.0 then 1 else 0
      | _ -> fun x y -> String.compare (to_string x) (to_string y)
    in
    Array.sort cmp items;
    Array.blit items 0 a.items 0 a.len;
    Varr a
  | _ -> error "array has no method '%s'" name

and index_get ctx obj idx =
  match obj with
  | Varr a -> (
    match idx with
    | Vnum n when Float.is_integer n -> arr_get a (int_of_float n)
    | _ -> member_get ctx obj (to_string idx))
  | Vstr s -> (
    match idx with
    | Vnum n when Float.is_integer n -> str_index s (int_of_float n)
    | _ -> member_get ctx obj (to_string idx))
  | Vbytes b -> (
    match idx with
    | Vnum n when Float.is_integer n ->
      let i = int_of_float n in
      if i >= 0 && i < b.blen then Vnum (float_of_int (Char.code (Bytes.get b.data i)))
      else Vundefined
    | _ -> member_get ctx obj (to_string idx))
  | Vobj o -> obj_get o (to_string idx)
  | _ -> error "cannot index a %s" (type_name obj)

and member_set obj name value =
  match obj with
  | Vobj o -> obj_set o name value
  | v -> error "cannot set property '%s' on a %s" name (type_name v)

and index_set obj idx value =
  match obj with
  | Varr a -> (
    match idx with
    | Vnum n when Float.is_integer n && n >= 0.0 -> arr_set a (int_of_float n) value
    | _ -> error "bad array index %s" (to_string idx))
  | Vobj o -> obj_set o (to_string idx) value
  | Vbytes b -> (
    match idx with
    | Vnum n when Float.is_integer n ->
      let i = int_of_float n in
      if i < 0 || i >= b.blen then error "bytearray index %d out of bounds" i;
      Bytes.set b.data i (Char.chr (to_int value land 0xFF))
    | _ -> error "bad bytearray index %s" (to_string idx))
  | v -> error "cannot index-assign a %s" (type_name v)

and read_lvalue ctx env = function
  | Ast.Lident name -> (
    match lookup env name with Some r -> !r | None -> Vundefined)
  | Ast.Lmember (obj_e, name) -> member_get ctx (eval ctx env obj_e) name
  | Ast.Lindex (obj_e, idx_e) ->
    let obj = eval ctx env obj_e in
    let idx = eval ctx env idx_e in
    index_get ctx obj idx

and write_lvalue ctx env lv value =
  match lv with
  | Ast.Lident name -> (
    match lookup env name with
    | Some r -> r := value
    | None ->
      (* Assignment to an undeclared name creates a global, as in JS. *)
      define_global ctx name value)
  | Ast.Lmember (obj_e, name) -> member_set (eval ctx env obj_e) name value
  | Ast.Lindex (obj_e, idx_e) ->
    let obj = eval ctx env obj_e in
    let idx = eval ctx env idx_e in
    index_set obj idx value

and invoke_method ctx obj name args =
  (* Method call: bind [this] and route primitive builtins. *)
  match obj with
  | Vobj o -> (
    match obj_get o name with
    | Vfun _ as f -> apply_fn ctx ~this:obj f args
    | Vundefined -> error "object has no method '%s'" name
    | v -> error "property '%s' is not a function (%s)" name (type_name v))
  | Vstr s -> string_method ctx s name args
  | Vbytes b -> bytes_method ctx b name args
  | Varr a -> array_method ctx a name args
  | v -> error "cannot call method '%s' on a %s" name (type_name v)

and eval_call ctx env f_e arg_es =
  match f_e.Ast.desc with
  | Ast.Member (obj_e, name) ->
    let obj = eval ctx env obj_e in
    let args = List.map (eval ctx env) arg_es in
    invoke_method ctx obj name args
  | _ ->
    let f = eval ctx env f_e in
    let args = List.map (eval ctx env) arg_es in
    apply_fn ctx ~this:Vundefined f args

and apply_fn ctx ~this f args =
  charge_fuel ctx 4;
  match f with
  | Vfun (Native_fn nf) -> nf.call (if this = Vundefined then None else Some this) args
  | Vfun (Compiled_fn cf) -> cf.code.ccall ctx ~this ~globals:cf.cglobals cf.captured args
  | Vfun (Script_fn sf) ->
    let frame : Value.scope = Hashtbl.create 8 in
    let argv = Array.of_list args in
    let nargs = Array.length argv in
    List.iteri
      (fun i param ->
        let v = if i < nargs then argv.(i) else Vundefined in
        Hashtbl.replace frame param (ref v))
      sf.params;
    let env = { scopes = frame :: sf.closure; this } in
    (try
       exec_body ctx env sf.body;
       Vundefined
     with
    | Return_exc v -> v
    (* break/continue must not cross a function boundary *)
    | Break_exc -> error "'break' outside of a loop"
    | Continue_exc -> error "'continue' outside of a loop")
  | v -> error "%s is not a function" (type_name v)

and exec_body ctx env stmts =
  (* Hoist function declarations, as JavaScript does. *)
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.sdesc with
      | Ast.Sfunc (name, params, body) ->
        let f = Vfun (Script_fn { params; body; closure = env.scopes; fname = name }) in
        declare env name f
      | _ -> ())
    stmts;
  List.iter (exec_stmt ctx env) stmts

and exec_stmt ctx env (s : Ast.stmt) =
  charge_fuel ctx 1;
  match s.Ast.sdesc with
  | Ast.Sexpr e -> ignore (eval ctx env e)
  | Ast.Svar bindings ->
    List.iter
      (fun (name, init) ->
        let v = match init with Some e -> eval ctx env e | None -> Vundefined in
        declare env name v)
      bindings
  | Ast.Sif (cond, then_b, else_b) ->
    if truthy (eval ctx env cond) then exec_body ctx env then_b else exec_body ctx env else_b
  | Ast.Swhile (cond, body) ->
    (try
       while truthy (eval ctx env cond) do
         try exec_body ctx env body with Continue_exc -> ()
       done
     with Break_exc -> ())
  | Ast.Sdo_while (body, cond) ->
    (try
       let continue = ref true in
       while !continue do
         (try exec_body ctx env body with Continue_exc -> ());
         continue := truthy (eval ctx env cond)
       done
     with Break_exc -> ())
  | Ast.Sfor (init, cond, step, body) ->
    Option.iter (exec_stmt ctx env) init;
    (try
       let check () = match cond with None -> true | Some c -> truthy (eval ctx env c) in
       while check () do
         (try exec_body ctx env body with Continue_exc -> ());
         Option.iter (fun e -> ignore (eval ctx env e)) step
       done
     with Break_exc -> ())
  | Ast.Sfor_in (name, subject_e, body) -> (
    let subject = eval ctx env subject_e in
    declare env name Vundefined;
    let bind v = match lookup env name with Some r -> r := v | None -> () in
    try
      match subject with
      | Vobj o ->
        List.iter
          (fun key ->
            bind (Vstr key);
            try exec_body ctx env body with Continue_exc -> ())
          (obj_keys o)
      | Varr a ->
        for i = 0 to a.len - 1 do
          bind (Vnum (float_of_int i));
          try exec_body ctx env body with Continue_exc -> ()
        done
      | Vnull | Vundefined -> ()
      | v -> error "cannot enumerate a %s" (type_name v)
    with Break_exc -> ())
  | Ast.Sreturn e -> raise (Return_exc (match e with Some e -> eval ctx env e | None -> Vundefined))
  | Ast.Sbreak -> raise Break_exc
  | Ast.Scontinue -> raise Continue_exc
  | Ast.Sfunc _ -> () (* hoisted by exec_body *)
  | Ast.Sblock stmts -> exec_body ctx env stmts
  | Ast.Sthrow e -> raise (Throw_exc (eval ctx env e))
  | Ast.Stry (body, name, handler) -> (
    try exec_body ctx env body
    with
    | Throw_exc v ->
      declare env name v;
      exec_body ctx env handler
    | Script_error msg ->
      declare env name (Vstr msg);
      exec_body ctx env handler)

and eval_new ctx ctor args =
  match ctor with
  | Vfun (Native_fn nf) -> nf.call None args
  | Vfun (Script_fn _ | Compiled_fn _) -> (
    let o = new_obj () in
    charge_alloc ctx (Vobj o);
    match apply_fn ctx ~this:(Vobj o) ctor args with
    | (Vobj _ | Varr _) as result -> result
    | _ -> Vobj o)
  | v -> error "%s is not a constructor" (type_name v)

let run ctx program =
  let env = { scopes = [ ctx.globals ]; this = Vundefined } in
  (* Toplevel: hoist functions, then run; remember last expression value. *)
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.sdesc with
      | Ast.Sfunc (name, params, body) ->
        define_global ctx name
          (Vfun (Script_fn { params; body; closure = env.scopes; fname = name }))
      | _ -> ())
    program;
  let last = ref Vundefined in
  (try
     List.iter
       (fun (s : Ast.stmt) ->
         match s.Ast.sdesc with
         | Ast.Sexpr e -> last := eval ctx env e
         | _ -> exec_stmt ctx env s)
       program
   with
  | Return_exc v -> last := v
  | Throw_exc v -> error "uncaught exception: %s" (to_string v)
  | Break_exc -> error "'break' outside of a loop"
  | Continue_exc -> error "'continue' outside of a loop");
  !last

let run_string ctx src = run ctx (Parser.parse src)

let apply ctx ?(this = Vundefined) f args = apply_fn ctx ~this f args

let construct = eval_new
