let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let lowercase = String.lowercase_ascii

let split_first c s =
  match String.index_opt s c with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let trim = String.trim

let index_sub s ~sub ~start =
  let ls = String.length s and lsub = String.length sub in
  if lsub = 0 then Some start
  else begin
    let rec scan i =
      if i + lsub > ls then None
      else if String.sub s i lsub = sub then Some i
      else scan (i + 1)
    in
    if start < 0 then scan 0 else scan start
  end

let contains_sub s ~sub = index_sub s ~sub ~start:0 <> None

let replace_all s ~sub ~by =
  if sub = "" then s
  else begin
    let buf = Buffer.create (String.length s) in
    let lsub = String.length sub in
    let rec go i =
      match index_sub s ~sub ~start:i with
      | None -> Buffer.add_substring buf s i (String.length s - i)
      | Some j ->
        Buffer.add_substring buf s i (j - i);
        Buffer.add_string buf by;
        go (j + lsub)
    in
    go 0;
    Buffer.contents buf
  end

let join = String.concat
