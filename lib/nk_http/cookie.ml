let parse s =
  String.split_on_char ';' s
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None
         else
           match Nk_util.Strutil.split_first '=' part with
           | Some (k, v) -> Some (String.trim k, String.trim v)
           | None -> Some (part, ""))

let set_cookie ?path ?max_age ?(http_only = false) ~name ~value () =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (name ^ "=" ^ value);
  Option.iter (fun p -> Buffer.add_string buf ("; Path=" ^ p)) path;
  Option.iter (fun a -> Buffer.add_string buf (Printf.sprintf "; Max-Age=%d" a)) max_age;
  if http_only then Buffer.add_string buf "; HttpOnly";
  Buffer.contents buf

let parse_set_cookie s =
  match String.split_on_char ';' s with
  | [] -> None
  | first :: _ -> (
    match Nk_util.Strutil.split_first '=' (String.trim first) with
    | Some (k, v) -> Some (String.trim k, String.trim v)
    | None -> None)
