let crlf = "\r\n"

let encode_headers buf headers =
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf ": ";
      Buffer.add_string buf v;
      Buffer.add_string buf crlf)
    (Headers.to_list headers)

let encode_request (r : Message.request) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s %s HTTP/1.1%s" (Method_.to_string r.meth) (Url.to_string r.url) crlf);
  encode_headers buf r.headers;
  Buffer.add_string buf crlf;
  Buffer.add_string buf (Body.to_string r.body);
  Buffer.contents buf

let encode_response (r : Message.response) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s%s" r.status (Status.reason r.status) crlf);
  encode_headers buf r.resp_headers;
  Buffer.add_string buf crlf;
  Buffer.add_string buf (Body.to_string r.resp_body);
  Buffer.contents buf

let split_head s =
  match Nk_util.Strutil.index_sub s ~sub:"\r\n\r\n" ~start:0 with
  | None -> Error "missing header terminator"
  | Some i -> Ok (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4))

let parse_header_lines lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Nk_util.Strutil.split_first ':' line with
      | Some (k, v) -> go ((String.trim k, String.trim v) :: acc) rest
      | None -> Error ("malformed header line: " ^ line))
  in
  go [] lines

let decode_request s =
  match split_head s with
  | Error e -> Error e
  | Ok (head, body) -> (
    match String.split_on_char '\r' head |> List.map (fun l -> Nk_util.Strutil.replace_all l ~sub:"\n" ~by:"") with
    | [] -> Error "empty request"
    | request_line :: header_lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; target; _version ] -> (
        match (Url.parse target, parse_header_lines header_lines) with
        | Ok url, Ok headers ->
          Ok
            {
              Message.meth = Method_.of_string meth;
              url;
              headers = Headers.of_list headers;
              body = Body.of_string body;
              client = { Ip.ip = Ip.of_int32 0l; hostname = None };
            }
        | Error e, _ -> Error e
        | _, Error e -> Error e)
      | _ -> Error ("malformed request line: " ^ request_line)))

let decode_response s =
  match split_head s with
  | Error e -> Error e
  | Ok (head, body) -> (
    match String.split_on_char '\r' head |> List.map (fun l -> Nk_util.Strutil.replace_all l ~sub:"\n" ~by:"") with
    | [] -> Error "empty response"
    | status_line :: header_lines -> (
      match String.split_on_char ' ' status_line with
      | _version :: code :: _reason -> (
        match (int_of_string_opt code, parse_header_lines header_lines) with
        | Some status, Ok headers ->
          Ok
            {
              Message.status;
              resp_headers = Headers.of_list headers;
              resp_body = Body.of_string body;
            }
        | None, _ -> Error ("bad status code: " ^ code)
        | _, Error e -> Error e)
      | _ -> Error ("malformed status line: " ^ status_line)))

(* The sizes follow the encoders above byte for byte without building
   the message: "k: v\r\n" per header, "\r\n" after the headers, then
   the body. *)
let headers_wire_size headers =
  Headers.fold (fun k v n -> n + String.length k + String.length v + 4) headers 2

let decimal_length n =
  let rec go n digits = if n > -10 && n < 10 then digits else go (n / 10) (digits + 1) in
  go n (if n < 0 then 2 else 1)

(* "METHOD URL HTTP/1.1\r\n" *)
let request_wire_size (r : Message.request) =
  String.length (Method_.to_string r.meth)
  + String.length (Url.to_string r.url)
  + 12 + headers_wire_size r.headers + Body.length r.body

(* "HTTP/1.1 CODE REASON\r\n" *)
let response_wire_size (r : Message.response) =
  12 + decimal_length r.status
  + String.length (Status.reason r.status)
  + headers_wire_size r.resp_headers + Body.length r.resp_body
