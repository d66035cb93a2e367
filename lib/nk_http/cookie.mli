(** Cookie header parsing and Set-Cookie construction, as exposed to
    scripts through the cookie vocabulary (§3.1). *)

val parse : string -> (string * string) list
(** Parse a [Cookie:] request header ("k=v; k2=v2"). *)

val set_cookie :
  ?path:string -> ?max_age:int -> ?http_only:bool -> name:string -> value:string -> unit -> string
(** Render a [Set-Cookie:] response header value. *)

val parse_set_cookie : string -> (string * string) option
(** Extract the name/value pair of a [Set-Cookie:] header, ignoring
    attributes. *)
