(** HTTP status codes and reason phrases. *)

type t = int

val reason : t -> string
(** RFC 2616 reason phrase, or ["Unknown"] for unassigned codes. *)

val is_success : t -> bool
val is_redirect : t -> bool
val is_client_error : t -> bool
val is_server_error : t -> bool

val ok : t
val not_modified : t
val found : t
val forbidden : t
