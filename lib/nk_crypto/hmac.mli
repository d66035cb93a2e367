(** HMAC-SHA256 (RFC 2104).

    Models the [X-Signature] freshness signature of §6: the trusted
    registry holds the key, so a valid MAC plays the role of the
    publisher's signature over content hash + cache-control headers. *)

val mac : key:string -> string -> string
(** Raw 32-byte MAC. *)

val mac_hex : key:string -> string -> string

val equal : string -> string -> bool
(** Constant-shape string comparison: the time taken depends on the
    lengths only, never on where the strings first differ. Use it for
    any MAC check, raw or hex. *)

val verify : key:string -> msg:string -> mac:string -> bool
(** Constant-shape comparison of a raw MAC. *)
