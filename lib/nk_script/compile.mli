(** Closure compilation of NKScript.

    Lowers a parsed program once into OCaml closures with variables
    resolved to lexical slot addresses (frame arrays indexed at compile
    time). True globals go through a one-entry cache at each compiled
    site, which holds the cell the name last resolved to; cells are
    stable while bound and tombstoned on unbind, so a hit probes no
    table. Plus a
    process-wide compiled-program cache keyed by SHA-256 of the script
    body — each distinct script (client wall, site script, server wall)
    is parsed and compiled once per process no matter how many stages
    or nodes load it.

    Semantics, error messages, and — critically — fuel and heap
    accounting are identical to the reference tree-walker ({!Interp}):
    compiled closures call the same [charge_fuel]/[charge_alloc] sites
    per operation, so resource-monitor congestion numbers and
    termination points are bit-for-bit preserved. The differential test
    suite ([test_compile.ml]) enforces this over random programs. *)

type program
(** A compiled program. Context-independent: the same value may be
    executed in any number of scripting contexts (this is what the
    cache shares across stages). *)

val compile : Ast.program -> program

val run : Interp.ctx -> program -> Value.t
(** Execute a compiled program; same contract as {!Interp.run}: returns
    the value of the final toplevel expression statement, raises
    [Value.Script_error] / [Interp.Resource_exhausted] /
    [Interp.Terminated] exactly as the tree-walker would. *)

val get_program : ?on_cache:([ `Hit | `Miss ] -> unit) -> string -> program
(** Fetch from (or compile into) the process-wide cache, keyed by
    SHA-256 of [source]. [on_cache] fires before any parse work, so a
    [`Miss] that then fails to parse is still reported (the caller
    negative-caches failing sources). Raises [Parser.Parse_error] /
    [Lexer.Lex_error] on a miss for invalid sources; failures are not
    cached. *)

val run_string : ?on_cache:([ `Hit | `Miss ] -> unit) -> Interp.ctx -> string -> Value.t
(** [run] ∘ [get_program]: the production entry point used by stages,
    [evalScript] and NKP. *)

type cache_stats = { hits : int; misses : int; entries : int; evictions : int }

val cache_stats : unit -> cache_stats

val cache_clear : unit -> unit
(** Drop all cached programs (tests/benchmarks). Counters are not
    reset. *)

val set_cache_capacity : int -> unit
(** Bound on cached programs (default 1024, clamped to >= 1). On
    overflow the least-recently-used entry is evicted — counted in
    [cache_stats.evictions] — so a flood of distinct script bodies
    (e.g. diffusion hash-miss traffic) cannot grow the table without
    bound or flush the hot wall scripts. *)

val find_cached_by_hash : string -> program option
(** Resolve an already-known SHA-256 digest (as produced by
    {!Nk_crypto.Sha256.digest}) against the cache without having the
    source — the diffusion receiver's lookup when an offload envelope
    names a program by hash. Counts as an LRU touch but not as a
    hit/miss (the caller accounts hash misses itself). Memory only: a
    program this process never compiled, or one the LRU dropped, is a
    miss. *)
