(** The NKScript evaluator and its sandbox.

    Each scripting context is fully isolated: it owns its globals and is
    subject to a fuel (CPU) and heap limit, mirroring the per-pipeline
    sandboxing of §3.2/§4. The resource monitor reads [fuel_used] /
    [heap_used] for congestion accounting and calls [kill] to terminate
    a pipeline mid-execution. *)

type ctx = Value.ctx
(** The concrete record lives in {!Value} so that compiled closures
    ({!Value.compiled_fn}, produced by {!Compile}) can reference the
    context without a dependency cycle. Treat it as abstract: use the
    accessors below. *)

exception Resource_exhausted of string
(** Fuel or heap limit exceeded. *)

exception Terminated
(** The context was killed by the resource monitor. *)

val create : ?max_fuel:int -> ?max_heap_bytes:int -> unit -> ctx
(** Defaults: 5,000,000 fuel units and 64 MiB of script heap. *)

val define_global : ctx -> string -> Value.t -> unit

val get_global : ctx -> string -> Value.t option

val remove_global : ctx -> string -> unit

val run : ctx -> Ast.program -> Value.t
(** Execute a program with the reference tree-walking evaluator;
    returns the value of the final expression statement ([Vundefined]
    when none). Raises [Value.Script_error] for runtime errors and the
    sandbox exceptions above.

    Production paths (stages, [evalScript], NKP) run scripts through
    {!Compile} instead, which executes pre-compiled closures with
    identical semantics and identical fuel/heap accounting; the
    tree-walker remains the executable specification the differential
    tests compare against. *)

val run_string : ctx -> string -> Value.t
(** Parse then [run]. Also raises [Parser.Parse_error] /
    [Lexer.Lex_error]. *)

val apply : ctx -> ?this:Value.t -> Value.t -> Value.t list -> Value.t
(** Call a function value (event handlers are invoked this way). *)

val consume_fuel : ctx -> int -> unit
(** Charge additional fuel from native (vocabulary) code, so
    data-proportional platform work — XML transforms, image scaling —
    counts against the sandbox and the CPU model like interpreted work
    does. Raises [Resource_exhausted] / [Terminated] like any
    evaluation step. *)

val fuel_used : ctx -> int
val heap_used : ctx -> int

val reset_usage : ctx -> unit
(** Zero the fuel/heap counters (called between requests when a node
    reuses a cached stage's context). When a usage observer is installed, it is
    invoked with the outgoing non-zero counters first. *)

val set_usage_observer : ctx -> (fuel:int -> heap:int -> unit) -> unit
(** Publish per-pipeline fuel/heap consumption to telemetry: the
    observer fires on every {!reset_usage} that discards non-zero
    usage. *)

val kill : ctx -> unit
(** Make the next evaluation step raise [Terminated]. *)

val revive : ctx -> unit

(** {1 Shared runtime surface}

    The value-level operations of the evaluator, exposed so that
    {!Compile}'s generated closures execute the very same code (and
    therefore charge the very same fuel and heap) as the tree-walker.
    Not intended for general use. *)

exception Return_exc of Value.t
(** Non-local control flow inside the evaluator; shared with compiled
    code so [return] / [break] / [continue] / [throw] cross between
    compiled and interpreted frames transparently. *)

exception Break_exc

exception Continue_exc

exception Throw_exc of Value.t

val charge_fuel : ctx -> int -> unit
(** [consume_fuel] without the non-negativity clamp: one unit per AST
    node, exactly as the tree-walker charges. *)

val charge_alloc : ctx -> Value.t -> unit
(** Charge [Value.alloc_size v] against the heap limit. *)

val eval_binop : ctx -> Ast.binop -> Value.t -> Value.t -> Value.t

val member_get : ctx -> Value.t -> string -> Value.t

val member_set : Value.t -> string -> Value.t -> unit

val index_get : ctx -> Value.t -> Value.t -> Value.t

val index_set : Value.t -> Value.t -> Value.t -> unit

val invoke_method : ctx -> Value.t -> string -> Value.t list -> Value.t
(** Method-call dispatch: [o.m(args)] on objects, strings, byte arrays
    and arrays, with [this] bound for script functions. *)

val construct : ctx -> Value.t -> Value.t list -> Value.t
(** The [new] protocol. *)
