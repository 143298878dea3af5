(** Target machine descriptions.

    A machine bundles its functional units, its table of atomic operations
    with their costs (the paper's {e atomic operation cost table}), pipeline
    parameters used by the reference back-end, a memory hierarchy
    description for the cache cost model, and optionally message-passing
    parameters for distributed-memory configurations.

    Porting the predictor to a new architecture is, per the paper, "a matter
    of defining the atomic operation mapping and the atomic operation cost
    table" — see {!make} and {!make_ports}, {!Descr} for the textual
    format, and {!Descr.builtin} for the shipped machines, which are such
    text. *)

type cache_params = {
  line_bytes : int;
  cache_bytes : int;
  associativity : int;  (** 0 = fully associative *)
  miss_cycles : int;
  tlb_entries : int;
  page_bytes : int;
  tlb_miss_cycles : int;
}

type comm_params = {
  processors : int;
  startup_cycles : int;  (** per-message software overhead (alpha) *)
  per_byte_cycles : float;  (** inverse bandwidth (beta) *)
}

type table
(** The functional units and the atomic-operation cost table, read through
    the accessors below. *)

type t = {
  name : string;
  table : table;
  model : Costmodel.kind;  (** the dialect the cost table was described in *)
  issue_width : int;
  branch_taken_cycles : int;
      (** extra cycles charged for a taken branch that the schedule cannot
          hide *)
  register_load_limit : int;
      (** §2.2.1: limited registers are simulated by forcing a store after
          this many outstanding loads *)
  has_fma : bool;
  cache : cache_params;
  comm : comm_params option;
}

val make :
  name:string ->
  units:(string * Funit.kind) list ->
  atomics:(string * (int * int * int) list) list ->
  ?issue_width:int ->
  ?branch_taken_cycles:int ->
  ?register_load_limit:int ->
  ?has_fma:bool ->
  ?cache:cache_params ->
  ?comm:comm_params ->
  unit ->
  t
(** Build a {!Costmodel.Classic} machine. Each component of an atomic op
    [(unit, noncoverable, coverable)] may be placed on any unit of its
    unit's kind: its eligible set is that unit, then the other units of
    the kind in id order.
    @raise Invalid_argument on dangling unit ids, duplicate names, or an
    op naming one unit twice. *)

val make_ports :
  name:string ->
  ports:string list ->
  atomics:(string * int * (string list * int) list) list ->
  ?issue_width:int ->
  ?branch_taken_cycles:int ->
  ?register_load_limit:int ->
  ?has_fma:bool ->
  ?cache:cache_params ->
  ?comm:comm_params ->
  unit ->
  t
(** Build a {!Costmodel.Ports} machine. Every unit is an issue port
    ({!Funit.Port}); each atomic op is [(name, latency, groups)] where a
    group [(ports, count)] contributes [count] µops eligible to any port in
    [ports]. Groups are canonicalized and lowered round-robin to scheduler
    components (see {!Costmodel.lower}).
    @raise Invalid_argument on missing ports, duplicate names, or negative
    costs. *)

exception Unknown_atomic of { machine : string; op : string }
(** A required operation is missing from a machine's cost table — typically
    a hand-written [.pmach] description that omits an op the translator
    needs. Carries both names so drivers can report them and exit cleanly
    instead of surfacing an anonymous [Failure]. *)

val atomic : t -> string -> Atomic_op.t
(** @raise Unknown_atomic naming the machine and operation when the
    operation is not in the cost table. *)

val atomic_opt : t -> string -> Atomic_op.t option

val hash : t -> int
(** Hash of the name, which never changes. Memo tables key a machine by
    physical identity and hash it with this. *)

val has_atomic : t -> string -> bool
val num_units : t -> int
val units_of_kind : t -> Funit.kind -> Funit.t list
val default_cache : cache_params

(** {1 Cost-model accessors}

    Both cost models present their units and cost table through these. *)

val model : t -> Costmodel.kind
val unit_at : t -> int -> Funit.t
val iter_units : (Funit.t -> unit) -> t -> unit
val num_atomics : t -> int
val iter_atomics : (string -> Atomic_op.t -> unit) -> t -> unit
val fold_atomics : (string -> Atomic_op.t -> 'a -> 'a) -> t -> 'a -> 'a

val reciprocal_throughput : t -> Atomic_op.t -> float
(** Steady-state cycles per back-to-back instance of the op, read from
    its components' eligible sets (see {!Costmodel.reciprocal_throughput}). *)
