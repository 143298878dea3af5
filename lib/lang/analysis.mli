(** Program analysis over PF ASTs: loop structure, variable def/use, and
    array reference collection.

    The paper's framework assumes "the cost model does not need to do most
    of the analysis needed for these tasks since [the] program analyzer can
    provide these information" (§2.2.2) — this module is that analyzer. *)

module SSet : Set.S with type elt = string

type loop_ctx = {
  lvar : string;
  llo : Ast.expr;
  lhi : Ast.expr;
  lstep : Ast.expr option;
}

type array_ref = {
  array : string;
  subs : Ast.expr list;
  is_write : bool;
  loops : loop_ctx list;  (** enclosing loops, outermost first *)
  at : Srcloc.t;
}

val array_refs : Ast.stmt list -> array_ref list
(** All array references in textual order, with their loop context. *)

val assigned_vars : Ast.stmt list -> SSet.t
(** Scalars and arrays that may be written (loop indices included). *)

val used_vars : Ast.stmt list -> SSet.t
(** Scalars and arrays read. *)

val expr_reads : Ast.expr -> SSet.t

val loop_indices : Ast.stmt list -> SSet.t
(** All [do] indices in the fragment. *)

val has_call : Ast.expr -> bool
(** Whether the expression contains any function call. *)

val perfect_nest : Ast.do_loop -> loop_ctx list * Ast.stmt list
(** Longest chain of singly-nested loops from this loop inward, and the
    innermost body. *)

val innermost_nests : Ast.stmt list -> (loop_ctx list * Ast.do_loop * Ast.stmt list) list
(** Every maximal innermost loop body (no [do] inside) with its loop
    context and its innermost enclosing loop — the granularity of
    straight-line cost estimation. A loop whose body holds a [do] beside
    an [if] contributes the [if]'s branch bodies, each with that loop. *)

val innermost_bodies : Ast.stmt list -> (loop_ctx list * Ast.stmt list) list
(** {!innermost_nests} without the enclosing loops. *)

(** {1 Loop-costing rules}

    The one copy of each rule the aggregation (§2.4) applies to a loop,
    shared by everything that costs a loop body the same way: the
    interpreter, the bound analysis, the schedule view and the memory and
    communication models. *)

val is_straight : Ast.stmt -> bool
(** Is the statement straight-line at its own level (no loop, no branch)?
    Adjacent straight-line statements are translated and costed as one
    block. *)

val split_run : Ast.stmt list -> Ast.stmt list * Ast.stmt list
(** The maximal leading straight-line run (empty when the list starts
    with a compound statement) and the rest. *)

val units : Ast.stmt list -> Ast.stmt list list
(** The body cut into the units aggregation costs independently: maximal
    straight-line runs and single compound statements, in order. *)

val declared_names : Typecheck.symtab -> SSet.t
(** Every name the routine declares, the [declared] of {!loop_invariants}. *)

val loop_invariants : declared:SSet.t -> Ast.do_loop -> SSet.t
(** What every block inside the loop may treat as invariant, imitating the
    back-end's loop-invariant code motion (§2.2.2): the names the body
    reads or the routine declares, minus what the body may write and the
    loop index. *)

val trip : loop_ctx -> Pperf_symbolic.Poly.t
(** The loop's trip count: the closed form of {!Sym_expr.trip_count},
    else the free variable {!trip_var} of its index. *)

val trip_var : string -> string
(** [trip_var i]: the free variable ([trip_i]) standing for the trip
    count of a loop over [i] with no closed form. *)

val is_trip_var : string -> bool
(** Is the name one {!trip_var} makes? *)

val wrap_nest : loop_ctx list -> Ast.stmt list -> Ast.stmt list
(** The body rebuilt inside [do] statements from its loop contexts,
    outermost first. *)

(** {1 Running a nest on concrete integers}

    The one evaluator and walker of the validation simulators (the cache
    and message-passing models); each simulator adds only its model. *)

exception Not_integer of Ast.expr
(** The (sub)expression that is not integer arithmetic. *)

val eval_int : (string -> int) -> Ast.expr -> int
(** The value under the environment of literals, variables, negation,
    [+ - * /], [mod], [min]/[min0] and [max]/[max0].
    @raise Not_integer on anything else. *)

val run_nest :
  bounds:(string -> int) ->
  skip:(Srcloc.t -> string -> Ast.expr -> unit) ->
  ?outer_iteration:(unit -> unit) ->
  (skip:(Srcloc.t -> string -> Ast.expr -> unit) ->
  (string -> int) -> Srcloc.t -> Ast.lhs -> Ast.expr -> unit) ->
  loop_ctx list ->
  Ast.stmt list ->
  unit
(** [run_nest ~bounds ~skip assign loops body] runs the body inside its
    loops, [bounds] giving the free variables: each [do] iterates over its
    evaluated bounds, each [if] runs its first branch, and each assignment
    goes to [assign] with the index environment and its location.
    [skip loc what e] reports that [e], the [what] at [loc], is not an
    integer; it is called once per location and [what], and [assign]
    receives it for its own skips. A loop whose bounds are not integers is
    skipped. [outer_iteration] runs after each iteration of a top-level
    loop. *)
