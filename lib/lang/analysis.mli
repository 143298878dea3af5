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

(** {1 The loop-nest table}

    One table per analysed routine: its loops and its array references
    (in {!array_refs} order), each reference with its subscript
    polynomials and its affine views, every derived form computed on first
    use and kept. The dependence tests, lint's subscript and
    carried-dependence checks, the bound analysis and the memory model
    read a routine's references from one table instead of converting the
    subscripts again for every pair, check or nest. A table holds no
    global state: make one per routine per request. *)

type nest_loop = private {
  lctx : loop_ctx;
  lbounds : (Pperf_symbolic.Poly.t option * Pperf_symbolic.Poly.t option) Lazy.t;
      (** {!Sym_expr.to_poly} of the lower and upper bound *)
}

val nest_loop : loop_ctx -> nest_loop

type nest_ref
(** One reference with its derived forms. *)

val entry_ref : nest_ref -> array_ref
(** The reference, its [loops] every loop of the table's statements that
    encloses it. *)

val entry_loops : nest_ref -> nest_loop list
(** The table's entries of {!entry_ref}'s loops; references under one
    loop share its entry. *)

val subscript_polys : nest_ref -> Pperf_symbolic.Poly.t option list
(** {!Sym_expr.to_poly} of each subscript. *)

val affine_view : nest_ref -> from:int -> len:int -> (int list * Pperf_symbolic.Poly.t) option list
(** Each subscript's {!Sym_expr.affine_of_poly} over the variables of the
    window of [len] loops starting at loop [from] (0 = outermost). A
    window short of every loop is the full view with the other loops'
    terms folded into the residue, which is exact when the full view is
    affine and no loop name repeats; otherwise the window's view is
    computed from the polynomial. Each view counts once in
    [analysis.affine_views]. *)

type nests

val nests : Ast.stmt list -> nests
(** The table of the statements' loops and references. *)

val nest_refs : nests -> nest_ref array
(** Every reference's entry, in {!array_refs} order. *)

val loop_refs : nests -> Ast.do_loop -> (nest_ref * int) array
(** The references of one of the table's loops, its bound expressions'
    and its body's in {!array_refs} order, each with how many of its
    entry's loops enclose the loop.
    @raise Not_found when the loop (found by physical identity) is not
    one of the table's. *)

val body_refs : nests -> Ast.stmt list -> nest_ref array
(** The references of one of the table's statement lists (a loop's body,
    an [if]'s branch or the statements themselves, found by physical
    identity), in {!array_refs} order.
    @raise Not_found when a non-empty list is not one of the table's. *)

val innermost_refs : nests -> Ast.do_loop -> Ast.stmt list -> (nest_ref * int) array
(** The references of an innermost nest as {!innermost_nests} gives it,
    [d] its innermost loop and [body] its body: the bound expressions' of
    every loop from the outermost one in to [d], then [body]'s — the
    references of {!wrap_nest} of the nest — each with 0, as no loop
    encloses the nest.
    @raise Not_found as {!loop_refs} and {!body_refs}. *)

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
