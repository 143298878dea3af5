(** Flow-sensitive interval abstract interpretation over typechecked PF
    routines.

    A forward fixpoint maps each scalar to an {!Pperf_symbolic.Interval.t}:
    environments are seeded from declared array dimensions (an extent is at
    least one element), updated by literal and computed assignments, widened
    at loop heads (with one narrowing pass), and refined through branch
    conditions. [do] loops bind their index to [lo..hi] inside the body and
    record a sound trip-count interval.

    The inferred ranges feed the paper's range-based sign decisions (§3.1:
    "determine whether the expression is positive or negative based on
    bounds on the variables"): {!Pperf_core}'s comparison seeds its variable
    box from {!summary}, aggregation attaches bounds to symbolic trip
    counts, the dependence tests use subscript ranges to prove independence,
    and the lint checks drop false positives that the ranges refute. *)

open Pperf_symbolic
open Pperf_lang

type domain = Reldom.domain = Box | Octagon | Affine | Product
(** Abstract domain selector: [Box] is the interval-only analysis (the
    historical behaviour, zero relational overhead); [Octagon] adds
    [±x ± y <= c] difference facts; [Affine] adds exact equalities
    [x = Σ aᵢ·yᵢ + c]; [Product] runs both with mutual reduction. *)

val domain_of_string : string -> domain option
val domain_to_string : domain -> string
val all_domains : string list

type loop_range = {
  at : Srcloc.t;  (** location of the [do] statement *)
  lvar : string;  (** loop index variable *)
  index : Interval.t;  (** enclosure of the index over all iterations *)
  trip : Interval.t;  (** iteration count; always within [0, +inf) *)
  depth : int;  (** nesting depth, outermost loop = 0 *)
}

type result

val analyze : ?domain:domain -> Typecheck.checked -> result
(** Run the fixpoint over the routine body. Always terminates (widening
    jumps escaping bounds to infinity) and never raises. [domain] (default
    [Box]) additionally threads a relational state through the same
    fixpoint: loop-head guards assume [lo <= i <= hi] for loop-invariant
    bounds, affine assignments transfer exactly, and octagon bounds widen
    through thresholds harvested from the routine's integer literals. *)

val ranges_at : result -> Srcloc.t -> Interval.Env.t
(** Environment holding immediately {e before} the statement at this
    location: inside loop bodies the enclosing indexes are bound to their
    iteration ranges, inside branches the condition refinements apply.
    Unknown locations give the empty environment (every variable [full]). *)

val summary : result -> Interval.Env.t
(** Whole-routine box: for an assigned variable, the union of its values at
    every program point where the analysis tracked it; for a never-assigned
    input, only the routine-wide facts implied by array declarations (an
    array extent has at least one element). Flow-local branch refinements
    of inputs are deliberately excluded. *)

val exit_env : result -> Interval.Env.t
(** Join of the environments at every [return] and at fall-through. *)

val loops : result -> loop_range list
(** Every reachable [do] loop in source order, with index and trip
    enclosures computed in the stable environment at its entry. *)

val eval_expr : ?symtab:Typecheck.symtab -> Interval.Env.t -> Ast.expr -> Interval.t
(** Sound enclosure of an expression over the box; polynomial expressions
    go through {!Interval.eval_poly}, the rest structurally (division,
    [min]/[max]/[abs]/[mod]/[nint] intrinsics); unknown constructs give
    [full]. The symbol table tells which operands the interpreter computes
    on integers, where division truncates and a remainder stays under its
    divisor minus one; without it every variable is taken as real. *)

val int_div : Typecheck.symtab option -> Ast.expr -> bool
(** Whether the expression divides two operands that the interpreter
    computes on integers (under the symbol table, as {!eval_expr} decides
    them): it truncates that quotient, which no polynomial describes. *)

val decide_cond :
  ?rel:Reldom.t -> ?symtab:Typecheck.symtab -> Interval.Env.t -> Ast.expr -> bool option
(** [Some b] when the condition provably evaluates to [b] over the box,
    optionally sharpened by a relational state ([i - n <= -1] decides
    [i + 1 <= n] even when both boxes are unbounded). Non-polynomial sides
    are enclosed by {!eval_expr} under [symtab]. *)

val domain_used : result -> domain

val bound_at : result -> Srcloc.t -> Poly.t -> Interval.t
(** Enclosure of the polynomial at the location: interval evaluation met
    with the relational bound. *)

val decide_cond_at : result -> Srcloc.t -> Ast.expr -> bool option
(** {!decide_cond} in the environment and relational state at the
    location. *)

val summary_rel : result -> Reldom.t
(** Whole-routine relational summary: the exit relations that every
    recorded program point either entails or is agnostic about (all
    variables unconstrained there). Survivors are typically input
    couplings like [m = 2*n]; loop-local facts are filtered out. *)

val rewrites : result -> (string * Poly.t) list
(** Exact substitutions from the affine rows of {!summary_rel}, usable on
    arbitrary polynomials (e.g. [m = 2*n] turns [m·n] into [2·n²]). *)

val relations : result -> Lin.cons list
(** Displayable constraints of {!summary_rel}. *)

val relation_points : result -> (Srcloc.t * Lin.cons list) list
(** Every recorded program point with at least one relational fact, in
    source order — the [ranges --json] relational report. *)

val assume : Typecheck.symtab -> Interval.Env.t -> Ast.expr -> Interval.Env.t option
(** Refine the box assuming the condition holds; [None] when the condition
    is infeasible over the box. Affine comparisons tighten the interval of
    each variable occurring linearly (with floor/ceil rounding for integer
    variables); anything else is kept unrefined. *)

val restrict : Interval.Env.t -> keep:(string -> bool) -> Interval.Env.t
(** Drop bindings whose name fails the predicate — e.g. variables assigned
    inside a loop nest, whose entry-env range is not loop-invariant. *)

val pp_loop_range : Format.formatter -> loop_range -> unit
