(** Symbolic cost aggregation of compound statements (§2.4).

    Straight-line runs are costed by the Tetris model; loops multiply the
    per-iteration cost by a (possibly symbolic) trip count and add bound
    evaluation; conditionals combine branch costs with branching
    probabilities:

    {v
    C(do i = lb, ub, st {B}) = C(lb)+C(ub)+C(st) + trip * C(B) + hoisted(B)
    C(if c then Bt else Bf)  = C(c) + pt*C(Bt) + pf*C(Bf) + c_br
    v}

    Unknown loop bounds become polynomial variables named after the program
    variable; unknown branching probabilities become fresh [p1, p2, ...]
    variables in [0,1]. The §3.3.2 avoidance heuristics are applied:
    near-equal branches drop their probability variable; conditions on the
    enclosing loop index turn into iteration counts ([C = k*C(Bt) +
    (n-k)*C(Bf)], the paper's example) instead of probabilities.

    Loop-invariant (one-time) costs identified by the translator are
    charged per loop {e entry}, not per iteration. The per-iteration cost
    of an innermost block is the {e steady-state} cost — the body is
    dropped into the bins twice and the increment is used, capturing
    software overlap between consecutive iterations (§2.4.2, Fig. 9). *)

open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_commcost
open Pperf_translate

type options = {
  flags : Flags.t;
  include_memory : bool;  (** add the §2.3 cache model's cycles *)
  layouts : Commcost.layouts option;  (** when set, add communication cost *)
  branch_prob : Srcloc.t -> int -> Poly.t option;
      (** profile-derived probabilities (§3.4): [branch_prob loc k] is the
          probability that the [if] at [loc] takes its branch [k] (0 for
          the first condition, counting down an [elseif] chain; the [else]
          gets the rest); overrides the heuristics *)
  near_equal_tol : float;
      (** §3.3.2: treat branch costs within this relative tolerance as
          equal and skip the probability variable *)
  library : Libtable.t option;
  infer_ranges : bool;
      (** run the interval abstract interpretation over the routine and use
          the inferred ranges: symbolic-trip precision events carry the
          inferred trip bounds, and closed-form trips not provably
          non-negative over the ranges are reported *)
  range_domain : Pperf_absint.Absint.domain;
      (** abstract domain for that analysis (default [Box]); relational
          domains sharpen the flow-sensitive facts the events consult *)
}

val default_options : options

type prediction = {
  cost : Perf_expr.t;
  prob_vars : string list;  (** fresh probability unknowns introduced *)
  diagnostics : Pperf_lint.Diagnostic.t list;
      (** [Precision] events recorded while aggregating: symbolic trip
          counts, invented branch probabilities, stacked-placement
          fallbacks — each one a place where the prediction went
          conservative. Calls without a cost model are lint's
          [unknown-call] check, which every diagnostics printer merges in. *)
}

type blocks
(** A request's block table: each block's translation and drops, made
    once per loop context. A block is keyed by its statements (or its
    condition or bound expressions) without their locations, its loop
    variables, its invariants and its symbol table (two that declare the
    same symbols count as one). The table serves one machine and flag
    set; used with another it starts over. It keeps a block's translation
    only while the routine that met it is aggregated, but for a loop body
    charged with its loop control, and its drops until the table dies.
    Create one per request and never keep it longer: it holds every block
    it met. *)

val blocks : unit -> blocks

val stmts :
  machine:Machine.t ->
  ?options:options ->
  ?prob_offset:int ->
  ?blocks:blocks ->
  symtab:Typecheck.symtab ->
  Ast.stmt list ->
  prediction
(** [prob_offset] (default 0) starts the fresh-probability-variable counter
    at [p{offset+1}], so a statement group costed on its own gets the same
    variable names it would get at position [offset] of a larger body.
    [blocks] (default: a fresh table) shares translations and drops with
    the other aggregations of the request that use it; the prediction is
    the same either way, and a stacked-placement fallback is reported at
    each block's own location. *)

val routine :
  machine:Machine.t -> ?options:options -> ?blocks:blocks -> Typecheck.checked -> prediction

val loop_body :
  blocks ->
  machine:Machine.t ->
  symtab:Typecheck.symtab ->
  loop_vars:string list ->
  invariants:Analysis.SSet.t ->
  Ast.stmt list ->
  Pperf_bounds.Bounds.translated option
(** A loop body an aggregation with this table charged as one block with
    its loop control (the loop's variables and invariants as given): its
    translation, and the first and the per-iteration cost of the body
    plus loop control dropped twice, as {!Pperf_bounds.Bounds.analyze}
    reads them. [None] when no aggregation met it, or the table serves
    another machine or flags other than the default. *)

(** {1 Block costs}

    The Tetris cost of each block {!stmts} charges, in the loop context
    that holds it. {!stmts} composes them (trip counts, branch
    probabilities, hoisting once per entry); the interpreter charges the
    same functions along the executed path. [loc] places the precision
    event of a stacked-placement fallback. *)

type block_ctx
(** The machine, options and symbol table, with the enclosing loops'
    variables and invariants, and a block table. *)

val block_ctx : machine:Machine.t -> options:options -> symtab:Typecheck.symtab -> block_ctx
(** A routine's top level: no enclosing loop, a fresh block table. *)

val enter_loop : block_ctx -> Ast.do_loop -> block_ctx
(** The loop body's context: the index joins the loop variables and the
    loop's {!Analysis.loop_invariants} become the invariants. *)

type block
(** A straight-line run or a condition, translated in its context; each
    of its drops is made once. *)

val translate_run : block_ctx -> Ast.stmt list -> block
(** A straight-line run, translated in the context. *)

val run_cost : block_ctx -> loc:Srcloc.t -> block -> int
(** A run outside a loop body: its hoisted and per-execution parts dropped
    together. *)

val iteration_cost : block_ctx -> loc:Srcloc.t -> control:bool -> block -> int
(** A run in a loop body, per iteration: the two-drop steady state, with
    the loop control folded in when [control] (the body's first run). *)

val hoisted_cost : block_ctx -> loc:Srcloc.t -> block -> int
(** A loop-body run's hoisted part, charged once per loop entry. *)

val bound_cost : block_ctx -> loc:Srcloc.t -> Ast.do_loop -> int
(** The loop's bound evaluation, once per entry, in the context enclosing
    the loop. *)

val control_cost : block_ctx -> loc:Srcloc.t -> int
(** The loop control alone, per iteration of a body no run absorbs it in. *)

val translate_cond : block_ctx -> Ast.expr -> block
(** A condition, translated in the context. *)

val cond_cost : block_ctx -> loc:Srcloc.t -> block -> int
(** A condition's drop, per evaluation. *)

val branch_penalty : block_ctx -> block -> Ast.stmt list -> int
(** The §2.2.2 shape-matched taken-branch penalty of a branch body under
    its condition: the machine's branch cycles that remain uncovered after
    the body's leading block overlaps the condition's block. *)
