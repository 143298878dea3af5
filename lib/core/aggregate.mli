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
  branch_prob : Srcloc.t -> Poly.t option;
      (** profile-derived probabilities (§3.4); overrides the heuristics *)
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

val stmts :
  machine:Machine.t ->
  ?options:options ->
  ?prob_offset:int ->
  symtab:Typecheck.symtab ->
  Ast.stmt list ->
  prediction
(** [prob_offset] (default 0) starts the fresh-probability-variable counter
    at [p{offset+1}], so a statement group costed on its own gets the same
    variable names it would get at position [offset] of a larger body. *)

val routine : machine:Machine.t -> ?options:options -> Typecheck.checked -> prediction

val if_penalty :
  machine:Machine.t ->
  ?options:options ->
  symtab:Typecheck.symtab ->
  ?loop_vars:string list ->
  ?invariants:Analysis.SSet.t ->
  Pperf_sched.Dag.t ->
  Ast.stmt list ->
  int
(** The §2.2.2 shape-matched taken-branch penalty: how many of the
    machine's branch cycles remain uncovered after the branch body's
    leading block overlaps the condition's block. Shared with the
    interpreter so static and dynamic accounting agree. *)
