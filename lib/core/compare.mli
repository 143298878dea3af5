(** Symbolic comparison of performance expressions (§3.1–3.2).

    Wraps {!Pperf_symbolic.Signs.compare_over} with performance-expression
    conveniences: compare two candidates over the variables' ranges and,
    when no side wins everywhere, recommend the one favoured on the larger
    share of the range — the systematic decision procedure the paper wants
    restructurers to use instead of guessing. Probability unknowns default
    to [0,1]; other unbound unknowns to non-negative ranges. *)

open Pperf_symbolic

type choice = First | Second | Either

type decision = {
  verdict : Signs.verdict;
  recommended : choice;
      (** for crossover/undecided verdicts: the candidate winning on the
          larger measure of the range (or at the midpoint) *)
  difference : Poly.t;  (** [total first - total second] *)
}

type rel_facts = {
  rel_domain : Pperf_absint.Absint.domain;
  rel_rewrites : (string * Poly.t) list;
      (** exact affine substitutions, e.g. [m ↦ 2·n] *)
  rel_oracle : Poly.t -> Interval.t;
      (** sound enclosure of a polynomial from the relational summary *)
  rel_show : string list;  (** the relations, rendered for display *)
}

val inferred_env :
  ?base:Interval.Env.t -> Pperf_lang.Typecheck.checked list -> Interval.Env.t
(** Seed a comparison environment from the interval abstract interpretation
    of the routines being compared (union when several routines constrain
    the same variable); bindings in [base] override inferred ones. *)

val inferred_rel :
  ?base:Interval.Env.t ->
  ?domain:Pperf_absint.Absint.domain ->
  Pperf_lang.Typecheck.checked list ->
  Interval.Env.t * rel_facts option
(** {!inferred_env} generalized over the abstract domain: relational
    domains additionally return the joined whole-routine relations (facts
    must hold in {e every} routine to survive the join, so the oracle is
    sound for the comparison). [None] under the default [Box] domain. *)

val decide :
  ?eps:Pperf_num.Rat.t ->
  ?depth:int ->
  ?rel:rel_facts ->
  Interval.Env.t ->
  Perf_expr.t ->
  Perf_expr.t ->
  decision
(** Variables the environment pins to a point are substituted into both
    expressions before the sign analysis, so e.g. a known scalar loop bound
    turns a multivariate difference into a decidable univariate one.
    [rel] applies its affine rewrites to both expressions first and feeds
    its oracle to the sign analysis; decided verdicts bump a per-domain
    [compare.decided.<domain>] counter.

    Verdicts are memoized per worker domain behind a capped table keyed on
    a digest of the rewritten totals, the environment restricted to their
    variables, [eps]/[depth], and the relational facts; repeat comparisons
    skip the sign analysis entirely ([compare.memo.hits] /
    [compare.memo.misses] counters). *)

val pp_decision : Format.formatter -> decision -> unit
