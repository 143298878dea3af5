(** Incremental update of predictions (§3.3.1).

    "Each transformation defines an affected region of performance based on
    the structure it changes"; everything outside keeps its cached estimate.
    Realized structurally: per-unit predictions (a unit is a maximal
    straight-line run or one compound statement, the granularity
    {!Aggregate.stmts} works at) are memoized, at most 4,096 per
    predictor, under a full structural key (hashed by fingerprint,
    compared in full, so collisions can never return a stale prediction)
    plus the routine's symbol table (unit costs
    depend on variable types and array shapes, so a declarations-only edit
    re-predicts) and the probability-variable offset of the unit's
    position; re-predicting a transformed program recomputes exactly
    the units the transformation rebuilt, and the result — cost, [p{k}]
    names, precision diagnostics — is identical to a from-scratch
    {!Aggregate.routine} (asserted in tests).

    With [options.infer_ranges] set the interval analysis couples units
    through the whole body, so prediction falls back to from-scratch
    aggregation (no caching) rather than return subtly different ranges. *)

open Pperf_lang
open Pperf_machine

type t

val create : ?options:Aggregate.options -> Machine.t -> t

val predict_checked : t -> Typecheck.checked -> Aggregate.prediction
(** Same prediction as {!Aggregate.routine} (asserted in tests), reusing
    cached unit predictions. *)

val predict : t -> Typecheck.checked -> Perf_expr.t
(** [(predict_checked t c).cost]. *)

val stats : t -> int * int
(** [(hits, misses)] since creation or the last {!clear}. *)

val totals : unit -> int * int
(** [(hits, misses)] of every predictor in the process since the last
    {!Pperf_obs.Obs.reset_all}: the ["incremental.units"] memo family. *)

val clear : t -> unit
(** Drop every unit. A predictor that no memo holds must be cleared when
    its caller is done with it, or its units stay counted in the
    ["incremental.units"] entries. *)
