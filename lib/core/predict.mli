(** Top-level prediction entry points: source text in, performance
    expression out. *)

open Pperf_lang
open Pperf_machine

type t = {
  routine : Ast.routine;
  symbols : Typecheck.symtab;
  machine : Machine.t;
  prediction : Aggregate.prediction;
}

val of_checked :
  ?options:Aggregate.options -> ?blocks:Aggregate.blocks -> machine:Machine.t -> Typecheck.checked -> t
(** [blocks]: see {!Aggregate.stmts}. *)

val of_source : ?options:Aggregate.options -> machine:Machine.t -> string -> t
(** Parse, check and predict a single-routine source.
    @raise Parser.Error or Typecheck.Type_error on bad input. *)

val cost : t -> Perf_expr.t
val total : t -> Pperf_symbolic.Poly.t
val prob_vars : t -> string list

val precision_diagnostics : t -> Pperf_lint.Diagnostic.t list
(** Every place the prediction went conservative: aggregation events
    (symbolic trip counts, invented probabilities, default-cost calls)
    merged with the static lint pass's [Precision] findings
    ({!Pperf_lint.Lint.run_precision}, which reads no ranges, so the
    findings are the same whether or not the prediction inferred them). *)

val default_prob : float
(** The value of a branch probability left unbound: 1/2. *)

val eval_prediction : Aggregate.prediction -> (string * float) list -> float
(** Total cycles at concrete unknowns; unbound probability variables
    default to {!default_prob}, other unbound unknowns to 1. *)

val eval : t -> (string * float) list -> float
(** {!eval_prediction} of the routine's prediction. *)

val pp : Format.formatter -> t -> unit

val register_in_library : Libtable.t -> t -> unit
(** Make this routine's prediction available to its callers (§3.5). *)
