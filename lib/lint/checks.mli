(** The diagnostic check registry: independent passes over a checked PF
    routine.

    Each check inspects one class of static fact the prediction framework
    rests on (§2.2.2's analyzer assumptions) and reports where it is
    violated ([Error]/[Warning]) or where the analyzer falls back to a
    conservative answer ([Precision]). Checks are pure and independent —
    they share only the type-checked routine — so the registry can grow
    without coupling. *)

open Pperf_lang

type ctx = {
  known : string -> bool;
      (** routines with a known cost: defined in the same program or
          registered in a library cost table *)
  ranges : Pperf_absint.Absint.result option;
      (** interval abstract interpretation of the routine; when present,
          out-of-bounds and division-by-zero verdicts are rebutted by the
          flow-sensitive ranges, the dependence tests receive invariant
          variable ranges, and [constant-condition] activates *)
}

val default_ctx : ctx
(** Nothing known beyond the intrinsics; no ranges. *)

type check = {
  id : string;  (** stable identifier, shown as [severity[id]] *)
  about : string;  (** one-line description for docs and [--help] *)
  emits : Diagnostic.severity list;
      (** every severity [run] can return; the [test_lint] suite checks
          the tags against the samples *)
  run : ctx -> Typecheck.checked -> Diagnostic.t list;
}

val registry : check list
val ids : string list

val loop_carried :
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  loc:Srcloc.t ->
  Ast.do_loop ->
  Diagnostic.t list
(** The carried-dependence diagnostics of one loop — exposed so the
    transformation search can cite the diagnostic that blocked an action.
    [env] passes loop-invariant variable ranges to the dependence tests;
    [oracle] passes relational facts over unreassigned variables. *)
