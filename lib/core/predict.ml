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

let of_checked ?(options = Aggregate.default_options) ?blocks ~machine
    (checked : Typecheck.checked) =
  {
    routine = checked.routine;
    symbols = checked.symbols;
    machine;
    prediction = Aggregate.routine ~machine ~options ?blocks checked;
  }

let of_source ?options ~machine src =
  let checked = Typecheck.check_routine (Parser.parse_routine src) in
  of_checked ?options ~machine checked

let cost t = t.prediction.cost
let total t = Perf_expr.total t.prediction.cost
let prob_vars t = t.prediction.prob_vars

(** Every place this prediction went conservative: the aggregation's own
    events plus the lint pass's precision checks, deduplicated. *)
let precision_diagnostics t =
  let checked = { Typecheck.routine = t.routine; symbols = t.symbols } in
  Pperf_lint.Lint.dedupe (t.prediction.diagnostics @ Pperf_lint.Lint.run_precision checked)

let default_prob = 0.5

let eval_prediction (p : Aggregate.prediction) (bindings : (string * float) list) =
  Pperf_symbolic.Poly.eval_float
    (fun v ->
      match List.assoc_opt v bindings with
      | Some f -> f
      | None -> if List.mem v p.prob_vars then default_prob else 1.0)
    (Perf_expr.total p.cost)

let eval t bindings = eval_prediction t.prediction bindings

let pp fmt t =
  Format.fprintf fmt "%s on %s: %a" t.routine.rname t.machine.Machine.name Perf_expr.pp
    t.prediction.cost

(** Register a routine's own prediction in a library cost table so its
    callers can charge it at call sites (§3.5). *)
let register_in_library lib t =
  Libtable.register lib t.routine.rname ~formals:t.routine.params t.prediction.cost
