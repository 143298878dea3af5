(** Human-readable prediction reports.

    Collects in one place what a compiler engineer (or the paper's reader)
    wants to see about a prediction: the performance expression by cost
    category, the unknowns and their assumed ranges, evaluations at sample
    points, the sensitivity ranking (§3.4), and per-loop-nest hot spots. *)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine

type hotspot = {
  loops : string list;  (** enclosing loop variables, outermost first *)
  at : Srcloc.t;
  cycles_per_iteration : int;
}

type t = {
  routine : string;
  machine : string;
  cost : Perf_expr.t;
  prob_vars : string list;
  unknowns : (string * Interval.t) list;
  samples : (float * float) list;  (** (n, predicted cycles) with others at midpoints *)
  sensitivity : Sensitivity.report list;
  hotspots : hotspot list;
  bounds : Pperf_bounds.Bounds.nest list;
  diagnostics : Pperf_lint.Diagnostic.t list;
}

let generate ?(options = Aggregate.default_options) ?(env = Interval.Env.empty) ~machine
    (checked : Typecheck.checked) : t =
  let prediction = Aggregate.routine ~machine ~options checked in
  let bound_summary =
    Pperf_bounds.Bounds.analyze ~machine ~include_memory:options.include_memory checked
  in
  let total = Perf_expr.total prediction.cost in
  let unknowns = List.map (fun v -> (v, Interval.Env.find v env)) (Poly.vars total) in
  let valuation n v =
    if List.mem v prediction.prob_vars then Predict.default_prob
    else if String.equal v "n" then n
    else Rat.to_float (Interval.Env.midpoint_valuation env v)
  in
  let samples =
    if Poly.mem_var "n" total then
      List.map (fun n -> (n, Poly.eval_float (valuation n) total)) [ 64.; 256.; 1024. ]
    else []
  in
  {
    routine = checked.routine.rname;
    machine = machine.Machine.name;
    cost = prediction.cost;
    prob_vars = prediction.prob_vars;
    unknowns;
    samples;
    sensitivity = Sensitivity.rank env total;
    hotspots =
      (* the bin-packing bound's per-iteration cost is the steady state of
         the body plus loop control: the expression's coefficient *)
      List.map
        (fun (n : Pperf_bounds.Bounds.nest) ->
          { loops = n.loop_vars; at = n.at; cycles_per_iteration = n.bin_per_iter })
        bound_summary.nests
      |> List.sort (fun a b -> compare b.cycles_per_iteration a.cycles_per_iteration);
    bounds = bound_summary.nests;
    diagnostics =
      (* the aggregation's own events, merged with the bound-disagreement
         events and the static lint pass so the report names every source
         of conservatism (and optimism) once *)
      Pperf_lint.Lint.dedupe
        (prediction.diagnostics @ bound_summary.diagnostics
        @ Pperf_lint.Lint.run_precision checked);
  }

let pp fmt (t : t) =
  Format.fprintf fmt "# Performance prediction: %s on %s@.@." t.routine t.machine;
  Format.fprintf fmt "expression: %a@." Perf_expr.pp t.cost;
  if t.unknowns <> [] then (
    Format.fprintf fmt "@.unknowns:@.";
    List.iter
      (fun (v, iv) ->
        Format.fprintf fmt "  %-12s in %s%s@." v (Interval.to_string iv)
          (if List.mem v t.prob_vars then "  (branch probability)" else ""))
      t.unknowns);
  if t.samples <> [] then (
    Format.fprintf fmt "@.evaluations (other unknowns at range midpoints):@.";
    List.iter (fun (n, c) -> Format.fprintf fmt "  n = %-6.0f -> %.0f cycles@." n c) t.samples);
  if t.sensitivity <> [] then (
    Format.fprintf fmt "@.sensitivity (most influential unknowns first):@.";
    List.iter (fun r -> Format.fprintf fmt "  %a@." Sensitivity.pp_report r) t.sensitivity);
  if t.hotspots <> [] then (
    Format.fprintf fmt "@.innermost loop bodies (steady-state cycles per iteration):@.";
    List.iter
      (fun h ->
        Format.fprintf fmt "  line %-4d loops [%s]: %d cycles/iter@." h.at.Srcloc.line
          (String.concat "," h.loops) h.cycles_per_iteration)
      t.hotspots);
  if t.bounds <> [] then (
    Format.fprintf fmt "@.bounds (bin-packing vs critical-path/LCD vs memory, max wins):@.";
    List.iter
      (fun (n : Pperf_bounds.Bounds.nest) ->
        Format.fprintf fmt "  line %-4d bin %d/iter, cp %d%s%s -> %s@." n.at.Srcloc.line
          n.bin_per_iter n.critical_path
          (if Pperf_num.Rat.is_zero n.lcd_per_iter then ""
           else Printf.sprintf ", lcd %s/iter" (Pperf_num.Rat.to_string n.lcd_per_iter))
          (match n.mem_bound with
           | Some m -> Printf.sprintf ", mem %s" (Poly.to_string m)
           | None -> "")
          (Pperf_bounds.Bounds.classification_string n.classification))
      t.bounds);
  if t.diagnostics <> [] then (
    Format.fprintf fmt "@.precision diagnostics (where the prediction is conservative):@.";
    List.iter
      (fun d -> Format.fprintf fmt "  %a@." Pperf_lint.Diagnostic.pp_short d)
      t.diagnostics)

let to_string t = Format.asprintf "%a" pp t
