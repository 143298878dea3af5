(* Automatic, performance-guided restructuring (§3.2): A*-style search over
   transformation sequences, scored by the predictor.

     dune exec examples/transform_search.exe
*)

open Pperf_lang
open Pperf_machine
open Pperf_symbolic
open Pperf_core
open Pperf_transform

let machine = Descr.builtin "power1"

let source = {|
subroutine sweep(a, b, n)
  integer n, i, j
  real a(512,512), b(512,512)
  do i = 1, n
    do j = 1, n
      a(i,j) = a(i,j) * 0.5 + b(i,j)
    end do
  end do
end
|}

let () =
  let checked = Typecheck.check_routine (Parser.parse_routine source) in
  Format.printf "original program:@.%s@." (Pp_ast.routine_to_string checked.routine);

  let env = Interval.Env.of_list [ ("n", Interval.of_ints 256 256) ] in
  let options = { Aggregate.default_options with include_memory = true } in

  (* what moves are even on the table? *)
  let actions = Search.candidate_actions checked.routine in
  Format.printf "candidate transformations: %d@." (List.length actions);
  List.iter
    (fun (name, path, apply) ->
      let legal = apply checked.routine <> None in
      if legal then Format.printf "  %-12s at %a@." name Transformations.pp_path path)
    actions;

  let out = Search.run ~machine ~options ~env ~max_nodes:80 ~max_depth:3 checked in
  let value c =
    Poly.eval_float
      (fun v -> if Analysis.is_trip_var v then 8.0 else 256.0)
      (Perf_expr.total c)
  in
  Format.printf "@.search explored %d states@." out.explored;
  Format.printf "sequence: %s@."
    (if out.trace = [] then "(keep the original)"
     else String.concat " ; " (List.map (fun (s : Search.step) -> s.action) out.trace));
  Format.printf "predicted cost: %.0f -> %.0f (%.1f%% better)@." (value out.initial)
    (value out.predicted)
    (100.0 *. (value out.initial -. value out.predicted) /. value out.initial);
  Format.printf "@.restructured program:@.%s@." (Pp_ast.routine_to_string out.best.routine);

  (* §3.4: when the winner depends on unknown values, emit both versions
     behind a generated run-time test *)
  let wide_env = Interval.Env.of_list [ ("n", Interval.of_ints 4 4096) ] in
  let _, versioned =
    Search.run_versioned ~machine ~options ~env:wide_env ~max_nodes:40 ~max_depth:2 checked
  in
  match versioned with
  | Some v ->
    Format.printf "over n in [4,4096] the winner is input-dependent; versioned program:@.%s@."
      (Pp_ast.routine_to_string v.routine)
  | None ->
    Format.printf "over n in [4,4096] one version always wins - no run-time test emitted.@."
