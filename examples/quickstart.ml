(* Quickstart: parse a kernel, predict its cost symbolically, inspect the
   schedule.

     dune exec examples/quickstart.exe
*)

open Pperf_lang
open Pperf_machine
open Pperf_sched
open Pperf_core

let source = {|
subroutine daxpy(x, y, a, n)
  integer n, i
  real x(100000), y(100000), a
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end
|}

let () =
  let machine = Descr.builtin "power1" in

  (* 1. one call gives the symbolic performance expression *)
  let p = Predict.of_source ~machine source in
  Format.printf "prediction:   %a@." Predict.pp p;
  Format.printf "at n = 1000:  %.0f cycles@.@." (Predict.eval p [ ("n", 1000.0) ]);

  (* 2. underneath: the translator imitates the back-end... *)
  let checked = Typecheck.check_routine (Parser.parse_routine source) in
  let loops, body = List.hd (Analysis.innermost_bodies checked.routine.body) in
  let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
  let assigned = Analysis.assigned_vars checked.routine.body in
  let invariants =
    Analysis.SSet.diff
      (Analysis.SSet.union (Analysis.used_vars checked.routine.body) assigned)
      assigned
  in
  let res =
    Pperf_translate.Translator.translate_block ~machine ~symtab:checked.symbols ~loop_vars
      ~invariants body
  in
  Format.printf "atomic operations of the loop body:@.%a@." Dag.pp res.body;

  (* ...and the Tetris model drops them into the virtual bins *)
  let bins = Bins.create machine in
  let s = Bins.drop_dag bins res.body in
  Format.printf "schedule diagram ('##' noncoverable, '::' coverable):@.%a@." Bins.pp bins;
  Format.printf "block cost: %d cycles (operation count would say %d)@." s.cost
    (Bins.Opcount.cost res.body);

  (* 3. the same program on a different machine description *)
  let p_scalar = Predict.of_source ~machine:(Descr.builtin "scalar") source in
  Format.printf "@.on a sequential machine: %a@." Predict.pp p_scalar;
  Format.printf "superscalar speedup at n=1000: %.2fx@."
    (Predict.eval p_scalar [ ("n", 1000.0) ] /. Predict.eval p [ ("n", 1000.0) ])
