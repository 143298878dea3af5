(* Profile feedback (§3.4): run the program once through the interpreter,
   measure branch probabilities, and re-predict with the guesses replaced
   by measurements. Also demonstrates dynamic validation: the interpreter
   accumulates machine cycles along the actual path, which the (profiled)
   static expression should match.

     dune exec examples/profile_feedback.exe
*)

open Pperf_machine
open Pperf_core
open Pperf_exec

let machine = Descr.builtin "power1"

let source = {|
subroutine filter(x, y, n, t)
  integer n, i
  real x(100000), y(100000), t
  do i = 1, n
    x(i) = float(mod(i, 10))
  end do
  do i = 1, n
    if (x(i) < t) then
      y(i) = sqrt(x(i) + 1.0) + exp(x(i) * 0.1)
    else
      y(i) = 0.0
    end if
  end do
end
|}

let () =
  (* static prediction: the branch probability is an unknown p1 *)
  let plain = Predict.of_source ~machine source in
  Format.printf "static (unknown probability):@.  %a@." Predict.pp plain;
  Format.printf "  unknowns in [0,1]: %s@.@." (String.concat ", " (Predict.prob_vars plain));

  (* profile run: t = 3.0 makes 3 of 10 values pass *)
  let res =
    Interp.run_source ~machine ~args:[ ("n", Interp.VInt 2000); ("t", Interp.VReal 3.0) ]
      source
  in
  Format.printf "profile run (n=2000, t=3.0):@.  %a@." Interp.Profile.pp res.profile;
  Format.printf "  dynamic cycles: %.0f@.@." res.cycles;

  (* re-predict with measured probabilities: the unknown disappears *)
  let options =
    { Aggregate.default_options with branch_prob = Interp.Profile.branch_prob res.profile }
  in
  let profiled = Predict.of_source ~options ~machine source in
  Format.printf "static with profile feedback:@.  %a@." Predict.pp profiled;
  let static = Predict.eval profiled [ ("n", 2000.0) ] in
  Format.printf "  at n=2000: %.0f cycles (dynamic said %.0f; %.1f%% apart)@." static res.cycles
    (100.0 *. Float.abs (static -. res.cycles) /. res.cycles);

  (* the paper's point: with the guess eliminated, symbolic comparison can
     now decide questions the unprofiled expression could not *)
  let cheap = Perf_expr.of_cpu (Pperf_symbolic.Poly.scale_int 30 (Pperf_symbolic.Poly.var "n")) in
  let env = Pperf_symbolic.Interval.Env.of_list
      [ ("n", Pperf_symbolic.Interval.of_ints 100 100000) ] in
  let before = Compare.decide env (Predict.cost plain) cheap in
  let after = Compare.decide env (Predict.cost profiled) cheap in
  Format.printf "@.vs a 30n alternative:@.";
  Format.printf "  without profile: %a@." Compare.pp_decision before;
  Format.printf "  with profile:    %a@." Compare.pp_decision after
