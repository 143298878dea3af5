(* When symbolic comparison cannot decide, generate a run-time test (§3.4):
   sensitivity analysis picks the variables; the sign condition of
   P = C(f) - C(g) becomes the guard.

     dune exec examples/runtime_tests.exe
*)

open Pperf_machine
open Pperf_symbolic
open Pperf_core

let machine = Descr.builtin "power1"

(* variant A: precompute a table of the m distinct values, then index it *)
let variant_a = {|
subroutine va(x, t, n, m)
  integer n, m, i, j
  real x(100000), t(1024)
  do j = 1, m
    t(j) = sqrt(float(j)) * 2.0
  end do
  do i = 1, n
    x(i) = x(i) + t(mod(i, m) + 1)
  end do
end
|}

(* variant B: recompute the value for every element *)
let variant_b = {|
subroutine vb(x, n, m)
  integer n, m, i
  real x(100000)
  do i = 1, n
    x(i) = x(i) + sqrt(float(mod(i, m) + 1)) * 2.0
  end do
end
|}

let () =
  let a = Predict.of_source ~machine variant_a in
  let b = Predict.of_source ~machine variant_b in
  Format.printf "C(A) = %a@." Predict.pp a;
  Format.printf "C(B) = %a@.@." Predict.pp b;

  let env =
    Interval.Env.of_list
      [ ("n", Interval.of_ints 1 100000); ("m", Interval.of_ints 1 1024) ]
  in
  let d = Compare.decide env (Predict.cost a) (Predict.cost b) in
  Format.printf "verdict: %a@.@." Compare.pp_decision d;

  (match d.verdict with
   | (Signs.Undecided _ | Signs.Crossover _) when not (Poly.is_zero d.difference) ->
     (* which unknowns drive the decision? *)
     Format.printf "sensitivity of P = C(A) - C(B):@.";
     List.iter
       (fun r -> Format.printf "  %a@." Sensitivity.pp_report r)
       (Sensitivity.rank env d.difference);
     (* the guard the compiler would emit around the two versions *)
     let t = Runtime_test.of_difference env d.difference in
     Format.printf "@.generated guard (choose A when it holds):@.  %a@." Runtime_test.pp t;
     Format.printf "worth inserting? %b@." (Runtime_test.worthwhile env t d.difference)
   | _ -> Format.printf "no run-time test needed.@.");

  (* the paper's term-dropping simplification also applies to the guard *)
  let simplified = Simplify.drop_negligible ~rel_tol:(Pperf_num.Rat.of_ints 1 100) env d.difference in
  Format.printf "@.P simplified over the ranges: %s  (from %s)@." (Poly.to_string simplified)
    (Poly.to_string d.difference)
