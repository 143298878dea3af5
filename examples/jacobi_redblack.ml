(* Jacobi vs red-black relaxation, compared symbolically in the grid size n,
   with the cache model included — the paper's kind of "which variant should
   the compiler emit?" question.

     dune exec examples/jacobi_redblack.exe
*)

open Pperf_machine
open Pperf_symbolic
open Pperf_core

let machine = Descr.builtin "power1"

let jacobi_src = {|
subroutine jacobi(a, b, n)
  integer n, i, j
  real a(1000,1000), b(1000,1000)
  do i = 2, n - 1
    do j = 2, n - 1
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    end do
  end do
end
|}

(* one red-black sweep does both colors: two half-density passes *)
let redblack_src = {|
subroutine rb(u, f, w, h2, n)
  integer n, i, j
  real u(1000,1000), f(1000,1000), w, h2
  do j = 2, n - 1
    do i = 2, n - 1, 2
      u(i,j) = u(i,j) + w * (0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1) - h2 * f(i,j)) - u(i,j))
    end do
  end do
  do j = 2, n - 1
    do i = 3, n - 1, 2
      u(i,j) = u(i,j) + w * (0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1) - h2 * f(i,j)) - u(i,j))
    end do
  end do
end
|}

let () =
  let options = { Aggregate.default_options with include_memory = true } in
  let jac = Predict.of_source ~options ~machine jacobi_src in
  let rb = Predict.of_source ~options ~machine redblack_src in
  Format.printf "Jacobi sweep:    %a@." Predict.pp jac;
  Format.printf "Red-black sweep: %a@.@." Predict.pp rb;

  Format.printf "%-8s %14s %14s@." "n" "jacobi" "red-black";
  List.iter
    (fun n ->
      Format.printf "%-8.0f %14.0f %14.0f@." n
        (Predict.eval jac [ ("n", n) ])
        (Predict.eval rb [ ("n", n) ]))
    [ 64.; 128.; 256.; 512. ];

  (* the decision, once and for all n in the range: *)
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 16 1000) ] in
  let d = Compare.decide env (Predict.cost jac) (Predict.cost rb) in
  Format.printf "@.symbolic verdict over n in [16,1000]:@.  %a@." Compare.pp_decision d;

  (* where does the cost go? split by category at n = 512 *)
  let show name (p : Predict.t) =
    let at cat =
      Poly.eval_float (fun v -> if v = "n" then 512.0 else 1.0) cat
    in
    let c = Predict.cost p in
    Format.printf "  %-10s cpu %12.0f   mem %12.0f@." name (at c.Perf_expr.cpu)
      (at c.Perf_expr.mem)
  in
  Format.printf "@.cost breakdown at n = 512:@.";
  show "jacobi" jac;
  show "red-black" rb;

  (* per-iteration sensitivity: which unknown dominates? *)
  Format.printf "@.sensitivity of the jacobi expression (n in [16,1000]):@.";
  List.iter
    (fun r -> Format.printf "  %a@." Sensitivity.pp_report r)
    (Sensitivity.rank env (Predict.total jac))
