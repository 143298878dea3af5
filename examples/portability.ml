(* Portability (§2.2.1): the same source predicted on four architectures,
   plus a custom machine defined purely as a textual cost table — "adding a
   new architecture to the cost model is a matter of defining the atomic
   operation mapping and the atomic operation cost table".

     dune exec examples/portability.exe
*)

open Pperf_machine
open Pperf_core

let source = {|
subroutine smooth(x, z, n)
  integer n, i
  real x(100000), z(100000)
  do i = 2, n - 1
    z(i) = (x(i-1) + 2.0 * x(i) + x(i+1)) / 4.0
  end do
end
|}

(* a made-up "vliw8" machine, defined entirely by its cost tables *)
let vliw8_descr = {|
(machine (name vliw8)
  (issue-width 8)
  (branch-taken-cycles 1)
  (register-load-limit 64)
  (fma true)
  (units (ALU0 fxu) (ALU1 fxu) (FP0 fpu) (FP1 fpu) (FP2 fpu) (FP3 fpu)
         (BR branch) (LS0 lsu) (LS1 lsu))
  (atomics
    (iadd (ALU0 1 0)) (isub (ALU0 1 0)) (ineg (ALU0 1 0)) (ilogic (ALU0 1 0))
    (ishift (ALU0 1 0)) (icopy (ALU0 1 0))
    (imul_small (ALU0 2 0)) (imul (ALU0 3 0)) (idiv (ALU0 12 0)) (icmp (ALU0 1 0))
    (fadd (FP0 1 2)) (fsub (FP0 1 2)) (fmul (FP0 1 2)) (fma (FP0 1 2))
    (fneg (FP0 1 0)) (fabs (FP0 1 0)) (fcopy (FP0 1 0))
    (fdiv (FP0 10 2)) (fcmp (FP0 1 1))
    (cvt_if (FP0 1 2)) (cvt_fi (FP0 1 2))
    (load_int (LS0 1 2)) (load_fp (LS0 1 2))
    (store_int (LS0 1 0)) (store_fp (LS0 1 0))
    (branch (BR 1 0)) (branch_cond (BR 1 0)) (call (BR 2 0))
    (fsqrt (FP0 16 0)) (fsin (FP0 30 0)) (fcos (FP0 30 0))
    (fexp (FP0 25 0)) (flog (FP0 25 0)) (ftanh (FP0 35 0))
    (nop (ALU0 0 0))))
|}

let () =
  let machines =
    List.map Descr.builtin Descr.builtin_names @ [ Descr.of_string vliw8_descr ]
  in
  Format.printf "%-12s %-28s %12s %10s@." "machine" "expression" "n=10000" "vs power1";
  let base = ref None in
  List.iter
    (fun machine ->
      let p = Predict.of_source ~machine source in
      let v = Predict.eval p [ ("n", 10000.0) ] in
      if !base = None then base := Some v;
      let expr = Pperf_symbolic.Poly.to_string (Predict.total p) in
      Format.printf "%-12s %-28s %12.0f %9.2fx@." machine.Machine.name expr v
        (v /. Option.get !base))
    machines;
  Format.printf
    "@.(vliw8 exists only as the textual description above — no OCaml code\n\
    \ was written to support it; see machines/*.pmach for the shipped files)@."
