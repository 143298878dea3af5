(* Tests for the two-level instruction translation and its back-end
   imitation (CSE, LICM, FMA fusion, reductions, register pressure, DCE). *)

open Pperf_lang
open Pperf_machine
open Pperf_sched
open Pperf_translate

let p1 = Descr.builtin "power1"

let sym src =
  let c = Typecheck.check_routine (Parser.parse_routine src) in
  (c.routine, c.symbols)

(* translate the innermost body of a routine built around [body_src] *)
let translate ?(flags = Flags.default) ?(machine = p1) ~decls body_src =
  let src = Printf.sprintf "subroutine s(n, k)\n  integer n, k, i, j\n%s\n  do i = 1, n\n    do j = 1, n\n%s\n    end do\n  end do\nend\n" decls body_src in
  let r, tab = sym src in
  let loops, body = List.hd (Analysis.innermost_bodies r.body) in
  let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
  let assigned = Analysis.assigned_vars r.body in
  let all = Analysis.SSet.union (Analysis.used_vars r.body) assigned in
  let invariants = Analysis.SSet.diff all assigned in
  Translator.translate_block ~machine ~flags ~symtab:tab ~loop_vars ~invariants body

let count_atomic (dag : Dag.t) name =
  let n = ref 0 in
  for i = 0 to Dag.length dag - 1 do
    if String.equal (Dag.node dag i).Dag.op.Atomic_op.name name then incr n
  done;
  !n

let test_jacobi_shape () =
  let res = translate ~decls:"  real a(1000,1000), b(1000,1000)"
      "      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))" in
  Alcotest.(check int) "loads" 4 res.loads;
  Alcotest.(check int) "stores" 1 res.stores;
  Alcotest.(check int) "flops" 4 res.flops;
  Alcotest.(check int) "fadds" 3 (count_atomic res.body "fadd");
  Alcotest.(check int) "fmuls" 1 (count_atomic res.body "fmul");
  Alcotest.(check int) "no one-time" 0 (Dag.length res.one_time)

let test_cse () =
  (* the same load and the same product appear twice *)
  let body = "      c(i,j) = b(i,j) * b(i,j) + b(i,j)" in
  let with_cse = translate ~decls:"  real b(100,100), c(100,100)" body in
  let without = translate ~flags:{ Flags.default with cse = false }
      ~decls:"  real b(100,100), c(100,100)" body in
  Alcotest.(check int) "one load with cse" 1 with_cse.loads;
  Alcotest.(check int) "three loads without" 3 without.loads

let test_licm () =
  (* k * 2 is invariant: with licm it moves to the one-time dag *)
  let body = "      c(i,j) = b(i,j) * (k * 2)" in
  let decls = "  real b(100,100), c(100,100)" in
  let with_licm = translate ~decls body in
  let without = translate ~flags:{ Flags.default with licm = false } ~decls body in
  Alcotest.(check bool) "one-time ops exist" true (Dag.length with_licm.one_time > 0);
  Alcotest.(check int) "no hoisting without licm" 0 (Dag.length without.one_time);
  Alcotest.(check bool) "body smaller with licm" true
    (Dag.length with_licm.body < Dag.length without.body)

let test_fma_fusion () =
  let body = "      c(i,j) = c(i,j) + a(i,j) * b(i,j)" in
  let decls = "  real a(100,100), b(100,100), c(100,100)" in
  let fused = translate ~decls body in
  Alcotest.(check int) "one fma" 1 (count_atomic fused.body "fma");
  Alcotest.(check int) "no separate fmul" 0 (count_atomic fused.body "fmul");
  let unfused = translate ~flags:{ Flags.default with fma_fusion = false } ~decls body in
  Alcotest.(check int) "no fma" 0 (count_atomic unfused.body "fma");
  Alcotest.(check int) "fmul+fadd" 1 (count_atomic unfused.body "fmul");
  (* machines without FMA expand to mul+add even with the flag on *)
  let scalar = translate ~machine:(Descr.builtin "scalar") ~decls body in
  Alcotest.(check int) "scalar has no fma" 0 (count_atomic scalar.body "fma")

let test_sum_reduction () =
  let body = "      s = s + a(i,j) * b(i,j)" in
  let decls = "  real a(100,100), b(100,100), s" in
  let red = translate ~decls body in
  (* accumulator load and store are one-time; per-iteration has no store *)
  Alcotest.(check int) "no per-iteration store" 0 red.stores;
  Alcotest.(check bool) "one-time store exists" true (count_atomic red.one_time "store_fp" = 1);
  let nored = translate ~flags:{ Flags.default with sum_reduction = false } ~decls body in
  Alcotest.(check int) "store every iteration without" 1 nored.stores

let test_register_pressure () =
  (* more distinct loads than the register window: reuse must reload *)
  let many_loads =
    String.concat " + " (List.init 30 (fun k2 -> Printf.sprintf "b(i,%d)" (k2 + 1)))
  in
  let body = Printf.sprintf "      c(i,j) = (%s) + (%s)" many_loads many_loads in
  let decls = "  real c(100,100), b(100,100)" in
  let with_rp = translate ~decls body in
  let without = translate ~flags:{ Flags.default with register_pressure = false } ~decls body in
  Alcotest.(check bool) "reloads forced" true (with_rp.loads > without.loads);
  Alcotest.(check bool) "window respected" true (without.loads <= 31)

let test_dce () =
  (* y is computed but never stored nor used: dce removes its ops *)
  let r, tab = sym "subroutine s(a, b)\n  real a(10), b(10), x\n  x = a(1) + b(1)\n  x = a(2)\nend\n" in
  let res = Translator.translate_block ~machine:p1 ~symtab:tab r.body in
  (* both stores remain (memory effects), but the first add feeds a store so
     it stays; check dce on a pure temp: *)
  ignore res;
  let r2, tab2 = sym "subroutine s(a)\n  real a(10), x\n  x = a(1)\nend\n" in
  let res2 = Translator.translate_block ~machine:p1 ~symtab:tab2 r2.body in
  Alcotest.(check int) "load + store" 2 (Dag.length res2.body)

let test_imul_small () =
  let r, tab = sym "subroutine s(k, m)\n  integer k, m\n  m = k * 100\n  m = m * 1000\nend\n" in
  let res = Translator.translate_block ~machine:p1 ~symtab:tab r.body in
  Alcotest.(check int) "one small multiply" 1 (count_atomic res.body "imul_small");
  Alcotest.(check int) "one general multiply" 1 (count_atomic res.body "imul")

let test_pow2_shift () =
  let r, tab = sym "subroutine s(k, m)\n  integer k, m\n  m = k * 8\nend\n" in
  let res = Translator.translate_block ~machine:p1 ~symtab:tab r.body in
  Alcotest.(check int) "shift not multiply" 1 (count_atomic res.body "ishift");
  Alcotest.(check int) "no multiply" 0 (count_atomic res.body "imul" + count_atomic res.body "imul_small")

let test_pow_chain () =
  let r, tab = sym "subroutine s(x, y)\n  real x, y\n  y = x ** 4\nend\n" in
  let res = Translator.translate_block ~machine:p1 ~symtab:tab r.body in
  (* x^4 = (x^2)^2: two multiplies *)
  Alcotest.(check int) "two multiplies" 2 (count_atomic res.body "fmul");
  let r2, tab2 = sym "subroutine s(x, y)\n  real x, y\n  y = x ** y\nend\n" in
  let res2 = Translator.translate_block ~machine:p1 ~symtab:tab2 r2.body in
  Alcotest.(check int) "log" 1 (count_atomic res2.body "flog");
  Alcotest.(check int) "exp" 1 (count_atomic res2.body "fexp")

let test_intrinsics () =
  let r, tab = sym "subroutine s(x, y)\n  real x, y\n  y = sqrt(x) + max(x, y, 1.0)\nend\n" in
  let res = Translator.translate_block ~machine:p1 ~symtab:tab r.body in
  Alcotest.(check int) "sqrt" 1 (count_atomic res.body "fsqrt");
  (* max of 3 args: two compare+select chains *)
  Alcotest.(check int) "two compares" 2 (count_atomic res.body "fcmp")

let test_update_addressing () =
  let body = "      c(i,j) = b(j+1,i)" in
  let decls = "  real b(100,100), c(100,100)" in
  let upd = translate ~decls body in
  let noupd = translate ~flags:{ Flags.default with update_addressing = false } ~decls body in
  (* without update addressing, affine subscripts cost integer ops *)
  Alcotest.(check bool) "address arithmetic appears" true
    (Dag.length noupd.body > Dag.length upd.body)

let test_non_affine_subscript () =
  let body = "      c(i,j) = b(ind(i),j)" in
  let decls = "  real b(100,100), c(100,100)\n  integer ind(100)" in
  let res = translate ~decls body in
  (* the indirect index requires loading ind(i): 2 loads total *)
  Alcotest.(check int) "indirect load counted" 2 res.loads

let test_condition_translation () =
  let r, tab = sym "subroutine s(x)\n  real x\n  x = 1.0\nend\n" in
  ignore r;
  let res = Translator.translate_condition ~machine:p1 ~symtab:tab
      (Parser.parse_expr "x > 0.0") in
  Alcotest.(check int) "branch op" 1 (count_atomic res.body "branch_cond");
  Alcotest.(check int) "compare" 1 (count_atomic res.body "fcmp")

let test_not_straight_line () =
  let r, tab = sym "subroutine s(n)\n  integer n, i\n  do i = 1, n\n    x = 1.0\n  end do\nend\n" in
  Alcotest.(check bool) "raises" true
    (try ignore (Translator.translate_block ~machine:p1 ~symtab:tab r.body); false
     with Translator.Not_straight_line _ -> true)

let test_flags_monotone () =
  (* turning all optimizations off never yields a cheaper block *)
  let body = "      c(i,j) = c(i,j) + a(i,j) * b(i,j) + a(i,j) * b(i,j)" in
  let decls = "  real a(100,100), b(100,100), c(100,100)" in
  let on = translate ~decls body in
  let off = translate ~flags:Flags.all_off ~decls body in
  let cost dag = let b = Bins.create p1 in (Bins.drop_dag b dag).cost in
  Alcotest.(check bool) "optimized cheaper" true (cost on.body <= cost off.body)


let test_double_precision_ops () =
  (* on a machine with a distinct double-divide entry, double expressions
     pick it up; single stays on fdiv *)
  let alpha = Descr.builtin "alpha21064" in
  let r, tab = sym "subroutine s(a, b)\n  double precision a, b\n  a = a / b\nend\n" in
  let res = Translator.translate_block ~machine:alpha ~symtab:tab r.body in
  Alcotest.(check int) "ddiv used" 1 (count_atomic res.body "ddiv");
  Alcotest.(check int) "no fdiv" 0 (count_atomic res.body "fdiv");
  let r2, tab2 = sym "subroutine s(a, b)\n  real a, b\n  a = a / b\nend\n" in
  let res2 = Translator.translate_block ~machine:alpha ~symtab:tab2 r2.body in
  Alcotest.(check int) "fdiv used" 1 (count_atomic res2.body "fdiv");
  (* power1 has no separate double entries: both map to fdiv *)
  let res3 = Translator.translate_block ~machine:p1 ~symtab:tab r.body in
  Alcotest.(check int) "power1 shares fdiv" 1 (count_atomic res3.body "fdiv")

let () =
  Alcotest.run "translate"
    [
      ( "shape",
        [
          Alcotest.test_case "jacobi" `Quick test_jacobi_shape;
          Alcotest.test_case "condition" `Quick test_condition_translation;
          Alcotest.test_case "not straight line" `Quick test_not_straight_line;
        ] );
      ( "optimizations",
        [
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "licm" `Quick test_licm;
          Alcotest.test_case "fma fusion" `Quick test_fma_fusion;
          Alcotest.test_case "sum reduction" `Quick test_sum_reduction;
          Alcotest.test_case "register pressure" `Quick test_register_pressure;
          Alcotest.test_case "dce" `Quick test_dce;
          Alcotest.test_case "flags monotone" `Quick test_flags_monotone;
        ] );
      ( "specialization",
        [
          Alcotest.test_case "imul small" `Quick test_imul_small;
          Alcotest.test_case "pow2 shift" `Quick test_pow2_shift;
          Alcotest.test_case "pow chain" `Quick test_pow_chain;
          Alcotest.test_case "intrinsics" `Quick test_intrinsics;
          Alcotest.test_case "update addressing" `Quick test_update_addressing;
          Alcotest.test_case "non-affine subscript" `Quick test_non_affine_subscript;
          Alcotest.test_case "double precision" `Quick test_double_precision_ops;
        ] );
    ]
