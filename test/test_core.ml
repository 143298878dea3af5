(* Tests for the prediction framework core: aggregation laws, the §3.3.2
   heuristics, symbolic comparison, library tables, incremental update,
   run-time test generation. *)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_core

let p1 = Machine.power1

let predict ?options src = Predict.of_source ?options ~machine:p1 src


(* ---- aggregation ---- *)

let test_loop_symbolic () =
  let p = predict "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) * 2.0\n  end do\nend\n" in
  let t = Predict.total p in
  (* linear in n with a positive slope and constant entry cost *)
  Alcotest.(check int) "degree 1 in n" 1 (Poly.degree_in "n" t);
  let slope = List.assoc 1 (Poly.coeffs_in "n" t) in
  Alcotest.(check bool) "positive per-iteration cost" true
    (match Poly.to_const slope with Some c -> Rat.sign c > 0 | None -> false)

let test_nested_quadratic () =
  let p = predict "subroutine s(a, n)\n  integer n, i, j\n  real a(1000,1000)\n  do i = 1, n\n    do j = 1, n\n      a(i,j) = 0.0\n    end do\n  end do\nend\n" in
  Alcotest.(check int) "quadratic" 2 (Poly.degree_in "n" (Predict.total p))

let test_loop_additivity_vs_unrolled () =
  (* the aggregated symbolic cost evaluated at n must track the straight-
     line cost of the fully unrolled body as n grows *)
  let sym_cost n =
    let p = predict "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\nend\n" in
    Predict.eval p [ ("n", float_of_int n) ]
  in
  let c10 = sym_cost 10 and c20 = sym_cost 20 in
  (* perfectly linear: c(20) - c(10) = c(10) - c(0) steps *)
  Alcotest.(check bool) "monotone" true (c20 > c10);
  let per_iter = (c20 -. c10) /. 10.0 in
  Alcotest.(check bool) "plausible per-iteration cost (1..20 cycles)" true
    (per_iter >= 1.0 && per_iter <= 20.0)

let test_constant_trip_folds () =
  let p = predict "subroutine s(x)\n  integer i\n  real x(100)\n  do i = 1, 100\n    x(i) = 0.0\n  end do\nend\n" in
  Alcotest.(check bool) "no unknowns" true (Poly.is_const (Predict.total p))

let test_step_trip () =
  let p2 = predict "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n, 2\n    x(i) = 0.0\n  end do\nend\n" in
  let p1_ = predict "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = 0.0\n  end do\nend\n" in
  let at n p = Predict.eval p [ ("n", n) ] in
  (* halving iterations roughly halves cost *)
  let r = at 1000.0 p1_ /. at 1000.0 p2 in
  Alcotest.(check bool) "step 2 about half the work" true (r > 1.6 && r < 2.4)

let test_unknown_bound_var () =
  let p = predict "subroutine s(x, n, m)\n  integer n, m, i\n  real x(100000)\n  do i = m, n\n    x(i) = 0.0\n  end do\nend\n" in
  let vars = Poly.vars (Predict.total p) in
  Alcotest.(check bool) "mentions n and m" true (List.mem "n" vars && List.mem "m" vars)

(* ---- conditionals ---- *)

let test_if_probability_var () =
  let p = predict "subroutine s(x, y)\n  real x, y\n  if (x > 0.0) then\n    y = sqrt(x) + exp(x)\n  else\n    y = 0.0\n  end if\nend\n" in
  Alcotest.(check (list string)) "one prob var" [ "p1" ] (Predict.prob_vars p);
  Alcotest.(check bool) "cost mentions p1" true (Poly.mem_var "p1" (Predict.total p))

let test_if_near_equal_merged () =
  (* §3.3.2: two branches with identical cost need no probability *)
  let p = predict "subroutine s(x, y)\n  real x, y\n  if (x > 0.0) then\n    y = x + 1.0\n  else\n    y = x + 2.0\n  end if\nend\n" in
  Alcotest.(check (list string)) "no prob vars" [] (Predict.prob_vars p);
  Alcotest.(check bool) "constant" true (Poly.is_const (Predict.total p))

let test_index_cond_paper_example () =
  (* the paper's §3.3.2 pattern: C(L) = k*C(Bt) + (n-k)*C(Bf) *)
  let p = predict "subroutine s(x, n, k)\n  integer n, k, i\n  real x(100000)\n  do i = 1, n\n    if (i .le. k) then\n      x(i) = x(i) * 2.0 + 1.0\n    else\n      x(i) = 0.0\n    end if\n  end do\nend\n" in
  let t = Predict.total p in
  Alcotest.(check (list string)) "no prob vars" [] (Predict.prob_vars p);
  Alcotest.(check bool) "linear in k" true (Poly.degree_in "k" t = 1);
  Alcotest.(check bool) "linear in n" true (Poly.degree_in "n" t = 1)

let test_profile_override () =
  let options =
    { Aggregate.default_options with
      branch_prob = (fun _ _ -> Some (Poly.of_rat (Rat.of_ints 9 10))) }
  in
  let p = predict ~options "subroutine s(x, y)\n  real x, y\n  if (x > 0.0) then\n    y = sqrt(x) + exp(x) + sqrt(y)\n  else\n    y = 0.0\n  end if\nend\n" in
  Alcotest.(check (list string)) "no fresh vars with profile" [] (Predict.prob_vars p)

(* ---- libtable ---- *)

let test_libtable_substitution () =
  let lib = Libtable.create () in
  Libtable.register lib "work" ~formals:[ "m" ]
    (Perf_expr.of_cpu (Poly.scale_int 10 (Poly.var "m")));
  let options = { Aggregate.default_options with library = Some lib } in
  let p = predict ~options "subroutine s(n)\n  integer n\n  call work(n * 2)\nend\n" in
  let t = Predict.total p in
  (* callee cost 10 * (2n) = 20n plus the call overhead *)
  let slope = List.assoc 1 (Poly.coeffs_in "n" t) in
  Alcotest.(check string) "slope 20" "20" (Poly.to_string slope)

let test_libtable_unknown_actual () =
  let lib = Libtable.create () in
  Libtable.register lib "work" ~formals:[ "m" ] (Perf_expr.of_cpu (Poly.var "m"));
  match Libtable.call_cost lib "work" [ Parser.parse_expr "f(3)" ] with
  | Some c ->
    Alcotest.(check (list string)) "renamed formal" [ "work.m" ] (Poly.vars (Perf_expr.total c))
  | None -> Alcotest.fail "entry expected"

let test_register_in_library () =
  let lib = Libtable.create () in
  let callee = predict "subroutine leaf(m)\n  integer m, i\n  real y(10000)\n  do i = 1, m\n    y(i) = 1.0\n  end do\nend\n" in
  Predict.register_in_library lib callee;
  Alcotest.(check bool) "registered" true (Libtable.mem lib "leaf");
  match Libtable.call_cost lib "leaf" [ Parser.parse_expr "n" ] with
  | Some c -> Alcotest.(check bool) "in terms of n" true (Poly.mem_var "n" (Perf_expr.total c))
  | None -> Alcotest.fail "lookup failed"

(* ---- comparison ---- *)

let test_compare_decides () =
  let fast = predict "subroutine f(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\nend\n" in
  let slow = predict "subroutine g(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = sqrt(x(i)) + exp(x(i))\n  end do\nend\n" in
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 1 1000000) ] in
  let d = Compare.decide env (Predict.cost fast) (Predict.cost slow) in
  Alcotest.(check bool) "first recommended" true (d.recommended = Compare.First);
  (match d.verdict with
   | Signs.Always_le -> ()
   | _ -> Alcotest.fail "expected always_le")

let test_compare_crossover () =
  (* f costs 100 + n, g costs 10n: f wins for n > 11 *)
  let cf = Perf_expr.of_cpu (Poly.add_const (Rat.of_int 100) (Poly.var "n")) in
  let cg = Perf_expr.of_cpu (Poly.scale_int 10 (Poly.var "n")) in
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 1 1000) ] in
  let d = Compare.decide env cf cg in
  (match d.verdict with
   | Signs.Crossover regions ->
     (* crossover at n = 100/9 ~ 11.1 *)
     Alcotest.(check bool) "3 regions" true (List.length regions = 3)
   | _ -> Alcotest.fail "expected crossover");
  Alcotest.(check bool) "first wins most of the range" true (d.recommended = Compare.First)

let test_compare_equal () =
  let c = Perf_expr.of_cpu (Poly.var "n") in
  let env = Interval.Env.empty in
  let d = Compare.decide env c c in
  Alcotest.(check bool) "equal" true (d.verdict = Signs.Equal)

let test_compare_point_subst () =
  (* diff n*(12 - 3m) is undecidable over unbounded n, m, but an env
     pinning m to a point makes it univariate and exactly decidable *)
  let cf = Perf_expr.of_cpu (Poly.scale_int 18 (Poly.var "n")) in
  let cg =
    Perf_expr.of_cpu
      (Poly.add
         (Poly.scale_int 3 (Poly.mul (Poly.var "m") (Poly.var "n")))
         (Poly.scale_int 6 (Poly.var "n")))
  in
  let d = Compare.decide Interval.Env.empty cf cg in
  (match d.verdict with
   | Signs.Undecided _ -> ()
   | _ -> Alcotest.fail "expected undecided without ranges");
  let env = Interval.Env.of_list [ ("m", Interval.of_ints 8 8) ] in
  let d = Compare.decide env cf cg in
  (match d.verdict with
   | Signs.Always_le -> ()
   | _ -> Alcotest.fail "expected always_le with m = 8")

let counter name = Option.value ~default:0 (List.assoc_opt name (Pperf_obs.Obs.counters_now ()))

(* the decision memo, as counts: a repeated identical decision is one memo
   hit and builds no Sturm chain. The memo is per domain and outlives a
   test, so each count is a delta around the second call. *)
let test_compare_memo_counts () =
  let cf = Perf_expr.of_cpu (Poly.add_const (Rat.of_int 200) (Poly.scale_int 6 (Poly.var "n"))) in
  let cg = Perf_expr.of_cpu (Poly.scale_int 8 (Poly.var "n")) in
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 8 512) ] in
  let show d = Format.asprintf "%a" Compare.pp_decision d in
  let first = show (Compare.decide env cf cg) in
  let hits0 = counter "compare.memo.hits" and builds0 = counter "roots.chain_builds" in
  let second = show (Compare.decide env cf cg) in
  Alcotest.(check int) "one memo hit" 1 (counter "compare.memo.hits" - hits0);
  Alcotest.(check int) "no chain built" 0 (counter "roots.chain_builds" - builds0);
  Alcotest.(check string) "same decision" first second

let test_inferred_env () =
  let src =
    "subroutine s(a)\n  integer i, m\n  real a(100)\n  m = 8\n  do i = 1, m\n    a(i) = 0.0\n  end do\nend\n"
  in
  let c = Typecheck.check_routine (Parser.parse_routine src) in
  let env = Compare.inferred_env [ c ] in
  Alcotest.(check (option string)) "m inferred" (Some "[8, 8]")
    (Option.map Interval.to_string (Interval.Env.find_opt "m" env));
  (* explicit caller bindings win over inferred ones *)
  let base = Interval.Env.of_list [ ("m", Interval.of_ints 1 4) ] in
  let env = Compare.inferred_env ~base [ c ] in
  Alcotest.(check (option string)) "base wins" (Some "[1, 4]")
    (Option.map Interval.to_string (Interval.Env.find_opt "m" env))

(* ---- incremental ---- *)

let test_incremental_consistent () =
  let src = "subroutine s(x, n)\n  integer n, i, j\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\n  do j = 1, n\n    x(j) = x(j) * 2.0\n  end do\nend\n" in
  let checked = Typecheck.check_routine (Parser.parse_routine src) in
  let inc = Incremental.create p1 in
  let full = (Aggregate.routine ~machine:p1 checked).cost in
  let via_cache = Incremental.predict inc checked in
  Alcotest.(check bool) "same result" true
    (Poly.equal (Perf_expr.total full) (Perf_expr.total via_cache));
  (* repredicting hits the cache *)
  let _ = Incremental.predict inc checked in
  let hits, misses = Incremental.stats inc in
  Alcotest.(check int) "2 misses (2 top stmts)" 2 misses;
  Alcotest.(check int) "2 hits on re-predict" 2 hits

let test_incremental_partial_invalidation () =
  let src1 = "subroutine s(x, n)\n  integer n, i, j\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\n  do j = 1, n\n    x(j) = x(j) * 2.0\n  end do\nend\n" in
  (* transformation touches only the second loop *)
  let src2 = "subroutine s(x, n)\n  integer n, i, j\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\n  do j = 1, n, 2\n    x(j) = x(j) * 2.0\n  end do\nend\n" in
  let c1 = Typecheck.check_routine (Parser.parse_routine src1) in
  let c2 = Typecheck.check_routine (Parser.parse_routine src2) in
  let inc = Incremental.create p1 in
  let _ = Incremental.predict inc c1 in
  let _ = Incremental.predict inc c2 in
  let hits, misses = Incremental.stats inc in
  (* the unchanged first loop is a hit; only the second recomputes *)
  Alcotest.(check int) "3 misses" 3 misses;
  Alcotest.(check int) "1 hit" 1 hits

(* ---- runtime tests ---- *)

let test_runtime_test_generation () =
  let diff = Poly.sub (Poly.add_const (Rat.of_int 100) (Poly.var "n")) (Poly.scale_int 10 (Poly.var "k")) in
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 1 10000); ("k", Interval.of_ints 1 100) ] in
  let t = Runtime_test.of_difference env diff in
  Alcotest.(check bool) "mentions n first" true (List.hd t.test_vars = "n");
  Alcotest.(check bool) "source is a guard" true
    (String.length t.source > 5 && String.sub t.source 0 3 = "if ");
  Alcotest.(check bool) "worthwhile when stakes are high" true
    (Runtime_test.worthwhile env t diff)

let test_runtime_test_not_worthwhile () =
  (* the difference is tiny: a run-time test costs more than it can gain *)
  let diff = Poly.of_int 1 in
  let env = Interval.Env.empty in
  let t = Runtime_test.of_difference env diff in
  Alcotest.(check bool) "not worthwhile" false (Runtime_test.worthwhile env t diff)

(* ---- Perf_expr ---- *)

let test_perf_expr_categories () =
  let e = { Perf_expr.cpu = Poly.var "n"; mem = Poly.of_int 5; comm = Poly.zero } in
  Alcotest.(check string) "total" "n + 5" (Poly.to_string (Perf_expr.total e));
  let doubled = Perf_expr.scale (Poly.of_int 2) e in
  Alcotest.(check string) "scale hits all categories" "2*n + 10"
    (Poly.to_string (Perf_expr.total doubled));
  Alcotest.(check bool) "sub cancels" true
    (Perf_expr.is_zero (Perf_expr.sub e e))


(* ---- interprocedural (§3.5) ---- *)

let test_interproc_basic () =
  let prog = "subroutine leaf(x, m)\n  integer m, i\n  real x(10000)\n  do i = 1, m\n    x(i) = x(i) + 1.0\n  end do\nend\n\nsubroutine caller(x, n)\n  integer n\n  real x(10000)\n  call leaf(x, n * 2)\nend\n" in
  let t = Interproc.of_source ~machine:p1 prog in
  (match Interproc.find t "caller" with
   | Some rp ->
     let total = Perf_expr.total rp.prediction.cost in
     (* leaf costs c*m + d with m := 2n, so the caller is linear in n with
        slope 2c *)
     Alcotest.(check int) "linear in n" 1 (Poly.degree_in "n" total);
     let leaf = Option.get (Interproc.find t "leaf") in
     let leaf_slope = List.assoc 1 (Poly.coeffs_in "m" (Perf_expr.total leaf.prediction.cost)) in
     let caller_slope = List.assoc 1 (Poly.coeffs_in "n" total) in
     (match (Poly.to_const leaf_slope, Poly.to_const caller_slope) with
      | Some ls, Some cs ->
        Alcotest.(check bool) "slope doubled" true
          (Rat.equal cs (Rat.mul (Rat.of_int 2) ls))
      | _ -> Alcotest.fail "constant slopes expected")
   | None -> Alcotest.fail "caller missing")

let test_interproc_order () =
  (* caller textually first: the callee must still be processed first *)
  let prog = "subroutine a(n)\n  integer n\n  call b(n)\nend\n\nsubroutine b(m)\n  integer m, i\n  real y(10000)\n  do i = 1, m\n    y(i) = 0.0\n  end do\nend\n" in
  let t = Interproc.of_source ~machine:p1 prog in
  (match t.routines with
   | first :: _ -> Alcotest.(check string) "b first" "b" first.checked.routine.rname
   | [] -> Alcotest.fail "empty");
  let a = Option.get (Interproc.find t "a") in
  Alcotest.(check bool) "a depends on n via b" true
    (Poly.mem_var "n" (Perf_expr.total a.prediction.cost))

let test_interproc_recursion () =
  let prog = "subroutine r(n)\n  integer n\n  if (n > 0) then\n    call r(n - 1)\n  end if\nend\n" in
  let t = Interproc.of_source ~machine:p1 prog in
  match Interproc.find t "r" with
  | Some rp -> Alcotest.(check bool) "flagged recursive" true rp.in_cycle
  | None -> Alcotest.fail "r missing"

let test_interproc_function_expr () =
  (* user functions in expressions are charged too *)
  let prog = "real function f(m)\n  integer m, i\n  real acc\n  acc = 0.0\n  do i = 1, m\n    acc = acc + float(i)\n  end do\n  f = acc\nend\n\nsubroutine use(y, n)\n  integer n\n  real y\n  y = f(n) + f(n)\nend\n" in
  let t = Interproc.of_source ~machine:p1 prog in
  match Interproc.find t "use" with
  | Some rp ->
    let slope = List.assoc 1 (Poly.coeffs_in "n" (Perf_expr.total rp.prediction.cost)) in
    let f = Option.get (Interproc.find t "f") in
    let fslope = List.assoc 1 (Poly.coeffs_in "m" (Perf_expr.total f.prediction.cost)) in
    (match (Poly.to_const slope, Poly.to_const fslope) with
     | Some s, Some fs ->
       (* two calls: slope = 2 * f's slope *)
       Alcotest.(check bool) "two call sites" true (Rat.equal s (Rat.mul (Rat.of_int 2) fs))
     | _ -> Alcotest.fail "const slopes")
  | None -> Alcotest.fail "use missing"


(* ---- guard AST generation ---- *)

let test_guard_ast_roundtrip () =
  (* ast_of_poly renders a polynomial whose re-conversion matches *)
  let polys =
    [ Poly.Infix.(Poly.scale_int 31 (Poly.var "m") - Poly.scale_int 5 (Poly.var "n") + Poly.of_int 2);
      Poly.Infix.(Poly.mul (Poly.var "n") (Poly.var "m") - Poly.of_int 7);
      Poly.neg (Poly.var "n");
      Poly.of_int 0;
      Poly.Infix.(Poly.pow (Poly.var "n") 2 + Poly.var "n") ]
  in
  List.iter
    (fun p ->
      let e = Runtime_test.ast_of_poly p in
      match Pperf_lang.Sym_expr.to_poly e with
      | Some p' -> Alcotest.(check bool) (Poly.to_string p) true (Poly.equal p p')
      | None -> Alcotest.fail "guard expression not polynomial")
    polys

let test_guard_expr_parses () =
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 1 100); ("m", Interval.of_ints 1 100) ] in
  let diff = Poly.Infix.(Poly.scale_int 31 (Poly.var "m") - Poly.scale_int 5 (Poly.var "n")) in
  let t = Runtime_test.of_difference env diff in
  let g = Runtime_test.guard_expr t in
  (* the guard must be printable and reparseable PF *)
  let printed = Pperf_lang.Pp_ast.expr_to_string g in
  let reparsed = Pperf_lang.Parser.parse_expr printed in
  Alcotest.(check bool) "parses back" true (Pperf_lang.Ast.equal_expr g reparsed)


let test_report () =
  let checked = Typecheck.check_routine (Parser.parse_routine
    "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\nend\n") in
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 1 1000) ] in
  let r = Report.generate ~env ~machine:p1 checked in
  Alcotest.(check string) "routine" "s" r.routine;
  Alcotest.(check int) "one unknown" 1 (List.length r.unknowns);
  Alcotest.(check int) "three samples" 3 (List.length r.samples);
  Alcotest.(check int) "one hotspot" 1 (List.length r.hotspots);
  (* the hotspot matches the expression's linear coefficient *)
  let slope = List.assoc 1 (Poly.coeffs_in "n" (Perf_expr.total r.cost)) in
  (match Poly.to_const slope with
   | Some c ->
     Alcotest.(check int) "hotspot = per-iteration coefficient"
       (Option.get (Rat.to_int c)) (List.hd r.hotspots).cycles_per_iteration
   | None -> Alcotest.fail "const slope");
  Alcotest.(check bool) "renders" true (String.length (Report.to_string r) > 100)


let test_interproc_no_calls_matches_predict () =
  (* without calls, interprocedural prediction = plain prediction *)
  let src = "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) * 2.0\n  end do\nend\n" in
  let plain = Predict.of_source ~machine:p1 src in
  let t = Interproc.of_source ~machine:p1 src in
  match Interproc.find t "s" with
  | Some rp ->
    Alcotest.(check bool) "identical" true
      (Perf_expr.equal rp.prediction.cost (Predict.cost plain))
  | None -> Alcotest.fail "missing"

let () =
  Alcotest.run "core"
    [
      ( "aggregate",
        [
          Alcotest.test_case "loop symbolic" `Quick test_loop_symbolic;
          Alcotest.test_case "nested quadratic" `Quick test_nested_quadratic;
          Alcotest.test_case "linearity" `Quick test_loop_additivity_vs_unrolled;
          Alcotest.test_case "constant trip" `Quick test_constant_trip_folds;
          Alcotest.test_case "step trip" `Quick test_step_trip;
          Alcotest.test_case "unknown bounds" `Quick test_unknown_bound_var;
        ] );
      ( "conditionals",
        [
          Alcotest.test_case "probability var" `Quick test_if_probability_var;
          Alcotest.test_case "near-equal merge" `Quick test_if_near_equal_merged;
          Alcotest.test_case "paper index-cond" `Quick test_index_cond_paper_example;
          Alcotest.test_case "profile override" `Quick test_profile_override;
        ] );
      ( "libtable",
        [
          Alcotest.test_case "substitution" `Quick test_libtable_substitution;
          Alcotest.test_case "unknown actual" `Quick test_libtable_unknown_actual;
          Alcotest.test_case "register prediction" `Quick test_register_in_library;
        ] );
      ( "compare",
        [
          Alcotest.test_case "decides" `Quick test_compare_decides;
          Alcotest.test_case "crossover" `Quick test_compare_crossover;
          Alcotest.test_case "equal" `Quick test_compare_equal;
          Alcotest.test_case "point substitution" `Quick test_compare_point_subst;
          Alcotest.test_case "memo counts" `Quick test_compare_memo_counts;
          Alcotest.test_case "inferred env" `Quick test_inferred_env;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "consistent" `Quick test_incremental_consistent;
          Alcotest.test_case "partial invalidation" `Quick test_incremental_partial_invalidation;
        ] );
      ( "runtime-tests",
        [
          Alcotest.test_case "generation" `Quick test_runtime_test_generation;
          Alcotest.test_case "not worthwhile" `Quick test_runtime_test_not_worthwhile;
        ] );
      ( "perf-expr", [ Alcotest.test_case "categories" `Quick test_perf_expr_categories ] );
      ( "report", [ Alcotest.test_case "generate" `Quick test_report ] );
      ( "guards",
        [
          Alcotest.test_case "ast roundtrip" `Quick test_guard_ast_roundtrip;
          Alcotest.test_case "guard parses" `Quick test_guard_expr_parses;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "substitution chain" `Quick test_interproc_basic;
          Alcotest.test_case "callee-first order" `Quick test_interproc_order;
          Alcotest.test_case "recursion flagged" `Quick test_interproc_recursion;
          Alcotest.test_case "function expressions" `Quick test_interproc_function_expr;
          Alcotest.test_case "no calls = plain" `Quick test_interproc_no_calls_matches_predict;
        ] );
    ]
