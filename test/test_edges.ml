(* Edge-case and robustness tests across modules: the odd corners that the
   main suites don't exercise. *)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_sched
open Pperf_core

let p1 = Descr.builtin "power1"

(* ---- lexer oddities ---- *)

let test_lexer_corner_numbers () =
  (* leading-dot real *)
  (match Parser.parse_expr ".5 + 1.25" with
   | Ast.Binop (Ast.Add, Ast.Real (0.5, _), Ast.Real (1.25, _)) -> ()
   | e -> Alcotest.failf "leading dot: %s" (Pp_ast.expr_to_string e));
  (* digits followed by a dotted operator: 1.eq.2 must NOT lex 1. as a real *)
  (match Parser.parse_expr "1 .eq. 2" with
   | Ast.Binop (Ast.Eq, Ast.Int 1, Ast.Int 2) -> ()
   | _ -> Alcotest.fail "spaced .eq.");
  (match Parser.parse_expr "1.eq.2" with
   | Ast.Binop (Ast.Eq, Ast.Int 1, Ast.Int 2) -> ()
   | e -> Alcotest.failf "tight .eq.: %s" (Pp_ast.expr_to_string e));
  (* exponent forms *)
  (match Parser.parse_expr "1e3" with
   | Ast.Real (1000.0, Ast.Treal) -> ()
   | _ -> Alcotest.fail "1e3");
  match Parser.parse_expr "2.5d-1" with
  | Ast.Real (0.25, Ast.Tdouble) -> ()
  | _ -> Alcotest.fail "2.5d-1"

let test_semicolon_statements () =
  let stmts = Parser.parse_stmts "x = 1.0; y = 2.0; z = x + y\n" in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

let test_case_insensitive () =
  let r = Parser.parse_routine "SUBROUTINE S(N)\n  INTEGER N\n  DO I = 1, N\n  END DO\nEND\n" in
  Alcotest.(check string) "lowercased" "s" r.rname

(* ---- slots edges ---- *)

let test_slots_zero_len () =
  let s = Slots.create () in
  Slots.fill s ~start:5 ~len:0 (* no-op *);
  Alcotest.(check int) "hwm unchanged" 0 (Slots.high_water s);
  Alcotest.(check bool) "len 0 free anywhere" true (Slots.is_free s ~start:3 ~len:0);
  Alcotest.(check int) "first_fit len 0 = floor" 7 (Slots.first_fit s ~floor:7 ~len:0)

let test_slots_exact_boundary_growth () =
  let s = Slots.create ~capacity:4 () in
  Slots.fill s ~start:0 ~len:4;
  Slots.fill s ~start:4 ~len:4;
  Alcotest.(check int) "merged single run" 1 (Slots.num_runs s);
  Alcotest.(check int) "occupied" 8 (Slots.occupied_cells s)

let test_slots_negative_floor () =
  let s = Slots.create () in
  Alcotest.(check int) "negative floor clamped" 0 (Slots.first_fit s ~floor:(-5) ~len:2)

(* ---- bins / costblock edges ---- *)

let test_empty_dag () =
  let b = Bins.create p1 in
  let s = Bins.drop_dag b (Dag.make [||]) in
  Alcotest.(check int) "empty block costs 0" 0 s.cost;
  let cb = Bins.cost_block b in
  Alcotest.(check int) "empty cost block" 0 (Costblock.cost cb);
  Alcotest.(check bool) "no critical unit" true (Costblock.critical_unit cb = None)

let test_drop_op_direct () =
  let b = Bins.create p1 in
  let t1 = Bins.drop_op b ~ready:0 (Machine.atomic p1 "fadd") in
  let t2 = Bins.drop_op b ~ready:10 (Machine.atomic p1 "fadd") in
  Alcotest.(check int) "first at 0" 0 t1;
  Alcotest.(check int) "ready honored" 10 t2

let test_unroll_estimate_bounds () =
  let b = Bins.create p1 in
  ignore (Bins.drop_dag b (Dag.of_ops [ (Machine.atomic p1 "load_fp", []); (Machine.atomic p1 "fma", [ 0 ]) ]));
  let cb = Bins.cost_block b in
  let est = Costblock.unrolled_iteration_estimate cb in
  Alcotest.(check bool) "0 <= est <= cost" true (est >= 0 && est <= Costblock.cost cb);
  Alcotest.(check bool) "ratio in [0,1]" true
    (let r = Costblock.occupancy_ratio cb 1 in r >= 0.0 && r <= 1.0)

(* ---- poly / interval / rat edges ---- *)

let test_poly_eval_partial () =
  let p = Poly.Infix.(Poly.mul (Poly.var "n") (Poly.var "m") + Poly.var "n" + Poly.of_int 3) in
  let q = Poly.eval_partial (fun v -> if v = "n" then Some (Rat.of_int 2) else None) p in
  Alcotest.(check string) "partial" "2*m + 5" (Poly.to_string q)

let test_poly_clear_denominators () =
  let p = Poly.Infix.(Poly.var "x" + Poly.var_pow "x" (-2)) in
  let q = Poly.clear_denominators "x" p in
  Alcotest.(check string) "cleared" "x^3 + 1" (Poly.to_string q);
  Alcotest.(check int) "min degree now 0" 0 (Poly.min_degree_in "x" q)

let test_poly_hash_equal () =
  let a = Poly.Infix.(Poly.var "x" + Poly.of_int 1) in
  let b = Poly.add (Poly.of_int 1) (Poly.var "x") in
  Alcotest.(check bool) "equal" true (Poly.equal a b);
  Alcotest.(check int) "hash agrees" (Poly.hash a) (Poly.hash b)

let test_interval_edges () =
  Alcotest.(check int) "sample count" 5 (List.length (Interval.sample (Interval.of_ints 0 10) 5));
  Alcotest.(check bool) "sample inside" true
    (List.for_all (Interval.contains (Interval.of_ints 0 10)) (Interval.sample (Interval.of_ints 0 10) 7));
  Alcotest.(check bool) "intersect disjoint" true
    (Interval.intersect (Interval.of_ints 0 1) (Interval.of_ints 3 4) = None);
  Alcotest.(check bool) "subset" true (Interval.subset (Interval.of_ints 2 3) (Interval.of_ints 0 10));
  Alcotest.(check string) "half-bounded midpoint" "6"
    (Rat.to_string (Interval.midpoint (Interval.pos_ge (Rat.of_int 5))))

let test_rat_mediant () =
  let a = Rat.of_ints 1 3 and b = Rat.of_ints 1 2 in
  let m = Rat.mediant a b in
  Alcotest.(check string) "mediant" "2/5" (Rat.to_string m);
  Alcotest.(check bool) "strictly between" true (Rat.compare a m < 0 && Rat.compare m b < 0)

(* ---- machine descr comm section ---- *)

let test_descr_comm () =
  let m = Descr.of_string {|
(machine (name mini)
  (units (U fxu))
  (atomics (iadd (U 1 0)))
  (comm (processors 32) (startup-cycles 900) (per-byte-cycles 0.25)))
|} in
  match m.Machine.comm with
  | Some c ->
    Alcotest.(check int) "procs" 32 c.processors;
    Alcotest.(check int) "alpha" 900 c.startup_cycles;
    Alcotest.(check (float 1e-9)) "beta" 0.25 c.per_byte_cycles
  | None -> Alcotest.fail "comm section lost"

let test_machine_lookup () =
  Alcotest.(check bool) "atomic_opt present" true (Machine.atomic_opt p1 "fadd" <> None);
  Alcotest.(check bool) "atomic_opt missing" true (Machine.atomic_opt p1 "zzz" = None);
  Alcotest.(check int) "custom kind units" 1
    (List.length (Machine.units_of_kind (Descr.builtin "scalar") (Funit.Custom "alu")))

(* ---- pipeline edges ---- *)

let test_pipeline_empty () =
  let open Pperf_backend in
  Alcotest.(check int) "empty dag" 0 (Pipeline.reference_cycles p1 (Dag.make [||]));
  let r = Pipeline.run_in_order p1 (Dag.make [||]) in
  Alcotest.(check int) "in-order empty" 0 r.cycles

(* ---- memcost / commcost edges ---- *)

let test_memcost_no_refs () =
  let c = Typecheck.check_routine (Parser.parse_routine "subroutine s(x)\n  real x\n  x = 1.0\nend\n") in
  let groups = Pperf_memcost.Memcost.analyze_nest ~machine:p1 ~symtab:c.symbols [] c.routine.body in
  Alcotest.(check int) "no array refs" 0 (List.length groups)

(* ---- interpreter edges ---- *)

let run src = Pperf_exec.Interp.run_source ~machine:p1 src

let test_interp_logicals () =
  let res = run "subroutine s\n  logical b, c\n  b = .true. .and. .not. .false.\n  c = 1 < 2 .or. .false.\nend\n" in
  (match List.assoc "b" res.scalars with
   | Pperf_exec.Interp.VLog true -> ()
   | _ -> Alcotest.fail "b");
  match List.assoc "c" res.scalars with
  | Pperf_exec.Interp.VLog true -> ()
  | _ -> Alcotest.fail "c"

let test_interp_elseif () =
  let res = run "subroutine s\n  real y\n  y = 5.0\n  if (y < 1.0) then\n    y = 10.0\n  else if (y < 10.0) then\n    y = 20.0\n  else\n    y = 30.0\n  end if\nend\n" in
  match List.assoc "y" res.scalars with
  | Pperf_exec.Interp.VReal 20.0 -> ()
  | _ -> Alcotest.fail "middle branch"

let test_interp_zero_trip () =
  let res = run "subroutine s\n  integer i, c\n  c = 0\n  do i = 5, 1\n    c = c + 1\n  end do\nend\n" in
  match List.assoc "c" res.scalars with
  | Pperf_exec.Interp.VInt 0 -> ()
  | _ -> Alcotest.fail "zero-trip loop ran"

let test_interp_arity_error () =
  Alcotest.(check bool) "arity mismatch" true
    (try
       ignore (run "subroutine s\n  real y\n  y = twice(1.0, 2.0)\nend\n\nreal function twice(a)\n  real a\n  twice = a * 2.0\nend\n");
       false
     with Pperf_exec.Interp.Runtime_error _ -> true)

let test_interp_return_early () =
  let res = run "subroutine s\n  real y\n  y = 1.0\n  return\n  y = 2.0\nend\n" in
  match List.assoc "y" res.scalars with
  | Pperf_exec.Interp.VReal 1.0 -> ()
  | _ -> Alcotest.fail "return did not stop execution"

(* ---- incremental edges ---- *)

let test_incremental_clear () =
  let src = "subroutine s(x, n)\n  integer n, i\n  real x(100)\n  do i = 1, n\n    x(i) = 1.0\n  end do\nend\n" in
  let checked = Typecheck.check_routine (Parser.parse_routine src) in
  let inc = Incremental.create p1 in
  ignore (Incremental.predict inc checked);
  Incremental.clear inc;
  Alcotest.(check (pair int int)) "cleared stats" (0, 0) (Incremental.stats inc);
  ignore (Incremental.predict inc checked);
  Alcotest.(check (pair int int)) "recomputed after clear" (0, 1) (Incremental.stats inc)

(* ---- interproc main_cost ---- *)

let test_interproc_main () =
  let t = Interproc.of_source ~machine:p1
      "subroutine helper(m)\n  integer m, i\n  real y(100)\n  do i = 1, m\n    y(i) = 0.0\n  end do\nend\n\nprogram main\n  integer n\n  call helper(n)\nend\n" in
  match Interproc.main_cost t with
  | Some c -> Alcotest.(check bool) "main mentions n" true
                (Poly.mem_var "n" (Perf_expr.total c))
  | None -> Alcotest.fail "main cost missing"

(* ---- trip-count idioms ---- *)

let test_trip_idioms () =
  let tc lo hi =
    Option.map Poly.to_string
      (Sym_expr.trip_count ~lo:(Parser.parse_expr lo) ~hi:(Parser.parse_expr hi) ~step:None)
  in
  (* strip-mined inner loop *)
  Alcotest.(check (option string)) "strip-mine width" (Some "16")
    (tc "i_s" "min(i_s + 15, n)");
  (* unroll remainder: average (f-1)/2 *)
  Alcotest.(check (option string)) "remainder average" (Some "7/2")
    (tc "(n - mod(n - 1 + 1, 8)) + 1" "n")

let () =
  Alcotest.run "edges"
    [
      ( "lexer",
        [
          Alcotest.test_case "corner numbers" `Quick test_lexer_corner_numbers;
          Alcotest.test_case "semicolons" `Quick test_semicolon_statements;
          Alcotest.test_case "case insensitive" `Quick test_case_insensitive;
        ] );
      ( "slots",
        [
          Alcotest.test_case "zero length" `Quick test_slots_zero_len;
          Alcotest.test_case "boundary growth" `Quick test_slots_exact_boundary_growth;
          Alcotest.test_case "negative floor" `Quick test_slots_negative_floor;
        ] );
      ( "bins",
        [
          Alcotest.test_case "empty dag" `Quick test_empty_dag;
          Alcotest.test_case "drop_op" `Quick test_drop_op_direct;
          Alcotest.test_case "unroll estimate bounds" `Quick test_unroll_estimate_bounds;
        ] );
      ( "symbolic",
        [
          Alcotest.test_case "eval_partial" `Quick test_poly_eval_partial;
          Alcotest.test_case "clear denominators" `Quick test_poly_clear_denominators;
          Alcotest.test_case "hash/equal" `Quick test_poly_hash_equal;
          Alcotest.test_case "interval edges" `Quick test_interval_edges;
          Alcotest.test_case "mediant" `Quick test_rat_mediant;
        ] );
      ( "machine",
        [
          Alcotest.test_case "descr comm" `Quick test_descr_comm;
          Alcotest.test_case "lookups" `Quick test_machine_lookup;
        ] );
      ( "pipeline", [ Alcotest.test_case "empty" `Quick test_pipeline_empty ] );
      ( "memcost", [ Alcotest.test_case "no refs" `Quick test_memcost_no_refs ] );
      ( "interp",
        [
          Alcotest.test_case "logicals" `Quick test_interp_logicals;
          Alcotest.test_case "elseif" `Quick test_interp_elseif;
          Alcotest.test_case "zero trip" `Quick test_interp_zero_trip;
          Alcotest.test_case "arity error" `Quick test_interp_arity_error;
          Alcotest.test_case "early return" `Quick test_interp_return_early;
        ] );
      ( "incremental",
        [ Alcotest.test_case "clear" `Quick test_incremental_clear ] );
      ( "interproc", [ Alcotest.test_case "main cost" `Quick test_interproc_main ] );
      ( "sym-expr", [ Alcotest.test_case "trip idioms" `Quick test_trip_idioms ] );
    ]
