(* Tests for the PF interpreter: semantics, cost accounting agreement with
   the static predictor, and §3.4 profile-driven probabilities. *)

open Pperf_machine
open Pperf_core
open Pperf_exec

let p1 = Machine.power1

let run ?args src = Interp.run_source ~machine:p1 ?args src

let scalar res name = List.assoc name res.Interp.scalars

(* ---- semantics ---- *)

let test_arithmetic () =
  let res = run "subroutine s\n  real x\n  integer k\n  x = 2.0 * 3.0 + 4.0 / 2.0\n  k = 7 / 2 + mod(9, 4)\nend\n" in
  (match scalar res "x" with
   | Interp.VReal v -> Alcotest.(check (float 1e-9)) "x" 8.0 v
   | _ -> Alcotest.fail "x real");
  match scalar res "k" with
  | Interp.VInt 4 -> ()
  | _ -> Alcotest.fail "k = 3 + 1"

let test_loop_and_array () =
  let res = run ~args:[ ("n", Interp.VInt 10) ]
      "subroutine s(n)\n  integer n, i\n  real x(100), s1\n  s1 = 0.0\n  do i = 1, n\n    x(i) = float(i)\n  end do\n  do i = 1, n\n    s1 = s1 + x(i)\n  end do\nend\n" in
  match scalar res "s1" with
  | Interp.VReal v -> Alcotest.(check (float 1e-9)) "sum 1..10" 55.0 v
  | _ -> Alcotest.fail "s1"

let test_branches_and_intrinsics () =
  let res = run "subroutine s\n  real y\n  y = sqrt(16.0)\n  if (y > 3.0) then\n    y = y + max(1.0, 2.0)\n  else\n    y = 0.0\n  end if\nend\n" in
  match scalar res "y" with
  | Interp.VReal v -> Alcotest.(check (float 1e-9)) "sqrt+max" 6.0 v
  | _ -> Alcotest.fail "y"

let test_function_call () =
  let res = run "subroutine s\n  real y\n  y = twice(3.0)\nend\n\nreal function twice(a)\n  real a\n  twice = a * 2.0\nend\n" in
  match scalar res "y" with
  | Interp.VReal v -> Alcotest.(check (float 1e-9)) "call" 6.0 v
  | _ -> Alcotest.fail "y"

let test_step_and_bounds () =
  let res = run "subroutine s\n  integer i, c\n  c = 0\n  do i = 10, 1, -2\n    c = c + 1\n  end do\nend\n" in
  match scalar res "c" with
  | Interp.VInt 5 -> ()
  | Interp.VInt c -> Alcotest.failf "expected 5 iterations, got %d" c
  | _ -> Alcotest.fail "c"

(* the index leaves a DO at lo + trips * step, as in Fortran and the
   abstract interpreter; a loop that never runs leaves it at lo *)
let index_after src =
  match scalar (run src) "i" with
  | Interp.VInt i -> i
  | _ -> Alcotest.fail "i integer"

let test_zero_trip_exit () =
  Alcotest.(check int) "do i = 1, 0" 1
    (index_after "subroutine s\n  integer i\n  do i = 1, 0\n  end do\nend\n")

let test_exit_value () =
  Alcotest.(check int) "do i = 1, 3" 4
    (index_after "subroutine s\n  integer i, c\n  c = 0\n  do i = 1, 3\n    c = c + i\n  end do\nend\n")

let test_errors () =
  Alcotest.(check bool) "out of bounds" true
    (try ignore (run "subroutine s\n  real x(10)\n  x(11) = 1.0\nend\n"); false
     with Interp.Runtime_error _ -> true);
  Alcotest.(check bool) "division by zero" true
    (try ignore (run "subroutine s\n  integer k\n  k = 1 / 0\nend\n"); false
     with Interp.Runtime_error _ -> true);
  Alcotest.(check bool) "unknown routine" true
    (try ignore (run "subroutine s\n  call nonexistent(1)\nend\n"); false
     with Interp.Runtime_error _ -> true)

(* one run allocates at most 50,000,000 array elements over all its
   frames, so a served program cannot declare its way to an OOM kill; a
   frame's arrays are all checked before any is allocated, and sizes too
   large for an int are refused rather than wrapped *)
let test_allocation_budget () =
  (* [earlier]: bytes of arrays that frames before the refused one hold *)
  let fails_with ?(earlier = 0.) expected src =
    let before = Gc.allocated_bytes () in
    (match run src with
     | _ -> Alcotest.failf "ran past the allocation budget: %s" expected
     | exception Interp.Runtime_error (msg, _) ->
       Alcotest.(check string) "budget error" expected msg);
    Alcotest.(check bool) "refused frame allocates nothing" true
      (Gc.allocated_bytes () -. before < earlier +. 1e6)
  in
  (* one frame: refused before either array is allocated *)
  fails_with
    "routine s: array b takes the run past its budget of 50000000 array elements (30000000 taken)"
    "subroutine s\n  real a(30000000), b(30000000)\n  a(1) = 1.0\n  b(1) = 1.0\nend\n";
  (* b's extents multiply to 2^62, which would wrap to min_int *)
  fails_with
    "routine s: array b takes the run past its budget of 50000000 array elements (1000000 taken)"
    "subroutine s\n  real a(1000000), b(2147483648, 2147483648)\n  a(1) = 1.0\nend\n";
  (* an extent past max_int would wrap to an empty array *)
  fails_with
    "routine s: array a takes the run past its budget of 50000000 array elements (0 taken)"
    "subroutine s\n  real a(-4611686018427387000:4611686018427387000)\n  a(1) = 1.0\nend\n";
  (* across frames: every call's arrays count against the same run *)
  fails_with ~earlier:(25. *. 2e6 *. 8.)
    "routine t: array x takes the run past its budget of 50000000 array elements (50000000 taken)"
    "subroutine s\n  integer i\n  do i = 1, 26\n    call t(i)\n  end do\nend\n\n\
     subroutine t(k)\n  integer k\n  real x(2000000)\n  x(1) = 1.0\nend\n"

(* recursion stops at the call-depth cap with a runtime error, not a
   stack overflow *)
let test_call_depth () =
  match run "subroutine s\n  call s\nend\n" with
  | _ -> Alcotest.fail "unbounded recursion returned"
  | exception Interp.Runtime_error (msg, _) ->
    Alcotest.(check string) "depth error" "call to s nested deeper than 1000 calls" msg

(* ---- cost accounting vs static prediction ---- *)

let close_to ?(tol = 0.02) a b =
  let d = Float.abs (a -. b) in
  d <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let agree src args bindings =
  let dynamic = (run ~args src).Interp.cycles in
  let p = Predict.of_source ~machine:p1 src in
  let static = Predict.eval p bindings in
  Alcotest.(check bool)
    (Printf.sprintf "static %.0f ~ dynamic %.0f" static dynamic)
    true (close_to static dynamic)

let test_agreement_daxpy () =
  agree
    "subroutine s(x, y, a, n)\n  integer n, i\n  real x(100000), y(100000), a\n  do i = 1, n\n    y(i) = y(i) + a * x(i)\n  end do\nend\n"
    [ ("n", Interp.VInt 1000) ] [ ("n", 1000.0) ]

let test_agreement_jacobi () =
  agree
    "subroutine jacobi(a, b, n)\n  integer n, i, j\n  real a(300,300), b(300,300)\n  do i = 2, n - 1\n    do j = 2, n - 1\n      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))\n    end do\n  end do\nend\n"
    [ ("n", Interp.VInt 200) ] [ ("n", 200.0) ]

let test_agreement_index_cond () =
  (* the §3.3.2 pattern: static C(L) = k*C(Bt) + (n-k)*C(Bf) must match the
     interpreter's actual path *)
  agree
    "subroutine s(x, n, k)\n  integer n, k, i\n  real x(100000)\n  do i = 1, n\n    if (i .le. k) then\n      x(i) = x(i) * 2.0 + 1.0\n    else\n      x(i) = 0.0\n    end if\n  end do\nend\n"
    [ ("n", Interp.VInt 500); ("k", Interp.VInt 125) ]
    [ ("n", 500.0); ("k", 125.0) ]

let test_agreement_elseif () =
  (* every alternative costs the same, so the probabilities cancel and the
     static cost is exact: both conditions' drops plus one branch, whichever
     is taken *)
  agree
    "subroutine s(a, b, n)\n  integer n, i\n  real a(100), b(100)\n  do i = 1, n\n    if (a(i) > 0.0) then\n      b(i) = 1.0\n    elseif (a(i) * a(i) + b(i) * 2.0 < sqrt(b(i))) then\n      b(i) = 2.0\n    else\n      b(i) = 3.0\n    end if\n  end do\nend\n"
    [ ("n", Interp.VInt 8) ] [ ("n", 8.0) ]

(* a block's cost is computed once per run however often it executes, so
   the bins see as many drops at n = 16 as at n = 4 *)
let test_drops_per_block () =
  let drops n =
    Pperf_obs.Obs.reset_all ();
    ignore
      (run ~args:[ ("n", Interp.VInt n) ]
         "subroutine s(a, n)\n  integer n, i, j\n  real a(100,100)\n  do i = 1, n\n    do j = 1, n\n      a(i,j) = a(i,j) * 2.0 + 1.0\n    end do\n  end do\nend\n");
    match List.assoc_opt "sched.bins" (Pperf_obs.Obs.snapshot ()).spans with
    | Some s -> s.span_count
    | None -> 0
  in
  let small = drops 4 in
  Alcotest.(check bool) "the run drops blocks" true (small > 0);
  Alcotest.(check int) "sched.bins entries at n = 16 as at n = 4" small (drops 16)

(* ---- profiling (§3.4) ---- *)

let branchy_src =
  "subroutine s(x, n, t)\n  integer n, i\n  real x(100000), t\n  do i = 1, n\n    x(i) = float(mod(i, 4))\n  end do\n  do i = 1, n\n    if (x(i) < t) then\n      x(i) = sqrt(x(i) + 1.0) + exp(x(i))\n    else\n      x(i) = 0.0\n    end if\n  end do\nend\n"

let test_profile_counts () =
  let res = run ~args:[ ("n", Interp.VInt 400); ("t", Interp.VReal 1.5) ] branchy_src in
  (* x(i) in {0,1,2,3}; < 1.5 half the time *)
  match Interp.Profile.branch_counts res.profile with
  | [ (_, counts) ] ->
    Alcotest.(check int) "then count" 200 counts.(0);
    Alcotest.(check int) "else count" 200 counts.(1)
  | l -> Alcotest.failf "expected 1 branch site, got %d" (List.length l)

let test_profile_eliminates_variable () =
  let res = run ~args:[ ("n", Interp.VInt 400); ("t", Interp.VReal 1.5) ] branchy_src in
  (* without profile: a probability variable appears *)
  let plain = Predict.of_source ~machine:p1 branchy_src in
  Alcotest.(check bool) "prob var without profile" true (Predict.prob_vars plain <> []);
  (* with the measured probabilities: none *)
  let options =
    { Aggregate.default_options with
      branch_prob = Interp.Profile.branch_prob res.profile }
  in
  let profiled = Predict.of_source ~options ~machine:p1 branchy_src in
  Alcotest.(check (list string)) "no prob vars with profile" [] (Predict.prob_vars profiled);
  (* and the profiled static prediction matches the dynamic cycles *)
  let static = Predict.eval profiled [ ("n", 400.0) ] in
  Alcotest.(check bool)
    (Printf.sprintf "profiled static %.0f ~ dynamic %.0f" static res.cycles)
    true
    (close_to ~tol:0.12 static res.cycles)

(* An elseif chain whose middle arm is never taken: the profile reads
   [32; 0; 32], and each arm must get its own measured probability (the
   else the rest), not the first arm's, for the profiled prediction to
   equal the interpreter's count. *)
let test_profile_elseif_arms () =
  let src =
    "subroutine s(a, b, n)\n  integer n, i\n  real a(100), b(100)\n  do i = 1, n\n    a(i) = float(mod(i, 2))\n    if (a(i) > 0.5) then\n      b(i) = 1.0\n    elseif (a(i) > 2.0) then\n      b(i) = sqrt(a(i)) + exp(a(i))\n    else\n      b(i) = sqrt(a(i) + 1.0) * exp(a(i) + 2.0) + sqrt(b(i))\n    end if\n  end do\nend\n"
  in
  let res = run ~args:[ ("n", Interp.VInt 64) ] src in
  (match Interp.Profile.branch_counts res.profile with
   | [ (_, counts) ] -> Alcotest.(check (array int)) "profile" [| 32; 0; 32 |] counts
   | l -> Alcotest.failf "expected 1 branch site, got %d" (List.length l));
  let options =
    { Aggregate.default_options with
      branch_prob = Interp.Profile.branch_prob res.profile;
      near_equal_tol = 0.0 }
  in
  let static = Predict.eval (Predict.of_source ~options ~machine:p1 src) [ ("n", 64.0) ] in
  Alcotest.(check (float 1e-9)) "profiled static = dynamic" res.cycles static

let test_trip_profile () =
  let res = run ~args:[ ("n", Interp.VInt 50) ]
      "subroutine s(x, n)\n  integer n, i\n  real x(1000)\n  do i = 1, n\n    x(i) = 1.0\n  end do\nend\n" in
  match Interp.Profile.trip_counts res.profile with
  | [ (_, entries, total) ] ->
    Alcotest.(check int) "one entry" 1 entries;
    Alcotest.(check int) "50 iterations" 50 total
  | l -> Alcotest.failf "expected 1 loop site, got %d" (List.length l)

open Pperf_lang

(* ---- property: static (profiled) prediction = dynamic accumulation ---- *)

let gen_expr_leaf =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> Ast.Int i) (QCheck.Gen.int_range 0 99);
      QCheck.Gen.map (fun f -> Ast.real (float_of_int f /. 4.0)) (QCheck.Gen.int_range 1 40);
      QCheck.Gen.oneofl [ Ast.Var "x"; Ast.Var "y"; Ast.Var "i" ];
      QCheck.Gen.map (fun s -> Ast.Index ("arr", [ s ])) (QCheck.Gen.oneofl [ Ast.Var "i"; Ast.Int 1 ]);
    ]

let rec gen_expr depth st =
  let open QCheck.Gen in
  if depth = 0 then gen_expr_leaf st
  else
    (frequency
       [ (2, gen_expr_leaf);
         (3,
          map3 (fun op a b -> Ast.Binop (op, a, b))
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
            (gen_expr (depth - 1)) (gen_expr (depth - 1)));
         (1, map (fun a -> Ast.Call ("sqrt", [ Ast.Call ("abs", [ a ]) ])) (gen_expr (depth - 1)));
       ])
      st

(* one distinct loop index per nesting depth: Fortran forbids reusing an
   active do index; [branches] off generates no [if] *)
let rec gen_stmt ?(branches = true) depth st =
  let open QCheck.Gen in
  let lv = "i" ^ string_of_int depth in
  if depth = 0 then map (fun e -> Ast.sassign "y" e) (gen_expr 2) st
  else
    (frequency
       ([ (4, map (fun e -> Ast.sassign "y" e) (gen_expr 2));
          (2, map (fun e -> Ast.assign "arr" [ Ast.Var "i" ] e) (gen_expr 2));
          (1,
           map2
             (fun hi body -> Ast.do_ lv (Ast.int 1) hi body)
             (oneofl [ Ast.Var "n"; Ast.Int 7 ])
             (list_size (int_range 1 3) (gen_stmt ~branches (depth - 1))));
        ]
       @
       if branches then
         [ (1,
            map3
              (fun c t e -> Ast.if_ (Ast.Binop (Ast.Lt, c, Ast.real 2.0)) t e)
              (gen_expr 1)
              (list_size (int_range 1 2) (gen_stmt (depth - 1)))
              (list_size (int_range 1 2) (gen_stmt (depth - 1)))) ]
       else []))
      st

let gen_routine_of gen_stmt =
  QCheck.Gen.map
    (fun body ->
      {
        Ast.rname = "r";
        rkind = Ast.Subroutine;
        params = [ "x"; "y"; "n" ];
        decls =
          [ { Ast.dname = "x"; dty = Ast.Treal; dims = [] };
            { Ast.dname = "y"; dty = Ast.Treal; dims = [] };
            { Ast.dname = "n"; dty = Ast.Tint; dims = [] };
            { Ast.dname = "i"; dty = Ast.Tint; dims = [] };
            { Ast.dname = "i1"; dty = Ast.Tint; dims = [] };
            { Ast.dname = "i2"; dty = Ast.Tint; dims = [] };
            { Ast.dname = "arr"; dty = Ast.Treal;
              dims = [ { Ast.dim_lo = None; dim_hi = Ast.Int 100 } ] };
          ];
        body;
      })
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) gen_stmt)

let gen_routine = gen_routine_of (gen_stmt 2)

let prop_static_matches_dynamic =
  QCheck.Test.make ~name:"profiled static prediction = dynamic cycles" ~count:120
    (QCheck.make ~print:Pp_ast.routine_to_string gen_routine)
    (fun r ->
      (* re-parse so every statement carries a unique source location (the
         interpreter's cost caches are keyed by location) *)
      let checked =
        Typecheck.check_routine (Parser.parse_routine (Pp_ast.routine_to_string r))
      in
      match
        Interp.run ~machine:p1 ~args:[ ("n", Interp.VInt 6) ] checked
      with
      | exception Interp.Runtime_error _ -> true (* e.g. division blowups: discard *)
      | res ->
        let options =
          { Aggregate.default_options with
            branch_prob = Interp.Profile.branch_prob res.profile;
            near_equal_tol = 0.0 (* exact branch accounting for the check *) }
        in
        let p = Aggregate.routine ~machine:p1 ~options checked in
        let static =
          Pperf_symbolic.Poly.eval_float
            (fun v -> if v = "n" then 6.0 else 0.5)
            (Perf_expr.total p.cost)
        in
        Float.abs (static -. res.cycles) <= (0.05 *. res.cycles) +. 6.0)

(* ---- property: the bin-packing bound is a lower bound ---- *)

(* Without branches every nest Bounds reports runs all its iterations, and
   each iteration is charged the steady state of the same translated block
   (the interpreter and Bounds share Aggregate's loop invariants), so the
   summed bin-packing bounds cannot exceed the dynamic count. *)
let prop_bin_bound_below_dynamic =
  QCheck.Test.make ~name:"bin-packing bounds <= dynamic cycles" ~count:120
    (QCheck.make ~print:Pp_ast.routine_to_string (gen_routine_of (gen_stmt ~branches:false 2)))
    (fun r ->
      let checked =
        Typecheck.check_routine (Parser.parse_routine (Pp_ast.routine_to_string r))
      in
      match Interp.run ~machine:p1 ~args:[ ("n", Interp.VInt 6) ] checked with
      | exception Interp.Runtime_error _ -> true
      | res ->
        let bound =
          List.fold_left
            (fun acc (nest : Pperf_bounds.Bounds.nest) ->
              acc +. Pperf_symbolic.Poly.eval_float (fun _ -> 6.0) nest.bin_bound)
            0.0 (Pperf_bounds.Bounds.analyze ~machine:p1 checked).nests
        in
        bound <= res.cycles)

(* ---- property: the block table never changes a prediction ---- *)

(* every condition [c] of the statements made [c .and. c] *)
let rec recond (s : Ast.stmt) =
  match s.kind with
  | Ast.If (branches, els) ->
    { s with
      kind =
        Ast.If
          ( List.map (fun (c, b) -> (Ast.Binop (Ast.And, c, c), List.map recond b)) branches,
            List.map recond els ) }
  | Ast.Do d -> { s with kind = Ast.Do { d with body = List.map recond d.body } }
  | _ -> s

(* Through one block table: the body inside one more loop, the body twice
   inside it (a run first in one loop body is not first in the other),
   the body inside it with [x] assigned there too (so [x] is no longer
   invariant), the routine with other conditions over the same branch
   bodies, the routine, and a copy shifted down by blank lines. The copy's
   blocks are all found in the table, and the others hold the same
   statements in other contexts, yet each prediction, down to its
   diagnostics' locations, is what a fresh aggregation gives. *)
let prop_block_table_transparent =
  QCheck.Test.make ~name:"block table: predictions of a fresh aggregation" ~count:120
    (QCheck.make ~print:Pp_ast.routine_to_string gen_routine)
    (fun r ->
      let check src = Typecheck.check_routine (Parser.parse_routine src) in
      let src = Pp_ast.routine_to_string r in
      let looped extra =
        Pp_ast.routine_to_string
          { r with body = [ Ast.do_ "i3" (Ast.int 1) (Ast.Var "n") (r.body @ extra) ] }
      in
      let assigns_x = [ Ast.do_ "i4" (Ast.int 1) (Ast.int 1) [ Ast.sassign "x" (Ast.real 0.5) ] ] in
      let reconditioned = Pp_ast.routine_to_string { r with body = List.map recond r.body } in
      let blocks = Aggregate.blocks () in
      List.for_all
        (fun c ->
          let shared = Aggregate.routine ~machine:p1 ~blocks c in
          let fresh = Aggregate.routine ~machine:p1 c in
          Perf_expr.equal shared.cost fresh.cost
          && shared.prob_vars = fresh.prob_vars
          && shared.diagnostics = fresh.diagnostics)
        [ check (looped []); check (looped r.body); check (looped assigns_x); check reconditioned;
          check src; check ("\n\n\n" ^ src) ])

(* ---- calibration ---- *)

(* Calibrating the scalar builtin recovers an exactly-equivalent one-port
   model: every probe kernel re-predicts to the oracle's cycle count. *)
let test_calibrate_scalar () =
  let r = Calibrate.run ~machine:Machine.scalar () in
  Alcotest.(check bool) "ok" true r.Calibrate.ok;
  Alcotest.(check bool) "exact recovery"
    true
    (r.Calibrate.max_rel_err <= 0.01);
  let fitted = Descr.of_string r.Calibrate.description in
  Alcotest.(check bool) "ports model" true (Machine.model fitted = Costmodel.Ports);
  Alcotest.(check int) "one port suffices" 1 (Machine.num_units fitted);
  Alcotest.(check string) "description round-trips" r.Calibrate.description
    (Descr.to_string fitted)

(* Calibrating the superscalar ports machine recovers the true per-op
   reciprocal throughputs and latencies for every probed operation. *)
let test_calibrate_ooo4 () =
  let path =
    if Sys.file_exists "../machines/ooo4.pmach" then "../machines/ooo4.pmach"
    else "machines/ooo4.pmach"
  in
  if Sys.file_exists path then (
    let ic = open_in path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let truth = Descr.of_string src in
    let r = Calibrate.run ~machine:truth () in
    Alcotest.(check bool) "ok" true r.Calibrate.ok;
    Alcotest.(check bool) "exact recovery" true (r.Calibrate.max_rel_err <= 0.01);
    let fitted = Descr.of_string r.Calibrate.description in
    List.iter
      (fun op ->
        let t = Machine.atomic truth op and f = Machine.atomic fitted op in
        Alcotest.(check (float 1e-9))
          (op ^ " reciprocal throughput")
          (Machine.reciprocal_throughput truth t)
          (Machine.reciprocal_throughput fitted f);
        Alcotest.(check int)
          (op ^ " latency")
          (Atomic_op.result_latency t)
          (Atomic_op.result_latency f))
      [ "iadd"; "icmp"; "imul"; "idiv"; "fadd"; "fmul"; "fdiv"; "load_fp";
        "load_int"; "store_fp"; "branch_cond" ])

let qsuite name tests =
  ( name,
    List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])) tests )

let () =
  Alcotest.run "exec"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "loops/arrays" `Quick test_loop_and_array;
          Alcotest.test_case "branches/intrinsics" `Quick test_branches_and_intrinsics;
          Alcotest.test_case "function call" `Quick test_function_call;
          Alcotest.test_case "negative step" `Quick test_step_and_bounds;
          Alcotest.test_case "runtime errors" `Quick test_errors;
          Alcotest.test_case "allocation budget" `Quick test_allocation_budget;
          Alcotest.test_case "call depth" `Quick test_call_depth;
          Alcotest.test_case "zero-trip exit value" `Quick test_zero_trip_exit;
          Alcotest.test_case "exit value" `Quick test_exit_value;
        ] );
      ( "cost-agreement",
        [
          Alcotest.test_case "daxpy" `Quick test_agreement_daxpy;
          Alcotest.test_case "jacobi" `Quick test_agreement_jacobi;
          Alcotest.test_case "index conditional" `Quick test_agreement_index_cond;
          Alcotest.test_case "elseif conditions" `Quick test_agreement_elseif;
          Alcotest.test_case "drops per block" `Quick test_drops_per_block;
        ] );
      qsuite "agreement-props"
        [ prop_static_matches_dynamic; prop_bin_bound_below_dynamic; prop_block_table_transparent ];
      ( "profiling",
        [
          Alcotest.test_case "branch counts" `Quick test_profile_counts;
          Alcotest.test_case "eliminates variables" `Quick test_profile_eliminates_variable;
          Alcotest.test_case "elseif arms" `Quick test_profile_elseif_arms;
          Alcotest.test_case "trip counts" `Quick test_trip_profile;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "recovers scalar" `Slow test_calibrate_scalar;
          Alcotest.test_case "recovers ooo4" `Slow test_calibrate_ooo4;
        ] );
    ]
