(* Tests for restructuring transformations and the performance-guided
   search (§3.2). *)

open Pperf_lang
open Pperf_machine
open Pperf_transform

let p1 = Descr.builtin "power1"

let routine src = (Typecheck.check_routine (Parser.parse_routine src)).routine

let matmul_src = "subroutine mm(a, b, c, n)\n  integer n, i, j, k\n  real a(512,512), b(512,512), c(512,512)\n  do i = 1, n\n    do j = 1, n\n      do k = 1, n\n        c(i,j) = c(i,j) + a(i,k) * b(k,j)\n      end do\n    end do\n  end do\nend\n"

let reparse (r : Ast.routine) =
  (* the transformed program must remain parseable and type-correct *)
  Typecheck.check_routine (Parser.parse_routine (Pp_ast.routine_to_string r))

let loop_of (r : Ast.routine) path =
  match Transformations.stmt_at r path with
  | Some { kind = Ast.Do d; _ } -> d
  | _ -> Alcotest.fail "no loop at path"

let test_loops_in () =
  let r = routine matmul_src in
  let loops = Transformations.loops_in r in
  Alcotest.(check int) "3 loops" 3 (List.length loops);
  let vars = List.map (fun (_, (d : Ast.do_loop)) -> d.var) loops in
  Alcotest.(check (list string)) "order" [ "i"; "j"; "k" ] vars

let test_replace_at () =
  let r = routine matmul_src in
  let p, _ = List.hd (Transformations.loops_in r) in
  match Transformations.replace_at r p [] with
  | Some r' -> Alcotest.(check int) "loop removed" 0 (List.length (Transformations.loops_in r'))
  | None -> Alcotest.fail "replace failed"

let test_unroll_exact () =
  let r = routine "subroutine s(x)\n  integer i\n  real x(100)\n  do i = 1, 100\n    x(i) = 0.0\n  end do\nend\n" in
  let d = loop_of r [ 0 ] in
  match Transformations.unroll_exact ~factor:4 d with
  | Some [ { kind = Ast.Do d'; _ } ] ->
    Alcotest.(check int) "4 statements" 4 (List.length d'.body);
    (match d'.step with
     | Some (Ast.Int 4) -> ()
     | _ -> Alcotest.fail "step 4 expected");
    (* substituted bodies reference i+1..i+3 *)
    let printed = Pp_ast.stmts_to_string d'.body in
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "i + 3 present" true (contains printed "i + 3")
  | _ -> Alcotest.fail "unroll failed"

let test_unroll_remainder () =
  let r = routine "subroutine s(x, n)\n  integer n, i\n  real x(10000)\n  do i = 1, n\n    x(i) = 0.0\n  end do\nend\n" in
  let d = loop_of r [ 0 ] in
  match Transformations.unroll ~factor:4 d with
  | Some [ { kind = Ast.Do main; _ }; { kind = Ast.Do rem; _ } ] ->
    Alcotest.(check int) "main unrolled" 4 (List.length main.body);
    Alcotest.(check int) "remainder body" 1 (List.length rem.body)
  | _ -> Alcotest.fail "expected main + remainder"

let test_interchange () =
  let r = routine matmul_src in
  let d = loop_of r [ 0 ] in
  (match Transformations.interchange d with
   | Some [ { kind = Ast.Do outer; _ } ] ->
     Alcotest.(check string) "j now outer" "j" outer.var;
     (match outer.body with
      | [ { kind = Ast.Do inner; _ } ] -> Alcotest.(check string) "i now inner" "i" inner.var
      | _ -> Alcotest.fail "nest shape")
   | _ -> Alcotest.fail "interchange failed");
  (* illegal case: (<,>) dependence *)
  let skew = routine "subroutine s(a, n)\n  integer n, i, j\n  real a(512,512)\n  do i = 2, n\n    do j = 1, n - 1\n      a(i,j) = a(i-1,j+1) + 1.0\n    end do\n  end do\nend\n" in
  let ds = loop_of skew [ 0 ] in
  Alcotest.(check bool) "illegal interchange refused" true (Transformations.interchange ds = None)

let test_strip_mine_and_tile () =
  let r = routine matmul_src in
  let d = loop_of r [ 0 ] in
  (match Transformations.strip_mine ~width:32 d with
   | Some [ { kind = Ast.Do outer; _ } ] ->
     Alcotest.(check string) "strip var" "i_s" outer.var;
     (match outer.step with Some (Ast.Int 32) -> () | _ -> Alcotest.fail "strip step")
   | _ -> Alcotest.fail "strip mine failed");
  (match Transformations.tile2 ~width:16 d with
   | Some [ { kind = Ast.Do t; _ } ] ->
     Alcotest.(check string) "tile outer" "i_t" t.var;
     (* the result must still parse and typecheck *)
     (match Transformations.replace_at r [ 0 ] [ Ast.mk (Ast.Do t) ] with
      | Some r' -> ignore (reparse r')
      | None -> Alcotest.fail "replace")
   | _ -> Alcotest.fail "tile failed")

let test_distribute_fuse () =
  let r = routine "subroutine s(x, y, n)\n  integer n, i\n  real x(10000), y(10000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n    y(i) = y(i) * 2.0\n  end do\nend\n" in
  let d = loop_of r [ 0 ] in
  (match Transformations.distribute d with
   | Some [ { kind = Ast.Do d1; _ }; { kind = Ast.Do d2; _ } ] ->
     Alcotest.(check int) "split 1" 1 (List.length d1.body);
     Alcotest.(check int) "split 2" 1 (List.length d2.body);
     (* fusing them back gives an equivalent loop *)
     (match Transformations.fuse d1 d2 with
      | Some [ { kind = Ast.Do fused; _ } ] ->
        Alcotest.(check int) "refused body" 2 (List.length fused.body)
      | _ -> Alcotest.fail "fuse failed")
   | _ -> Alcotest.fail "distribute failed");
  (* distribution blocked by a backward cross-statement dependence *)
  let bad = routine "subroutine s(x, n)\n  integer n, i\n  real x(10000), y(10000)\n  do i = 2, n\n    y(i) = x(i-1)\n    x(i) = y(i) + 1.0\n  end do\nend\n" in
  let db = loop_of bad [ 0 ] in
  ignore db (* distribution of this loop must keep x's producing statement first *);
  (* fusion with unequal headers is refused *)
  let l1 = loop_of (routine "subroutine a(x, n)\n  integer n, i\n  real x(100)\n  do i = 1, n\n    x(i) = 0.0\n  end do\nend\n") [ 0 ] in
  let l2 = loop_of (routine "subroutine b(x, n)\n  integer n, i\n  real x(100)\n  do i = 2, n\n    x(i) = 1.0\n  end do\nend\n") [ 0 ] in
  Alcotest.(check bool) "unequal headers refused" true (Transformations.fuse l1 l2 = None)


let test_reverse () =
  (* independent loop: reversible *)
  let ok = loop_of (routine "subroutine s(x, n)\n  integer n, i\n  real x(10000)\n  do i = 1, n\n    x(i) = 1.0\n  end do\nend\n") [ 0 ] in
  (match Transformations.reverse ok with
   | Some [ { kind = Ast.Do d; _ } ] ->
     (match d.step with Some (Ast.Int (-1)) -> () | _ -> Alcotest.fail "step -1");
     Alcotest.(check bool) "bounds swapped" true (Ast.equal_expr d.lo (Ast.Var "n"))
   | _ -> Alcotest.fail "reverse failed");
  (* recurrence: not reversible *)
  let bad = loop_of (routine "subroutine s(x, n)\n  integer n, i\n  real x(10000)\n  do i = 2, n\n    x(i) = x(i-1) + 1.0\n  end do\nend\n") [ 0 ] in
  Alcotest.(check bool) "carried dep blocks reversal" true (Transformations.reverse bad = None)

let test_transformed_sources_valid () =
  (* every action the search would try yields a program that re-parses *)
  let r = routine matmul_src in
  List.iter
    (fun (name, _, apply) ->
      match apply r with
      | None -> ()
      | Some r' ->
        (try ignore (reparse r')
         with e ->
           Alcotest.failf "action %s produced invalid program: %s" name (Printexc.to_string e)))
    (Search.candidate_actions r)

let test_search_improves_matmul () =
  let checked = Typecheck.check_routine (Parser.parse_routine matmul_src) in
  let env = Pperf_symbolic.Interval.Env.of_list
      [ ("n", Pperf_symbolic.Interval.of_ints 256 256) ] in
  let out = Search.run ~machine:p1 ~env ~max_nodes:40 ~max_depth:2 checked in
  Alcotest.(check bool) "explored something" true (out.explored > 1);
  let value c = Pperf_symbolic.Poly.eval_float (fun _ -> 256.0) (Pperf_core.Perf_expr.total c) in
  Alcotest.(check bool)
    (Printf.sprintf "improved: %.0f -> %.0f via %s" (value out.initial) (value out.predicted)
       (String.concat ";" (List.map (fun (s : Search.step) -> s.action) out.trace)))
    true
    (value out.predicted < value out.initial);
  Alcotest.(check bool) "trace nonempty" true (out.trace <> [])


let test_versioned_structure () =
  let a = routine "subroutine s(x, n)\n  integer n, i\n  real x(100)\n  do i = 1, n, 2\n    x(i) = 0.0\n  end do\nend\n" in
  let b = routine "subroutine s(x, n)\n  integer n, i\n  real x(100)\n  do i = 1, n\n    x(i) = 0.0\n  end do\nend\n" in
  let guard = Ast.Binop (Ast.Le, Ast.Var "n", Ast.Int 100) in
  let v = Search.make_versioned ~guard a b in
  (match v.body with
   | [ { kind = Ast.If ([ (g, tb) ], eb); _ } ] ->
     Alcotest.(check bool) "guard kept" true (Ast.equal_expr g guard);
     Alcotest.(check int) "then = variant a" (List.length a.body) (List.length tb);
     Alcotest.(check int) "else = variant b" (List.length b.body) (List.length eb)
   | _ -> Alcotest.fail "if structure expected");
  (* the combined routine re-parses and typechecks *)
  ignore (reparse v)

let test_run_versioned_smoke () =
  let checked = Typecheck.check_routine (Parser.parse_routine matmul_src) in
  let env = Pperf_symbolic.Interval.Env.of_list
      [ ("n", Pperf_symbolic.Interval.of_ints 4 512) ] in
  let out, versioned = Search.run_versioned ~machine:p1 ~env ~max_nodes:30 ~max_depth:1 checked in
  Alcotest.(check bool) "search ran" true (out.explored > 0);
  (* either a clean win (no versioning) or a well-formed versioned routine *)
  match versioned with
  | None -> ()
  | Some v ->
    (match v.routine.body with
     | [ { kind = Ast.If _; _ } ] -> ()
     | _ -> Alcotest.fail "versioned routine must be a single if");
    ignore (reparse v.routine)

let () =
  Alcotest.run "transform"
    [
      ( "navigation",
        [
          Alcotest.test_case "loops_in" `Quick test_loops_in;
          Alcotest.test_case "replace_at" `Quick test_replace_at;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "unroll exact" `Quick test_unroll_exact;
          Alcotest.test_case "unroll remainder" `Quick test_unroll_remainder;
          Alcotest.test_case "interchange" `Quick test_interchange;
          Alcotest.test_case "strip mine / tile" `Quick test_strip_mine_and_tile;
          Alcotest.test_case "distribute / fuse" `Quick test_distribute_fuse;
          Alcotest.test_case "reverse" `Quick test_reverse;
          Alcotest.test_case "all actions valid" `Quick test_transformed_sources_valid;
        ] );
      ( "search",
        [
          Alcotest.test_case "matmul improves" `Slow test_search_improves_matmul;
          Alcotest.test_case "versioned structure" `Quick test_versioned_structure;
          Alcotest.test_case "run_versioned smoke" `Slow test_run_versioned_smoke;
        ] );
    ]
