(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §6 for the experiment index). Wall-clock
   claims come from perfbench/; work claims are counter checks under
   dune runtest.

   Usage:
     bench/main.exe [tables]    -- every table
     bench/main.exe NAME        -- one table, NAME a key of [tables] below
*)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_sched
open Pperf_backend
open Pperf_core
open Pperf_workloads

let p1 = Machine.power1

let header title = Printf.printf "\n=== %s ===\n" title

let line = String.make 78 '-'

(* ---------------------------------------------------------------- FIG7 *)

let fig7 () =
  header "FIG7 - straight-line prediction vs reference back-end (paper Fig. 7)";
  Printf.printf "%-8s %-38s %6s %6s %6s %8s %8s\n" "kernel" "description" "pred" "ref" "err%"
    "opcount" "op-err%";
  print_endline line;
  let tot_err = ref 0.0 and tot_operr = ref 0.0 and count = ref 0 in
  List.iter
    (fun (k : Workloads.kernel) ->
      let res = Workloads.innermost_dag ~machine:p1 k in
      let bins = Bins.create p1 in
      let pred = (Bins.drop_dag bins res.body).cost in
      let reference = Pipeline.reference_cycles p1 res.body in
      let opcount = Bins.Opcount.cost res.body in
      let err = 100.0 *. Float.abs (float_of_int (pred - reference)) /. float_of_int reference in
      let operr = 100.0 *. Float.abs (float_of_int (opcount - reference)) /. float_of_int reference in
      tot_err := !tot_err +. err;
      tot_operr := !tot_operr +. operr;
      incr count;
      Printf.printf "%-8s %-38s %6d %6d %5.1f%% %8d %7.1f%%\n" k.name k.descr pred reference err
        opcount operr)
    Workloads.fig7_kernels;
  print_endline line;
  Printf.printf "%-47s %13.1f%% %16.1f%%\n" "mean error"
    (!tot_err /. float_of_int !count)
    (!tot_operr /. float_of_int !count);
  Printf.printf
    "(reference = greedy list scheduler + in-order pipeline on the same machine\n\
    \ description; stands in for the paper's xlf -qdebug=cycles listings)\n"

(* ---------------------------------------------------------------- FIG9 *)

let fig9 () =
  header "FIG9 - overlap between adjacent basic blocks (cost-block shape matching)";
  Printf.printf "%-10s %-10s %6s %6s %9s %8s %8s\n" "block A" "block B" "cost A" "cost B"
    "estimate" "exact" "saved";
  print_endline line;
  let block k =
    let res = Workloads.innermost_dag ~machine:p1 k in
    let bins = Bins.create p1 in
    let s = Bins.drop_dag bins res.body in
    (res.body, Bins.cost_block bins, s.cost)
  in
  let kernels =
    [ Workloads.f1; Workloads.f3; Workloads.f5; Workloads.jacobi; Workloads.matmul_unrolled ]
  in
  List.iter
    (fun ka ->
      List.iter
        (fun kb ->
          let da, cba, ca = block ka in
          let db, cbb, cb = block kb in
          let est = Costblock.combine_estimate cba cbb in
          let bins = Bins.create p1 in
          ignore (Bins.drop_dag bins da);
          let exact = (Bins.drop_dag bins db).cost in
          Printf.printf "%-10s %-10s %6d %6d %9d %8d %8d\n" ka.Workloads.name kb.Workloads.name
            ca cb est exact (ca + cb - exact))
        kernels)
    [ Workloads.f1; Workloads.jacobi ]

(* --------------------------------------------------------------- FIG10 *)

let fig10 () =
  header "FIG10 - sign regions of a cubic performance difference over [lb, ub]";
  let x = Poly.var "x" in
  let p =
    Poly.Infix.(
      Poly.scale_int 2 (Poly.pow x 3) - Poly.scale_int 9 (Poly.pow x 2) + Poly.scale_int 7 x
      + Poly.of_int 6)
  in
  Printf.printf "P(x) = %s on [-2, 5]\n" (Poly.to_string p);
  let iv = Interval.of_ints (-2) 5 in
  List.iter
    (fun (r : Signs.region) -> Format.printf "  %a@." Signs.pp_region r)
    (Signs.regions p "x" iv);
  let split = Integrate.pos_neg_split p "x" iv in
  Format.printf "  %a@." Integrate.pp_split split;
  match Roots.Closed_form.solve [| 6.; 7.; -9.; 2. |] with
  | Some roots ->
    Printf.printf "  closed-form roots: %s\n"
      (String.concat ", " (List.map (Printf.sprintf "%.4f") roots))
  | None -> ()

(* ----------------------------------------------------------------- AGG *)

let agg () =
  header "TAB-AGG - symbolic performance expressions of whole kernels";
  Printf.printf "%-8s %-44s %10s %12s\n" "kernel" "performance expression (cycles)" "n=64"
    "n=256";
  print_endline line;
  List.iter
    (fun (k : Workloads.kernel) ->
      let p = Predict.of_source ~machine:p1 k.source in
      let expr = Poly.to_string (Predict.total p) in
      let expr = if String.length expr > 44 then String.sub expr 0 41 ^ "..." else expr in
      Printf.printf "%-8s %-44s %10.0f %12.0f\n" k.name expr
        (Predict.eval p [ ("n", 64.0) ])
        (Predict.eval p [ ("n", 256.0) ]))
    Workloads.fig7_kernels

(* ------------------------------------------------------------ SIMPLIFY *)

let simplify () =
  header "TAB-SIMPL - §3.3.2 avoidance heuristics";
  let src =
    "subroutine s(x, n, k)\n  integer n, k, i\n  real x(100000)\n  do i = 1, n\n\
    \    if (i .le. k) then\n      x(i) = x(i) * 2.0 + 1.0\n    else\n      x(i) = 0.0\n\
    \    end if\n  end do\nend\n"
  in
  let p = Predict.of_source ~machine:p1 src in
  Printf.printf "index-conditional loop:  C(L) = %s\n" (Poly.to_string (Predict.total p));
  Printf.printf "  probability variables introduced: %d (the heuristic avoided the guess)\n"
    (List.length (Predict.prob_vars p));
  let src2 =
    "subroutine s(x, y)\n  real x, y\n  if (x > 0.0) then\n    y = x + 1.0\n  else\n\
    \    y = x + 2.0\n  end if\nend\n"
  in
  let p2 = Predict.of_source ~machine:p1 src2 in
  Printf.printf "near-equal branches:     C = %s (no probability variable)\n"
    (Poly.to_string (Predict.total p2));
  let x = Poly.var "x" in
  let lau =
    Poly.Infix.(
      Poly.scale_int 4 (Poly.pow x 4) + Poly.scale_int 2 (Poly.pow x 3) - Poly.scale_int 4 x
      + Poly.var_pow "x" (-3))
  in
  let env = Interval.Env.of_list [ ("x", Interval.of_ints 3 100) ] in
  let simp = Simplify.drop_negligible env lau in
  Printf.printf "term dropping on [3,100]: %s\n  ->  %s  (max rel. error %.2e)\n"
    (Poly.to_string lau) (Poly.to_string simp)
    (Simplify.max_relative_error env ~original:lau ~simplified:simp)

(* -------------------------------------------------------------- UNROLL *)

let unroll () =
  header "TAB-UNROLL - unroll factor selection (the paper's two methods vs reference)";
  Printf.printf "%-8s %7s %12s %12s %12s %10s\n" "factor" "ops" "re-drop/iter" "shape/iter"
    "ref/iter" "err%";
  print_endline line;
  let base =
    "subroutine s(x, y, a, n)\n  integer n, i\n  real x(100000), y(100000), a\n\
    \  do i = 1, n\n    y(i) = y(i) + a * x(i)\n  end do\nend\n"
  in
  let checked = Typecheck.check_routine (Parser.parse_routine base) in
  let d =
    match checked.routine.body with [ { kind = Ast.Do d; _ } ] -> d | _ -> assert false
  in
  let best_pred = ref (infinity, 1) and best_ref = ref (infinity, 1) in
  List.iter
    (fun factor ->
      let fixed = { d with Ast.lo = Ast.Int 1; hi = Ast.Int 64 } in
      let stmts =
        if factor = 1 then [ Ast.mk (Ast.Do fixed) ]
        else Option.get (Pperf_transform.Transformations.unroll_exact ~factor fixed)
      in
      let r' = { checked.routine with body = stmts } in
      let c' = Typecheck.check_routine (Parser.parse_routine (Pp_ast.routine_to_string r')) in
      let loops, d', body = List.hd (Analysis.innermost_nests c'.routine.body) in
      let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
      let invariants =
        Analysis.loop_invariants ~declared:(Analysis.declared_names c'.symbols) d'
      in
      let res =
        Pperf_translate.Translator.translate_block ~machine:p1 ~symtab:c'.symbols ~loop_vars
          ~invariants body
      in
      let overhead = Pperf_translate.Translator.loop_overhead_dag ~machine:p1 () in
      let dag = Dag.concat res.body overhead in
      (* method 2 (SS2.2.2): drop the block into the bins multiple times *)
      let _, per_iter = Bins.steady_state (Bins.create p1) dag in
      let pred = float_of_int per_iter /. float_of_int factor in
      (* method 1: examine the shape of the cost block (self-overlap) *)
      let shape_bins = Bins.create p1 in
      ignore (Bins.drop_dag shape_bins dag);
      let cb = Bins.cost_block shape_bins in
      let shape =
        float_of_int (max 1 (Costblock.unrolled_iteration_estimate cb)) /. float_of_int factor
      in
      let eight = Dag.repeat dag 8 in
      let refc =
        float_of_int (Pipeline.reference_cycles p1 eight) /. (8.0 *. float_of_int factor)
      in
      if pred < fst !best_pred then best_pred := (pred, factor);
      if refc < fst !best_ref then best_ref := (refc, factor);
      Printf.printf "%-8d %7d %12.2f %12.2f %12.2f %9.1f%%\n" factor (Dag.length dag) pred
        shape refc
        (100.0 *. Float.abs (pred -. refc) /. refc))
    [ 1; 2; 4; 8 ];
  print_endline line;
  Printf.printf "chosen unroll factor: predicted %d, reference %d  =>  %s\n" (snd !best_pred)
    (snd !best_ref)
    (if snd !best_pred = snd !best_ref then "AGREE" else "DISAGREE")

(* ------------------------------------------------------------- COMPARE *)

let compare_tab () =
  header "TAB-CMP - symbolic comparison drives transformation choice";
  let options = { Aggregate.default_options with include_memory = true } in
  let good =
    Predict.of_source ~options ~machine:p1
      "subroutine g(a, n)\n  integer n, i, j\n  real a(512,512)\n  do j = 1, n\n\
      \    do i = 1, n\n      a(i,j) = a(i,j) * 2.0\n    end do\n  end do\nend\n"
  in
  let bad =
    Predict.of_source ~options ~machine:p1
      "subroutine b(a, n)\n  integer n, i, j\n  real a(512,512)\n  do i = 1, n\n\
      \    do j = 1, n\n      a(i,j) = a(i,j) * 2.0\n    end do\n  end do\nend\n"
  in
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 8 512) ] in
  let d = Compare.decide env (Predict.cost good) (Predict.cost bad) in
  Format.printf
    "loop order (ij vs ji traversal, memory model on):@.  C(good) = %a@.  C(bad)  = %a@.  verdict: %a@."
    Perf_expr.pp (Predict.cost good) Perf_expr.pp (Predict.cost bad) Compare.pp_decision d;
  let cf = Perf_expr.of_cpu (Poly.add_const (Rat.of_int 200) (Poly.scale_int 6 (Poly.var "n"))) in
  let cg = Perf_expr.of_cpu (Poly.scale_int 8 (Poly.var "n")) in
  let d2 = Compare.decide env cf cg in
  Format.printf "preprocessing (200 + 6n) vs direct (8n) on n in [8,512]:@.  %a@."
    Compare.pp_decision d2;
  let wins = ref 0 and total = ref 0 in
  List.iter
    (fun n ->
      let vf = 200.0 +. (6.0 *. n) and vg = 8.0 *. n in
      let predicted_first = vf < vg in
      let region_first = n > 100.0 in
      incr total;
      if predicted_first = region_first then incr wins)
    [ 10.; 50.; 99.; 101.; 200.; 400. ];
  Printf.printf "  region decisions agree with direct evaluation on %d/%d samples\n" !wins !total

(* ---------------------------------------------------------------- SENS *)

let sens () =
  header "TAB-SENS - sensitivity analysis and run-time test generation (§3.4)";
  let src =
    "subroutine s(x, n, k, m)\n  integer n, k, m, i, j\n  real x(100000)\n  do i = 1, n\n\
    \    do j = 1, m\n      x(j) = x(j) + 1.0\n    end do\n    if (i .le. k) then\n\
    \      x(i) = sqrt(x(i))\n    else\n      x(i) = 0.0\n    end if\n  end do\nend\n"
  in
  let p = Predict.of_source ~machine:p1 src in
  let total = Predict.total p in
  Printf.printf "C = %s\n" (Poly.to_string total);
  let env =
    Interval.Env.of_list
      [ ("n", Interval.of_ints 1 1000); ("m", Interval.of_ints 1 100);
        ("k", Interval.of_ints 1 1000) ]
  in
  List.iter (fun r -> Format.printf "  %a@." Sensitivity.pp_report r) (Sensitivity.rank env total);
  let alt = Perf_expr.of_cpu (Poly.scale_int 40 (Poly.mul (Poly.var "n") (Poly.var "m"))) in
  let d = Compare.decide env (Predict.cost p) alt in
  match d.verdict with
  | Signs.Undecided diff ->
    let t = Runtime_test.of_difference env diff in
    Format.printf "undecidable vs 40nm; generated guard:@.  %a@." Runtime_test.pp t;
    Printf.printf "  worthwhile: %b\n" (Runtime_test.worthwhile env t diff)
  | v -> Format.printf "verdict: %a@." Signs.pp_verdict v

(* ----------------------------------------------------------------- MEM *)

let mem () =
  header "TAB-MEM - cache model vs direct simulation (distinct lines)";
  Printf.printf "%-26s %6s %12s %12s %8s\n" "loop nest" "n" "pred lines" "sim misses" "err%";
  print_endline line;
  let run src n =
    let c = Typecheck.check_routine (Parser.parse_routine src) in
    let loops, body = List.hd (Analysis.innermost_bodies c.routine.body) in
    let groups =
      Pperf_memcost.Memcost.analyze_nest ~bounds:(fun _ -> n) ~machine:p1 ~symtab:c.symbols
        loops body
    in
    let pred =
      List.fold_left
        (fun acc (g : Pperf_memcost.Memcost.ref_group) ->
          acc +. Rat.to_float (Poly.eval (fun _ -> Rat.of_int n) g.lines))
        0.0 groups
    in
    let misses, _ =
      Pperf_memcost.Memcost.Sim.run_nest ~machine:p1 ~symtab:c.symbols
        ~bounds:(fun _ -> n)
        loops body
    in
    (pred, misses)
  in
  let cases =
    [ ( "stride-1 stream",
        "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n\
        \    x(i) = x(i) + 1.0\n  end do\nend\n",
        [ 1024; 4096 ] );
      ( "column-major sweep",
        "subroutine s(a, n)\n  integer n, i, j\n  real a(256,256)\n  do j = 1, n\n\
        \    do i = 1, n\n      a(i,j) = 1.0\n    end do\n  end do\nend\n",
        [ 128; 256 ] );
      ( "row-major sweep",
        "subroutine s(a, n)\n  integer n, i, j\n  real a(256,256)\n  do i = 1, n\n\
        \    do j = 1, n\n      a(i,j) = 1.0\n    end do\n  end do\nend\n",
        [ 128 ] );
      ("jacobi", Workloads.jacobi.Workloads.source, [ 128 ]);
    ]
  in
  List.iter
    (fun (name, src, sizes) ->
      List.iter
        (fun n ->
          let pred, misses = run src n in
          Printf.printf "%-26s %6d %12.0f %12d %7.1f%%\n" name n pred misses
            (100.0 *. Float.abs (pred -. float_of_int misses) /. float_of_int (max misses 1)))
        sizes)
    cases;
  Printf.printf "(simulator: %d-byte lines, %dKB, %d-way LRU)\n" p1.cache.line_bytes
    (p1.cache.cache_bytes / 1024) p1.cache.associativity

(* ---------------------------------------------------------------- COMM *)

let comm () =
  header "TAB-COMM - communication model vs message-counting simulation";
  let comm_params = { Machine.processors = 8; startup_cycles = 1000; per_byte_cycles = 0.5 } in
  Printf.printf "%-22s %-12s %10s %10s %12s\n" "pattern" "static" "sim msgs" "sim bytes"
    "static cost";
  print_endline line;
  let block = { Pperf_commcost.Commcost.ldist = [ Pperf_commcost.Commcost.Block ] } in
  let layouts = [ ("a", block); ("b", block); ("x", block) ] in
  let cases =
    [ ( "shift by 1",
        "subroutine s(a, b, n)\n  integer n, i\n  real a(1024), b(1024)\n  do i = 2, n\n\
        \    a(i) = b(i-1)\n  end do\nend\n" );
      ( "aligned (local)",
        "subroutine s(a, b, n)\n  integer n, i\n  real a(1024), b(1024)\n  do i = 1, n\n\
        \    a(i) = b(i)\n  end do\nend\n" );
      ( "broadcast b(1)",
        "subroutine s(a, b, n)\n  integer n, i\n  real a(1024), b(1024)\n  do i = 1, n\n\
        \    a(i) = b(1)\n  end do\nend\n" );
      ( "reduction",
        "subroutine s(x, n, s1)\n  integer n, i\n  real x(1024), s1\n  do i = 1, n\n\
        \    s1 = s1 + x(i)\n  end do\nend\n" );
      ( "reversal gather",
        "subroutine s(a, b, n)\n  integer n, i\n  real a(1024), b(1024)\n  do i = 1, n\n\
        \    a(i) = b(n-i+1)\n  end do\nend\n" );
    ]
  in
  List.iter
    (fun (name, src) ->
      let c = Typecheck.check_routine (Parser.parse_routine src) in
      let events =
        Pperf_commcost.Commcost.analyze_nest ~comm:comm_params ~symtab:c.symbols ~layouts []
          c.routine.body
      in
      let static =
        match events with
        | [] -> "local"
        | e :: _ -> (
          match e.pattern with
          | Pperf_commcost.Commcost.Shift _ -> "shift"
          | Broadcast _ -> "broadcast"
          | Reduce _ -> "reduce"
          | Gather _ -> "gather"
          | Local -> "local")
      in
      let msgs, bytes =
        Pperf_commcost.Commcost.Sim.count_messages ~comm:comm_params ~symtab:c.symbols
          ~layouts
          ~bounds:(fun v -> if v = "p" then 8 else 1024)
          [] c.routine.body
      in
      let cost =
        List.fold_left
          (fun acc (e : Pperf_commcost.Commcost.event) ->
            acc
            +. Rat.to_float
                 (Poly.eval
                    (fun v -> Rat.of_int (if v = "p" then 8 else 1024))
                    (Pperf_commcost.Commcost.pattern_cost comm_params e.pattern)))
          0.0 events
      in
      Printf.printf "%-22s %-12s %10d %10d %12.0f\n" name static msgs bytes cost)
    cases

(* --------------------------------------------------------------- ASTAR *)

let astar () =
  header "TAB-ASTAR - performance-guided transformation search (§3.2)";
  Printf.printf "%-12s %-28s %12s %12s %8s\n" "program" "sequence found" "before" "after" "gain";
  print_endline line;
  let programs =
    [ ("matmul", Workloads.matmul_unrolled.Workloads.source);
      ("daxpy", Workloads.f1.Workloads.source);
      ( "stride-bad",
        "subroutine sb(a, n)\n  integer n, i, j\n  real a(512,512)\n  do i = 1, n\n\
        \    do j = 1, n\n      a(i,j) = a(i,j) + 1.0\n    end do\n  end do\nend\n" );
    ]
  in
  List.iter
    (fun (name, src) ->
      let checked = Typecheck.check_routine (Parser.parse_routine src) in
      let env = Interval.Env.of_list [ ("n", Interval.of_ints 128 128) ] in
      let options = { Aggregate.default_options with include_memory = true } in
      let out =
        Pperf_transform.Search.run ~machine:p1 ~options ~env ~max_nodes:60 ~max_depth:2 checked
      in
      let value c =
        Poly.eval_float
          (fun v -> if Analysis.is_trip_var v then 8.0 else 128.0)
          (Perf_expr.total c)
      in
      let before = value out.initial and after = value out.predicted in
      let seq =
        if out.trace = [] then "(none)"
        else
          String.concat ";" (List.map (fun (s : Pperf_transform.Search.step) -> s.action) out.trace)
      in
      Printf.printf "%-12s %-28s %12.0f %12.0f %7.1f%%\n" name seq before after
        (100.0 *. (before -. after) /. before))
    programs

(* --------------------------------------------------------------- FIG7X *)

let fig7x () =
  header "TAB-FIG7X - extended corpus (beyond the paper's kernels)";
  Printf.printf "%-9s %-46s %6s %6s %6s\n" "kernel" "description" "pred" "ref" "err%";
  print_endline line;
  List.iter
    (fun (k : Workloads.kernel) ->
      let res = Workloads.innermost_dag ~machine:p1 k in
      let bins = Bins.create p1 in
      let pred = (Bins.drop_dag bins res.body).cost in
      let reference = Pipeline.reference_cycles p1 res.body in
      Printf.printf "%-9s %-46s %6d %6d %5.1f%%\n" k.name k.descr pred reference
        (100.0 *. Float.abs (float_of_int (pred - reference)) /. float_of_int reference))
    Workloads.extended_kernels

(* --------------------------------------------------------------- ORDER *)

let order_tab () =
  header "TAB-ORDER - statement-block ordering by cost-block shapes (SS2.4.2)";
  let kernels = [ Workloads.f1; Workloads.f3; Workloads.f5; Workloads.f6; Workloads.jacobi ] in
  let blocks_and_dags =
    List.map
      (fun k ->
        let res = Workloads.innermost_dag ~machine:p1 k in
        let bins = Bins.create p1 in
        ignore (Bins.drop_dag bins res.body);
        (k.Workloads.name, Bins.cost_block bins, res.body))
      kernels
  in
  let blocks = List.map (fun (_, b, _) -> b) blocks_and_dags in
  let exact_cost order =
    let bins = Bins.create p1 in
    List.fold_left
      (fun _ i ->
        let _, _, dag = List.nth blocks_and_dags i in
        (Bins.drop_dag bins dag).cost)
      0 order
  in
  let natural = List.init (List.length blocks) (fun i -> i) in
  let chosen = Costblock.best_order blocks in
  let show name order =
    Printf.printf "%-10s %-28s est %5d  exact %5d\n" name
      (String.concat ">" (List.map (fun i -> let n, _, _ = List.nth blocks_and_dags i in n) order))
      (Costblock.chain_cost_estimate (List.map (List.nth blocks) order))
      (exact_cost order)
  in
  Printf.printf "%-10s %-28s %9s %11s\n" "order" "sequence" "estimate" "exact";
  print_endline line;
  show "natural" natural;
  show "shape" chosen;
  Printf.printf "(greedy shape matching never degrades the chain and usually tightens it)\n"

(* --------------------------------------------------------------- XMACH *)

let xmach () =
  header "TAB-XMACH - portability: the same kernels across machine descriptions";
  let machines = [ Machine.power1; Machine.power1_wide; Machine.alpha21064; Machine.scalar ] in
  Printf.printf "%-8s" "kernel";
  List.iter (fun (m : Machine.t) -> Printf.printf " %9s/ref" m.name) machines;
  Printf.printf "\n";
  print_endline line;
  List.iter
    (fun (k : Workloads.kernel) ->
      Printf.printf "%-8s" k.name;
      List.iter
        (fun m ->
          let res = Workloads.innermost_dag ~machine:m k in
          let bins = Bins.create m in
          let pred = (Bins.drop_dag bins res.body).cost in
          let reference = Pipeline.reference_cycles m res.body in
          Printf.printf " %6d/%-6d" pred reference)
        machines;
      Printf.printf "\n")
    Workloads.fig7_kernels;
  Printf.printf
    "(each machine is pure table data - see machines/*.pmach; the model keeps\n\
    \ tracking the reference without any code changes)\n"

(* --------------------------------------------------------------- FLAGS *)

let flags_ablation () =
  header "TAB-FLAGS - back-end imitation matters (each optimization disabled)";
  Printf.printf "%-22s %14s %10s\n" "translator config" "mean pred" "err vs ref";
  print_endline line;
  let module F = Pperf_translate.Flags in
  let configs =
    [ ("all on", F.all_on);
      ("no cse", { F.all_on with cse = false });
      ("no licm", { F.all_on with licm = false });
      ("no fma fusion", { F.all_on with fma_fusion = false });
      ("no sum reduction", { F.all_on with sum_reduction = false });
      ("no update addressing", { F.all_on with update_addressing = false });
      ("all off", F.all_off);
    ]
  in
  (* reference: the oracle on the fully-optimized translation - what the
     real back-end would emit *)
  let refs =
    List.map
      (fun k ->
        let res = Workloads.innermost_dag ~machine:p1 k in
        Pipeline.reference_cycles p1 res.body)
      Workloads.fig7_kernels
  in
  List.iter
    (fun (name, flags) ->
      let total_pred = ref 0.0 and total_err = ref 0.0 in
      List.iter2
        (fun k reference ->
          let res = Workloads.innermost_dag ~flags ~machine:p1 k in
          let bins = Bins.create p1 in
          let pred = (Bins.drop_dag bins res.body).cost in
          total_pred := !total_pred +. float_of_int pred;
          total_err :=
            !total_err
            +. (100.0 *. Float.abs (float_of_int (pred - reference)) /. float_of_int reference))
        Workloads.fig7_kernels refs;
      let n = float_of_int (List.length refs) in
      Printf.printf "%-22s %14.1f %9.1f%%\n" name (!total_pred /. n) (!total_err /. n))
    configs;
  Printf.printf
    "(failing to imitate a back-end optimization inflates the estimate - the\n\
    \ paper's reason for the two-level translation imitating xlf, SS2.2.2)\n"

(* ----------------------------------------------------------------- DYN *)

let dyn () =
  header "TAB-DYN - static prediction vs dynamic (interpreter) cycles";
  Printf.printf "%-8s %8s %14s %14s %8s\n" "kernel" "n" "static" "dynamic" "err%";
  print_endline line;
  List.iter
    (fun ((k : Workloads.kernel), n) ->
      let p = Predict.of_source ~machine:p1 k.source in
      let static = Predict.eval p [ ("n", float_of_int n) ] in
      let res =
        Pperf_exec.Interp.run_source ~machine:p1
          ~args:[ ("n", Pperf_exec.Interp.VInt n) ]
          k.source
      in
      Printf.printf "%-8s %8d %14.0f %14.0f %7.2f%%\n" k.name n static res.cycles
        (100.0 *. Float.abs (static -. res.cycles) /. res.cycles))
    [ (Workloads.f1, 2000); (Workloads.f2, 2000); (Workloads.f3, 2000);
      (Workloads.f4, 2000); (Workloads.f6, 500); (Workloads.jacobi, 200);
      (Workloads.redblack, 200) ];
  Printf.printf
    "(the interpreter walks the actual execution path charging Tetris-model\n\
    \ block costs - the symbolic aggregation must reproduce that sum exactly\n\
    \ when control flow is input-independent)\n"

(* --------------------------------------------------------------- FOCUS *)

(* a block of [n] ops on power1: every third op a load, the others fadd
   or fmul reading the op two back *)
let block_of_size n =
  let fadd = Machine.atomic p1 "fadd" and load = Machine.atomic p1 "load_fp" in
  let fmul = Machine.atomic p1 "fmul" in
  Dag.of_ops
    (List.init n (fun i ->
         if i mod 3 = 0 then (load, [])
         else ((if i mod 3 = 1 then fadd else fmul), if i >= 2 then [ i - 2 ] else [])))

(* the accuracy side of the focus span (§2.1); its work side, the cells
   scanned per placement, is checked in test_sched *)
let focus () =
  header "ABLATION - focus span (cost estimate vs span)";
  Printf.printf "%-12s %10s\n" "focus span" "cost";
  List.iter
    (fun span ->
      let b = Bins.create ~focus_span:span p1 in
      Printf.printf "%-12d %10d\n" span (Bins.drop_dag b (block_of_size 400)).cost)
    [ 1; 4; 16; 64; 256 ]

(* ----------------------------------------------------------------- main *)

let tables =
  [ ("fig7", fig7); ("fig7x", fig7x); ("fig9", fig9); ("fig10", fig10); ("agg", agg);
    ("simplify", simplify); ("unroll", unroll); ("compare", compare_tab); ("sens", sens);
    ("mem", mem); ("comm", comm); ("astar", astar); ("order", order_tab); ("xmach", xmach);
    ("flags", flags_ablation); ("dyn", dyn); ("focus", focus) ]

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "tables" with
  | "tables" -> List.iter (fun (_, table) -> table ()) tables
  | name -> (
    match List.assoc_opt name tables with
    | Some table -> table ()
    | None ->
      Printf.eprintf "unknown bench %s\n" name;
      exit 1)
