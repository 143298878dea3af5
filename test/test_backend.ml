(* Tests for the reference back-end: list scheduler + in-order pipeline. *)

open Pperf_machine
open Pperf_sched
open Pperf_backend

let p1 = Machine.power1
let op name = Machine.atomic p1 name
let fadd = op "fadd"
let fma = op "fma"
let load = op "load_fp"
let iadd = op "iadd"
let fdiv = op "fdiv"

let test_hand_cases () =
  let cyc ops = Pipeline.reference_cycles p1 (Dag.of_ops ops) in
  Alcotest.(check int) "one fadd" 2 (cyc [ (fadd, []) ]);
  Alcotest.(check int) "two indep fadds" 3 (cyc [ (fadd, []); (fadd, []) ]);
  Alcotest.(check int) "dep chain" 4 (cyc [ (fadd, []); (fadd, [ 0 ]) ]);
  Alcotest.(check int) "16 fmas pipelined" 17 (cyc (List.init 16 (fun _ -> (fma, []))));
  Alcotest.(check int) "load; dependent fadd" 4 (cyc [ (load, []); (fadd, [ 0 ]) ])

let test_issue_width_limits () =
  (* scalar machine: 1 op/cycle, all serial *)
  let s = Machine.scalar in
  let fadd_s = Machine.atomic s "fadd" in
  let r = Pipeline.run_list_scheduled s (Dag.of_ops [ (fadd_s, []); (fadd_s, []) ]) in
  Alcotest.(check int) "no overlap on scalar" 4 r.cycles

let test_list_beats_inorder () =
  (* a long divide first blocks in-order issue of the independent adds *)
  let ops = [ (fdiv, []); (fadd, [ 0 ]); (iadd, []); (iadd, []); (iadd, []) ] in
  let ls = Pipeline.run_list_scheduled p1 (Dag.of_ops ops) in
  let io = Pipeline.run_in_order p1 (Dag.of_ops ops) in
  Alcotest.(check bool) "list sched <= in-order" true (ls.cycles <= io.cycles)

let test_livelock_typed () =
  (* a cycle budget too small for the schedule raises the typed Livelock
     exception (not a bare Failure), carrying how far the run got *)
  let chain = Dag.of_ops (List.init 64 (fun i -> (fdiv, if i = 0 then [] else [ i - 1 ]))) in
  (match Pipeline.run_list_scheduled ~max_cycles:10 p1 chain with
   | exception Pipeline.Livelock { cycle; unissued } ->
     Alcotest.(check bool) "cycle reported" true (cycle >= 0);
     Alcotest.(check bool) "some ops unissued" true (unissued > 0)
   | _ -> Alcotest.fail "expected Livelock");
  (match Pipeline.run_in_order ~max_cycles:10 p1 chain with
   | exception Pipeline.Livelock { unissued; _ } ->
     Alcotest.(check bool) "in-order unissued" true (unissued > 0)
   | _ -> Alcotest.fail "expected Livelock");
  (* the default budget is plenty: same DAG completes *)
  Alcotest.(check bool) "default budget completes" true
    ((Pipeline.run_list_scheduled p1 chain).cycles > 0)

let test_stall_accounting () =
  let r = Pipeline.run_in_order p1 (Dag.of_ops [ (load, []); (fadd, [ 0 ]) ]) in
  Alcotest.(check bool) "stalls counted" true (r.stalls > 0);
  Alcotest.(check int) "issue cycle of dependent" 2 r.issue.(1)

(* a classic description may name the second of two FPUs: the named unit
   heads the component's eligible set, so the bins and the pipeline both
   try it before its twin *)
let test_named_twin_first () =
  let m =
    Descr.of_string
      "(machine (name twin)\n  (units (FXU fxu) (FPU0 fpu) (FPU1 fpu))\n  (atomics (fadd (FPU1 1 1))))"
  in
  let fadd = Machine.atomic m "fadd" in
  Alcotest.(check (array int)) "named unit, then its twin" [| 2; 1 |]
    (List.hd fadd.components).eligible;
  let s = Bins.drop_dag (Bins.create m) (Dag.of_ops [ (fadd, []) ]) in
  Alcotest.(check (list (triple int int int))) "bins fill FPU1" [ (2, 0, 1) ]
    s.placements.(0).filled;
  (* an op only FPU1 may take waits a cycle behind an fadd that took FPU1 *)
  let only_fpu1 =
    Atomic_op.make "only_fpu1"
      [ { Atomic_op.unit_id = 2; noncoverable = 1; coverable = 0; eligible = [| 2 |] } ]
  in
  let r = Pipeline.run_in_order m (Dag.of_ops [ (fadd, []); (only_fpu1, []) ]) in
  Alcotest.(check (array int)) "pipeline issues fadd on FPU1" [| 0; 1 |] r.issue

(* random dags: oracle sits between critical path and serial cost; the
   Tetris prediction tracks it closely *)
let random_dag_gen =
  let open QCheck.Gen in
  let ops = [| fadd; fma; load; iadd; op "fmul"; op "store_fp"; op "imul"; op "icmp" |] in
  list_size (int_range 1 40)
    (pair (int_range 0 (Array.length ops - 1)) (list_size (int_range 0 3) (int_range 0 100)))
  |> map (fun specs ->
         List.mapi
           (fun i (oi, deps) ->
             let deps = List.filter_map (fun d -> if i > 0 then Some (d mod i) else None) deps in
             (ops.(oi), List.sort_uniq compare deps))
           specs)

let arb_dag = QCheck.make random_dag_gen

let prop_oracle_bounds =
  QCheck.Test.make ~name:"critical path <= oracle <= serial" ~count:300 arb_dag
    (fun ops ->
      let dag = Dag.of_ops ops in
      let c = Pipeline.reference_cycles p1 dag in
      Dag.critical_path dag <= c && c <= Dag.serial_cost dag)

let prop_inorder_not_faster =
  (* greedy critical-path list scheduling is a heuristic: it can lose to
     plain program order on adversarial DAGs, but only by a small margin *)
  QCheck.Test.make ~name:"list-scheduled within 4 cycles of in-order" ~count:300 arb_dag
    (fun ops ->
      let dag = Dag.of_ops ops in
      (Pipeline.run_list_scheduled p1 dag).cycles
      <= (Pipeline.run_in_order p1 dag).cycles + 4)

let prop_prediction_tracks_oracle =
  (* the drop model stays close to the scheduler's cycles even on random
     adversarial DAGs (within 45% or 6 cycles); on realistic kernels the
     integration suite enforces a much tighter bound *)
  QCheck.Test.make ~name:"tetris prediction tracks oracle" ~count:300 arb_dag
    (fun ops ->
      let dag = Dag.of_ops ops in
      let oracle = Pipeline.reference_cycles p1 dag in
      let b = Bins.create p1 in
      let pred = (Bins.drop_dag b dag).cost in
      let err = abs (pred - oracle) in
      err <= 6 || float_of_int err <= 0.45 *. float_of_int oracle)

let prop_wide_machine_no_slower =
  QCheck.Test.make ~name:"2-way machine never slower" ~count:200 arb_dag
    (fun ops ->
      let dag = Dag.of_ops ops in
      (* the wide machine shares the cost table; map op names over *)
      let wide_dag =
        Dag.map_ops (fun op -> Machine.atomic Machine.power1_wide op.Atomic_op.name) dag
      in
      Pipeline.reference_cycles Machine.power1_wide wide_dag
      <= Pipeline.reference_cycles p1 dag)

let qsuite name tests =
  (* fixed seed: property failures should be reproducible, not flaky *)
  ( name,
    List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])) tests )

let () =
  Alcotest.run "backend"
    [
      ( "pipeline",
        [
          Alcotest.test_case "hand cases" `Quick test_hand_cases;
          Alcotest.test_case "issue width" `Quick test_issue_width_limits;
          Alcotest.test_case "list vs in-order" `Quick test_list_beats_inorder;
          Alcotest.test_case "stalls" `Quick test_stall_accounting;
          Alcotest.test_case "livelock typed" `Quick test_livelock_typed;
          Alcotest.test_case "named twin tried first" `Quick test_named_twin_first;
        ] );
      qsuite "props"
        [
          prop_oracle_bounds; prop_inorder_not_faster; prop_prediction_tracks_oracle;
          prop_wide_machine_no_slower;
        ];
    ]
