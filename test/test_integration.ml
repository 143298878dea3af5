(* End-to-end reproduction checks: the Fig. 7 claim (Tetris-model
   predictions close to the back-end's cycles where operation counting is
   far off), cross-machine behaviour, and full-pipeline consistency. *)

open Pperf_machine
open Pperf_sched
open Pperf_backend
open Pperf_workloads

let p1 = Descr.builtin "power1"

let predict_and_reference kernel =
  let res = Workloads.innermost_dag ~machine:p1 kernel in
  let bins = Bins.create p1 in
  let predicted = (Bins.drop_dag bins res.body).cost in
  let reference = Pipeline.reference_cycles p1 res.body in
  let opcount = Bins.Opcount.cost res.body in
  (predicted, reference, opcount)

let test_fig7_accuracy () =
  let rel a b = Float.abs (float_of_int a -. float_of_int b) /. float_of_int (max b 1) in
  let errors, opcount_errors =
    List.fold_left
      (fun (es, os) k ->
        let p, r, o = predict_and_reference k in
        Alcotest.(check bool)
          (Printf.sprintf "%s prediction within 30%% (pred %d, ref %d)" k.Workloads.name p r)
          true
          (rel p r <= 0.30);
        (rel p r :: es, rel o r :: os))
      ([], []) Workloads.fig7_kernels
  in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
  let m_pred = mean errors and m_op = mean opcount_errors in
  Alcotest.(check bool)
    (Printf.sprintf "mean error small (%.1f%%)" (m_pred *. 100.))
    true (m_pred <= 0.12);
  Alcotest.(check bool)
    (Printf.sprintf "opcount much worse (%.0f%% vs %.1f%%)" (m_op *. 100.) (m_pred *. 100.))
    true
    (m_op > 3.0 *. m_pred)

let test_extended_corpus_accuracy () =
  List.iter
    (fun k ->
      let p, r, _ = predict_and_reference k in
      let rel = Float.abs (float_of_int (p - r)) /. float_of_int (max r 1) in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 30%% (pred %d, ref %d)" k.Workloads.name p r)
        true (rel <= 0.30))
    Workloads.extended_kernels

let test_matmul_16_fmas () =
  (* the paper's headline block: 16 FMAs must be seen as 16 fma atomics *)
  let res = Workloads.innermost_dag ~machine:p1 Workloads.matmul_unrolled in
  let fmas = ref 0 in
  for i = 0 to Dag.length res.body - 1 do
    if (Dag.node res.body i).Dag.op.Atomic_op.name = "fma" then incr fmas
  done;
  Alcotest.(check int) "16 FMAs" 16 !fmas

let test_cross_machine_accuracy () =
  (* the Tetris model tracks its reference within 15% on every kernel for
     every machine description — the portability claim quantified *)
  List.iter
    (fun m ->
      List.iter
        (fun k ->
          let res = Workloads.innermost_dag ~machine:m k in
          let bins = Bins.create m in
          let pred = (Bins.drop_dag bins res.body).cost in
          let reference = Pipeline.reference_cycles m res.body in
          let rel =
            Float.abs (float_of_int (pred - reference)) /. float_of_int (max reference 1)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: %d vs %d" k.Workloads.name m.Machine.name pred reference)
            true (rel <= 0.15))
        Workloads.fig7_kernels)
    (List.map Descr.builtin [ "power1x2"; "alpha21064"; "scalar" ])

let test_scalar_machine_degenerates () =
  (* on the strictly serial machine the Tetris model equals op counting *)
  let scalar = Descr.builtin "scalar" in
  List.iter
    (fun k ->
      let res = Workloads.innermost_dag ~machine:scalar k in
      let bins = Bins.create scalar in
      let tetris = (Bins.drop_dag bins res.body).cost in
      let opcount = Bins.Opcount.cost res.body in
      Alcotest.(check int) (k.Workloads.name ^ " tetris = opcount on scalar") opcount tetris)
    Workloads.fig7_kernels

let test_wide_machine_helps_parallel_kernels () =
  let wide = Descr.builtin "power1x2" in
  let res = Workloads.innermost_dag ~machine:p1 Workloads.matmul_unrolled in
  let res_w = Workloads.innermost_dag ~machine:wide Workloads.matmul_unrolled in
  let c1 = Pipeline.reference_cycles p1 res.body in
  let c2 = Pipeline.reference_cycles wide res_w.body in
  Alcotest.(check bool) (Printf.sprintf "wide faster (%d vs %d)" c2 c1) true (c2 < c1)

let test_full_prediction_runs () =
  (* the whole-routine symbolic path works on every kernel *)
  List.iter
    (fun k ->
      let p = Pperf_core.Predict.of_source ~machine:p1 k.Workloads.source in
      let v = Pperf_core.Predict.eval p [ ("n", 256.0) ] in
      Alcotest.(check bool) (k.Workloads.name ^ " positive cost") true (v > 0.0))
    Workloads.fig7_kernels

let test_memory_option_adds_cost () =
  let options = { Pperf_core.Aggregate.default_options with include_memory = true } in
  let with_mem = Pperf_core.Predict.of_source ~options ~machine:p1 Workloads.jacobi.Workloads.source in
  let without = Pperf_core.Predict.of_source ~machine:p1 Workloads.jacobi.Workloads.source in
  let v_mem = Pperf_core.Predict.eval with_mem [ ("n", 512.0) ] in
  let v_cpu = Pperf_core.Predict.eval without [ ("n", 512.0) ] in
  Alcotest.(check bool) "memory adds cost" true (v_mem > v_cpu)


let test_all_kernels_parse_and_translate () =
  List.iter
    (fun k ->
      let c = Workloads.checked k in
      Alcotest.(check bool) (k.Workloads.name ^ " nonempty") true (c.routine.body <> []);
      let res = Workloads.innermost_dag ~machine:p1 k in
      Alcotest.(check bool) (k.Workloads.name ^ " has ops") true (Dag.length res.body > 0))
    Workloads.all_kernels

let prop_translation_deterministic =
  QCheck.Test.make ~name:"translation is deterministic" ~count:30
    (QCheck.make ~print:(fun (k : Workloads.kernel) -> k.name)
       (QCheck.Gen.oneofl Workloads.all_kernels))
    (fun k ->
      let d1 = Workloads.innermost_dag ~machine:p1 k in
      let d2 = Workloads.innermost_dag ~machine:p1 k in
      Dag.length d1.body = Dag.length d2.body
      && d1.loads = d2.loads && d1.stores = d2.stores && d1.flops = d2.flops
      &&
      let b1 = Bins.create p1 and b2 = Bins.create p1 in
      (Bins.drop_dag b1 d1.body).cost = (Bins.drop_dag b2 d2.body).cost)

let () =
  Alcotest.run "integration"
    [
      ( "fig7",
        [
          Alcotest.test_case "prediction accuracy" `Quick test_fig7_accuracy;
          Alcotest.test_case "16 FMAs recognized" `Quick test_matmul_16_fmas;
          Alcotest.test_case "extended corpus" `Quick test_extended_corpus_accuracy;
        ] );
      ( "machines",
        [
          Alcotest.test_case "scalar degenerates to opcount" `Quick test_scalar_machine_degenerates;
          Alcotest.test_case "cross-machine accuracy" `Quick test_cross_machine_accuracy;
          Alcotest.test_case "wide machine faster" `Quick test_wide_machine_helps_parallel_kernels;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "all kernels valid" `Quick test_all_kernels_parse_and_translate;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])
            prop_translation_deterministic;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "symbolic predictions run" `Quick test_full_prediction_runs;
          Alcotest.test_case "memory model adds cost" `Quick test_memory_option_adds_cost;
        ] );
    ]
