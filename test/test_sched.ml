(* Tests for the Tetris scheduler: the run-encoded slot lists (Fig. 4), the
   drop algorithm (Fig. 3/5), cost blocks and overlap (Fig. 8/9). *)

open Pperf_machine
open Pperf_sched

let p1 = Descr.builtin "power1"
let op name = Machine.atomic p1 name
let fadd = op "fadd"
let fma = op "fma"
let fdiv = op "fdiv"
let load = op "load_fp"
let iadd = op "iadd"

(* ---- slots ---- *)

let test_slots_basic () =
  let s = Slots.create () in
  Alcotest.(check int) "empty hwm" 0 (Slots.high_water s);
  Slots.fill s ~start:0 ~len:3;
  Slots.fill s ~start:5 ~len:2;
  Alcotest.(check int) "hwm" 7 (Slots.high_water s);
  Alcotest.(check bool) "gap free" true (Slots.is_free s ~start:3 ~len:2);
  Alcotest.(check bool) "filled" false (Slots.is_free s ~start:0 ~len:1);
  Alcotest.(check int) "first fit in gap" 3 (Slots.first_fit s ~floor:0 ~len:2);
  Alcotest.(check int) "first fit above" 7 (Slots.first_fit s ~floor:0 ~len:3);
  Alcotest.(check int) "first fit with floor" 7 (Slots.first_fit s ~floor:4 ~len:2);
  Alcotest.(check int) "occupied" 5 (Slots.occupied_cells s);
  Alcotest.(check (option int)) "first occ" (Some 0) (Slots.first_occupied s);
  Alcotest.(check (option int)) "last occ" (Some 6) (Slots.last_occupied s)

let test_slots_merge () =
  let s = Slots.create () in
  Slots.fill s ~start:0 ~len:2;
  Slots.fill s ~start:4 ~len:2;
  (* filling the gap merges three runs into one *)
  Slots.fill s ~start:2 ~len:2;
  Alcotest.(check int) "one filled run" 1 (Slots.num_runs s);
  Alcotest.(check bool) "runs" true (Slots.runs s = [ (0, 6, true) ])

let test_slots_double_fill () =
  let s = Slots.create () in
  Slots.fill s ~start:0 ~len:2;
  Alcotest.(check bool) "refill rejected" true
    (try Slots.fill s ~start:1 ~len:1; false with Invalid_argument _ -> true)

let test_slots_reset_grow () =
  let s = Slots.create ~capacity:4 () in
  Slots.fill s ~start:100 ~len:50 (* forces growth *);
  Alcotest.(check int) "grown hwm" 150 (Slots.high_water s);
  Slots.reset s;
  Alcotest.(check int) "reset" 0 (Slots.high_water s);
  Slots.fill s ~start:0 ~len:1;
  Alcotest.(check int) "usable after reset" 1 (Slots.high_water s)

(* property: the run encoding behaves exactly like the naive bitmap *)
let slots_ops_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 1 40)
    (QCheck.pair (QCheck.int_range 0 60) (QCheck.int_range 1 6))

let prop_slots_equiv_naive =
  QCheck.Test.make ~name:"run-encoded slots = naive bitmap" ~count:300 slots_ops_gen
    (fun ops ->
      let s = Slots.create () and n = Slots.Naive.create () in
      List.for_all
        (fun (floor, len) ->
          let fs = Slots.first_fit s ~floor ~len in
          let fn = Slots.Naive.first_fit n ~floor ~len in
          if fs <> fn then false
          else (
            Slots.fill s ~start:fs ~len;
            Slots.Naive.fill n ~start:fn ~len;
            Slots.high_water s = Slots.Naive.high_water n
            && Slots.occupied_cells s = Slots.Naive.occupied_cells n
            && Slots.runs s = Slots.Naive.runs n
            && Slots.first_occupied s = Slots.Naive.first_occupied n))
        ops)

let prop_slots_runs_alternate =
  QCheck.Test.make ~name:"runs alternate and tile [0,hwm)" ~count:300 slots_ops_gen
    (fun ops ->
      let s = Slots.create () in
      List.iter
        (fun (floor, len) ->
          let f = Slots.first_fit s ~floor ~len in
          Slots.fill s ~start:f ~len)
        ops;
      let runs = Slots.runs s in
      let rec check pos last_filled = function
        | [] -> pos = Slots.high_water s
        | (start, len, filled) :: rest ->
          start = pos && len > 0
          && (match last_filled with None -> true | Some lf -> lf <> filled)
          && check (pos + len) (Some filled) rest
      in
      check 0 None runs
      && (match List.rev runs with [] -> true | (_, _, filled) :: _ -> filled))

(* ---- drop semantics (the paper's running examples) ---- *)

let drop ops =
  let b = Bins.create p1 in
  (Bins.drop_dag b (Dag.of_ops ops)).cost

let test_paper_fadd_semantics () =
  Alcotest.(check int) "1 fadd = 2 cycles" 2 (drop [ (fadd, []) ]);
  Alcotest.(check int) "2 indep fadds pipeline = 3" 3 (drop [ (fadd, []); (fadd, []) ]);
  Alcotest.(check int) "2 dep fadds = 4" 4 (drop [ (fadd, []); (fadd, [ 0 ]) ]);
  Alcotest.(check int) "fadd covered by indep load = 2" 2 (drop [ (fadd, []); (load, []) ]);
  Alcotest.(check int) "load feeding fadd = 4" 4 (drop [ (load, []); (fadd, [ 0 ]) ])

let test_multi_unit_store () =
  (* store_fp occupies FPU, FXU and LSU simultaneously *)
  let st = op "store_fp" in
  let b = Bins.create p1 in
  let s = Bins.drop_dag b (Dag.of_ops [ (st, []) ]) in
  Alcotest.(check int) "store alone = 2" 2 s.cost;
  let cb = Bins.cost_block b in
  Alcotest.(check int) "FXU occupied" 1 cb.per_unit.(0).occupied;
  Alcotest.(check int) "FPU occupied" 1 cb.per_unit.(1).occupied;
  Alcotest.(check int) "LSU occupied" 1 cb.per_unit.(4).occupied

let test_fdiv_blocks_fpu () =
  (* fdiv monopolizes the FPU: a following dependent fadd waits 17 cycles *)
  Alcotest.(check int) "fdiv;fadd dep" 19 (drop [ (fdiv, []); (fadd, [ 0 ]) ]);
  (* independent fadd still must find an FPU slot after the divide *)
  Alcotest.(check int) "fdiv || fadd" 18 (drop [ (fdiv, []); (fadd, []) ])

let test_independent_units_overlap () =
  (* integer work hides entirely under FP latency *)
  Alcotest.(check int) "iadd under fadd" 2 (drop [ (fadd, []); (iadd, []) ])

let test_16_fmas () =
  (* the paper's matmul block: 16 independent FMAs pipeline at 1/cycle *)
  Alcotest.(check int) "16 fmas" 17 (drop (List.init 16 (fun _ -> (fma, []))));
  (* a dependent chain of 16 costs 2 cycles each *)
  let chain = List.init 16 (fun i -> (fma, if i = 0 then [] else [ i - 1 ])) in
  Alcotest.(check int) "fma chain" 32 (drop chain)

let test_focus_span () =
  (* a narrow focus span must not look far down for holes: first fill FPU
     high, leaving a low hole; with a tiny span the hole is not reused *)
  let b_wide = Bins.create ~focus_span:64 p1 in
  let b_narrow = Bins.create ~focus_span:1 p1 in
  let mk () =
    Dag.of_ops
      ((fdiv, []) :: (fadd, [ 0 ]) :: [ (iadd, []) ])
    (* iadd could drop to slot 0 on FXU; narrow span should place it high *)
  in
  let s_wide = Bins.drop_dag b_wide (mk ()) in
  let s_narrow = Bins.drop_dag b_narrow (mk ()) in
  let iadd_wide = s_wide.placements.(2).start in
  let iadd_narrow = s_narrow.placements.(2).start in
  Alcotest.(check int) "wide span reuses low slot" 0 iadd_wide;
  Alcotest.(check bool) "narrow span placed high" true (iadd_narrow > 10)

let counter name = Option.value ~default:0 (List.assoc_opt name (Pperf_obs.Obs.counters_now ()))

(* §2.1's linear-time drop, as counts: each op is placed once, and a
   placement scans at most the focus span (64 cells) below the bins' top.
   An unbounded span scans the whole height each time: quadratic in n. *)
let test_focus_span_work () =
  let fmul = op "fmul" in
  List.iter
    (fun n ->
      (* every third op a load, the others fadd or fmul reading the op two back *)
      let dag =
        Dag.of_ops
          (List.init n (fun i ->
               if i mod 3 = 0 then (load, [])
               else ((if i mod 3 = 1 then fadd else fmul), if i >= 2 then [ i - 2 ] else [])))
      in
      let placed0 = counter "bins.placements" and scanned0 = counter "bins.scan_cells" in
      ignore (Bins.drop_dag (Bins.create p1) dag);
      let placed = counter "bins.placements" - placed0 in
      let scanned = counter "bins.scan_cells" - scanned0 in
      Alcotest.(check int) (Printf.sprintf "%d ops, one placement each" n) n placed;
      if scanned > 64 * placed then
        Alcotest.failf "%d ops scanned %d cells, more than 64 per placement" n scanned)
    [ 10; 100; 1_000; 10_000 ]

let test_replicated_units () =
  (* on the 2-FPU machine, two independent fdivs run in parallel *)
  let w = Descr.builtin "power1x2" in
  let fdiv_w = Machine.atomic w "fdiv" in
  let b = Bins.create w in
  let s = Bins.drop_dag b (Dag.of_ops [ (fdiv_w, []); (fdiv_w, []) ]) in
  Alcotest.(check int) "parallel fdivs" 17 s.cost;
  let b1 = Bins.create p1 in
  let s1 = Bins.drop_dag b1 (Dag.of_ops [ (fdiv, []); (fdiv, []) ]) in
  Alcotest.(check int) "serial fdivs on 1 FPU" 33 s1.cost

(* property: drop cost bounded by critical path and serial cost *)
let random_dag_gen =
  let open QCheck.Gen in
  let ops = [| fadd; fma; load; iadd; op "fmul"; op "store_fp"; op "imul" |] in
  list_size (int_range 1 30)
    (pair (int_range 0 (Array.length ops - 1)) (list_size (int_range 0 2) (int_range 0 100)))
  |> map (fun specs ->
         List.mapi
           (fun i (oi, deps) ->
             let deps = List.filter_map (fun d -> if i > 0 then Some (d mod i) else None) deps in
             (ops.(oi), List.sort_uniq compare deps))
           specs)

let arb_dag = QCheck.make random_dag_gen

let prop_cost_bounds =
  QCheck.Test.make ~name:"critical path <= drop cost <= serial cost" ~count:300 arb_dag
    (fun ops ->
      let dag = Dag.of_ops ops in
      let b = Bins.create p1 in
      let s = Bins.drop_dag b dag in
      Dag.critical_path dag <= s.cost && s.cost <= Dag.serial_cost dag)

let prop_deps_respected =
  QCheck.Test.make ~name:"placements respect dependences" ~count:300 arb_dag
    (fun ops ->
      let dag = Dag.of_ops ops in
      let b = Bins.create p1 in
      let s = Bins.drop_dag b dag in
      Array.for_all
        (fun (p : Bins.placement) ->
          List.for_all (fun d -> s.placements.(d).finish <= p.start) (Dag.node dag p.node).deps)
        s.placements)

(* ---- cost blocks ---- *)

let test_cost_block_shape () =
  let b = Bins.create p1 in
  ignore (Bins.drop_dag b (Dag.of_ops [ (load, []); (load, []); (fma, [ 0; 1 ]) ]));
  let cb = Bins.cost_block b in
  Alcotest.(check int) "cost 5" 5 (Costblock.cost cb);
  Alcotest.(check int) "FXU lead" 0 (Costblock.lead cb 0);
  Alcotest.(check bool) "FPU lead > 0" true (Costblock.lead cb 1 > 0);
  Alcotest.(check (option int)) "critical unit is FXU or LSU" (Some 0)
    (match Costblock.critical_unit cb with Some 0 | Some 4 -> Some 0 | x -> x)

let test_overlap_estimate () =
  (* block A ends with FPU work, block B starts with FXU loads: they overlap *)
  let mk ops = let b = Bins.create p1 in ignore (Bins.drop_dag b (Dag.of_ops ops)); Bins.cost_block b in
  let a = mk [ (load, []); (fma, [ 0 ]) ] in
  let b = mk [ (load, []); (load, []); (fma, [ 0; 1 ]) ] in
  let ov = Costblock.overlap_estimate a b in
  Alcotest.(check bool) "some overlap" true (ov > 0);
  Alcotest.(check bool) "bounded" true (ov <= min (Costblock.cost a) (Costblock.cost b));
  Alcotest.(check int) "combine estimate" (Costblock.cost a + Costblock.cost b - ov)
    (Costblock.combine_estimate a b);
  (* min_gap reduces the overlap *)
  Alcotest.(check bool) "min_gap honored" true (Costblock.overlap_estimate ~min_gap:2 a b <= max 0 (ov - 2))

let prop_overlap_sound =
  (* shape-estimated combined cost is never below dropping both blocks into
     one bin (the estimate removes at most the real slack) *)
  QCheck.Test.make ~name:"overlap estimate vs exact combination" ~count:200
    (QCheck.pair arb_dag arb_dag) (fun (ops1, ops2) ->
      let d1 = Dag.of_ops ops1 and d2 = Dag.of_ops ops2 in
      let bins = Bins.create p1 in
      let s1 = Bins.drop_dag bins d1 in
      let cb1 = Bins.cost_block bins in
      let bins2 = Bins.create p1 in
      let s2 = Bins.drop_dag bins2 d2 in
      let cb2 = Bins.cost_block bins2 in
      (* exact: drop both into the same bins *)
      let both = Bins.create p1 in
      ignore (Bins.drop_dag both d1);
      let exact = (Bins.drop_dag both d2).cost in
      let est = Costblock.combine_estimate cb1 cb2 in
      (* the estimate never exceeds the sum; the exact packing may exceed
         it slightly when multi-unit ops fragment across the seam *)
      est <= s1.cost + s2.cost && exact <= s1.cost + s2.cost + 8 && est >= 0)

(* ---- Dag utilities ---- *)

let test_dag_repeat () =
  let body = Dag.of_ops [ (fma, []) ] in
  let r = Dag.repeat ~carry:[ (0, 0) ] body 4 in
  Alcotest.(check int) "4 nodes" 4 (Dag.length r);
  (* carried chain: each fma depends on the previous *)
  Alcotest.(check int) "chain cost" 8 (drop (List.init 4 (fun i -> (fma, if i = 0 then [] else [ i - 1 ]))));
  let b = Bins.create p1 in
  Alcotest.(check int) "repeat with carry = chain" 8 (Bins.drop_dag b r).cost

let test_critical_path_edges () =
  Alcotest.(check int) "empty dag" 0 (Dag.critical_path (Dag.make [||]));
  Alcotest.(check int) "single node = its latency" (Atomic_op.result_latency fadd)
    (Dag.critical_path (Dag.of_ops [ (fadd, []) ]));
  (* diamond: two independent loads join at an fadd; the join waits for the
     slower arm but pays the load latency only once *)
  let store = op "store_fp" in
  let diamond = Dag.of_ops [ (load, []); (load, []); (fadd, [ 0; 1 ]); (store, [ 2 ]) ] in
  Alcotest.(check int) "diamond join"
    (Atomic_op.result_latency load + Atomic_op.result_latency fadd
    + Atomic_op.result_latency store)
    (Dag.critical_path diamond);
  (* two equal-length competing chains: the max is either one, not the sum *)
  let chain2 = Dag.of_ops [ (fadd, []); (fadd, [ 0 ]); (fadd, []); (fadd, [ 2 ]) ] in
  Alcotest.(check int) "equal competing chains" (2 * Atomic_op.result_latency fadd)
    (Dag.critical_path chain2)

let test_dag_errors () =
  Alcotest.(check bool) "forward dep rejected" true
    (try ignore (Dag.of_ops [ (fadd, [ 0 ]) ]); false with Invalid_argument _ -> true)

let test_opcount_baseline () =
  let dag = Dag.of_ops (List.init 16 (fun _ -> (fma, []))) in
  Alcotest.(check int) "opcount serial" 32 (Bins.Opcount.cost dag);
  Alcotest.(check int) "busy only" 16 (Bins.Opcount.busy_cost dag)


let test_best_order () =
  let mk ops = let b = Bins.create p1 in ignore (Bins.drop_dag b (Dag.of_ops ops)); Bins.cost_block b in
  (* FP-heavy block then FXU-heavy block overlap well in that order *)
  let fpu_block = mk [ (fdiv, []) ] in
  let fxu_block = mk [ (iadd, []); (iadd, []); (iadd, []) ] in
  let blocks = [ fxu_block; fpu_block ] in
  let order = Costblock.best_order blocks in
  Alcotest.(check int) "permutation size" 2 (List.length order);
  Alcotest.(check bool) "is a permutation" true (List.sort compare order = [ 0; 1 ]);
  (* the chosen order's estimated chain cost is minimal among both orders *)
  let cost_of ord = Costblock.chain_cost_estimate (List.map (List.nth blocks) ord) in
  Alcotest.(check bool) "greedy order no worse" true (cost_of order <= cost_of [ 0; 1 ] || cost_of order <= cost_of [ 1; 0 ]);
  Alcotest.(check int) "empty" 0 (List.length (Costblock.best_order []))

let prop_best_order_permutation =
  QCheck.Test.make ~name:"best_order returns a permutation" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) arb_dag)
    (fun dags ->
      let blocks =
        List.map
          (fun ops ->
            let b = Bins.create p1 in
            ignore (Bins.drop_dag b (Dag.of_ops ops));
            Bins.cost_block b)
          dags
      in
      let order = Costblock.best_order blocks in
      List.sort compare order = List.init (List.length blocks) (fun i -> i))

let qsuite name tests =
  (* fixed seed: property failures should be reproducible, not flaky *)
  ( name,
    List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])) tests )

let () =
  Alcotest.run "sched"
    [
      ( "slots",
        [
          Alcotest.test_case "basic" `Quick test_slots_basic;
          Alcotest.test_case "merge" `Quick test_slots_merge;
          Alcotest.test_case "double fill" `Quick test_slots_double_fill;
          Alcotest.test_case "reset/grow" `Quick test_slots_reset_grow;
        ] );
      qsuite "slots-props" [ prop_slots_equiv_naive; prop_slots_runs_alternate ];
      ( "drop",
        [
          Alcotest.test_case "paper fadd semantics" `Quick test_paper_fadd_semantics;
          Alcotest.test_case "multi-unit store" `Quick test_multi_unit_store;
          Alcotest.test_case "fdiv blocks fpu" `Quick test_fdiv_blocks_fpu;
          Alcotest.test_case "unit overlap" `Quick test_independent_units_overlap;
          Alcotest.test_case "16 fmas" `Quick test_16_fmas;
          Alcotest.test_case "focus span" `Quick test_focus_span;
          Alcotest.test_case "focus span work" `Quick test_focus_span_work;
          Alcotest.test_case "replicated units" `Quick test_replicated_units;
        ] );
      qsuite "drop-props" [ prop_cost_bounds; prop_deps_respected ];
      ( "costblock",
        [
          Alcotest.test_case "shape" `Quick test_cost_block_shape;
          Alcotest.test_case "overlap" `Quick test_overlap_estimate;
          Alcotest.test_case "best order" `Quick test_best_order;
        ] );
      qsuite "costblock-props" [ prop_overlap_sound; prop_best_order_permutation ];
      ( "dag",
        [
          Alcotest.test_case "repeat/carry" `Quick test_dag_repeat;
          Alcotest.test_case "critical path edges" `Quick test_critical_path_edges;
          Alcotest.test_case "errors" `Quick test_dag_errors;
          Alcotest.test_case "opcount baseline" `Quick test_opcount_baseline;
        ] );
    ]
