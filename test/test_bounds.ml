(* Tests for the three-bound analysis: bin-packing throughput vs
   critical-path/LCD latency vs memory, and how its events reach the report. *)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_bounds
open Pperf_core

let p1 = Descr.builtin "power1"
let check_src src = Typecheck.check_routine (Parser.parse_routine src)

let analyze ?(include_memory = false) src =
  Bounds.analyze ~machine:p1 ~include_memory (check_src src)

let recurrence_src =
  "subroutine rec(a, n)\n  integer n, i, j\n  real a(512,512)\n  do i = 2, n\n    do j = 1, n - 1\n      a(i,j) = a(i-1,j+1) + 1.0\n    end do\n  end do\nend\n"

let daxpy_src =
  "subroutine daxpy(x, y, a, n)\n  integer n, i\n  real x(100000), y(100000), a\n  do i = 1, n\n    y(i) = y(i) + a * x(i)\n  end do\nend\n"

let test_recurrence_lcd () =
  let r = analyze recurrence_src in
  let n = List.hd r.nests in
  Alcotest.(check int) "bin 3/iter" 3 n.bin_per_iter;
  Alcotest.(check string) "lcd 6/iter" "6" (Rat.to_string n.lcd_per_iter);
  Alcotest.(check bool) "latency-bound" true (n.classification = Latency_bound);
  Alcotest.(check bool) "disagreement flagged" true (n.disagreement <> None);
  (match n.carried with
   | [ c ] ->
     Alcotest.(check string) "carried on a" "a" c.carray;
     Alcotest.(check int) "distance 1" 1 c.cdistance;
     Alcotest.(check bool) "exact" true c.cexact
   | cs -> Alcotest.fail (Printf.sprintf "expected 1 chain, got %d" (List.length cs)));
  (* the LCD bound dominates the bin bound as a polynomial: 2x here *)
  Alcotest.(check bool) "lcd bound = 2 * bin bound" true
    (Poly.equal n.lcd_bound (Poly.scale (Rat.of_int 2) n.bin_bound))

let test_no_carry_compute_bound () =
  let r = analyze daxpy_src in
  let n = List.hd r.nests in
  Alcotest.(check bool) "no chains" true (n.carried = []);
  Alcotest.(check bool) "lcd zero" true (Rat.is_zero n.lcd_per_iter);
  Alcotest.(check bool) "compute-bound" true (n.classification = Compute_bound);
  Alcotest.(check bool) "no disagreement" true (n.disagreement = None)

let test_distance_two_halves_ratio () =
  (* a(i) = a(i-2) + 1.0: the chain latency amortizes over two iterations *)
  let d1 = analyze
      "subroutine s(a, n)\n  integer n, i\n  real a(100000)\n  do i = 2, n\n    a(i) = a(i-1) + 1.0\n  end do\nend\n" in
  let d2 = analyze
      "subroutine s(a, n)\n  integer n, i\n  real a(100000)\n  do i = 3, n\n    a(i) = a(i-2) + 1.0\n  end do\nend\n" in
  let n1 = List.hd d1.nests and n2 = List.hd d2.nests in
  Alcotest.(check int) "distance 2 detected" 2 (List.hd n2.carried).cdistance;
  Alcotest.(check bool) "ratio halves with distance" true
    (Rat.equal n2.lcd_per_iter (Rat.div n1.lcd_per_iter (Rat.of_int 2)))

let test_memory_bound_classification () =
  let src =
    "subroutine stream(a, b, n)\n  integer n, i, j\n  real a(1000,1000), b(1000,1000)\n  do i = 1, n\n    do j = 1, n\n      a(i,j) = b(j,i) + 1.0\n    end do\n  end do\nend\n"
  in
  let with_mem = analyze ~include_memory:true src in
  let n = List.hd with_mem.nests in
  Alcotest.(check bool) "mem bound present" true (n.mem_bound <> None);
  Alcotest.(check bool) "memory-bound" true (n.classification = Memory_bound);
  (* without the cache model the same nest is compute-bound *)
  let without = analyze src in
  let n0 = List.hd without.nests in
  Alcotest.(check bool) "no mem bound when off" true (n0.mem_bound = None);
  Alcotest.(check bool) "compute-bound when off" true (n0.classification = Compute_bound)

let test_steady_total_takes_max () =
  let r = analyze recurrence_src in
  let n = List.hd r.nests in
  Alcotest.(check bool) "steady total includes the LCD bound" true
    (Poly.equal (Bounds.steady_total r) n.lcd_bound)

(* the aggregation reports only its own events; the report merges the
   bound-disagreement events of the three-bound analysis into them *)
let test_aggregate_bound_events () =
  let checked = check_src recurrence_src in
  let has_event ds =
    List.exists (fun (d : Pperf_lint.Diagnostic.t) -> String.equal d.check "bound-disagreement") ds
  in
  let p = Pperf_core.Aggregate.routine ~machine:p1 checked in
  Alcotest.(check bool) "not in the aggregation" false (has_event p.diagnostics);
  let r = Pperf_core.Report.generate ~machine:p1 checked in
  Alcotest.(check bool) "in the report" true (has_event r.diagnostics)

(* The bin-packing rate is the aggregation's per-iteration coefficient:
   the nest's trips (n or n^2 here) multiply exactly bin_per_iter in the
   routine's predicted total. *)
let check_rate_matches_aggregate ~expected src =
  let checked = check_src src in
  let n = List.hd (Bounds.analyze ~machine:p1 checked).nests in
  let total = Perf_expr.total (Aggregate.routine ~machine:p1 checked).cost in
  let coeff = List.assoc (Poly.degree_in "n" n.trips) (Poly.coeffs_in "n" total) in
  Alcotest.(check (option string)) "aggregate's per-iteration coefficient"
    (Some (string_of_int expected)) (Option.map Rat.to_string (Poly.to_const coeff));
  Alcotest.(check int) "bin-packing rate" expected n.bin_per_iter

(* a scalar assigned before the loop is invariant inside it: a * b + c * a
   is hoisted out of the loop, as the aggregation hoists it *)
let test_rate_hoists_prior_scalar () =
  check_rate_matches_aggregate ~expected:3
    "subroutine hoist(x, y, b, c, n)\n  integer n, i\n  real x(1000), y(1000), a, b, c\n\
    \  a = b + c\n  do i = 1, n\n    y(i) = x(i) * (a * b + c * a)\n  end do\nend\n"

(* the outer index is invariant in the inner loop: x(i) is loaded once per
   inner loop entry, not once per iteration *)
let test_rate_hoists_outer_index () =
  check_rate_matches_aggregate ~expected:5
    "subroutine matvec(a, x, y, n)\n  integer n, i, j\n  real a(100,100), x(100), y(100)\n\
    \  do i = 1, n\n    do j = 1, n\n      y(j) = y(j) + a(j,i) * x(i)\n    end do\n  end do\nend\n"

(* The chain ratio's one recurrence pass over flat finish times equals the
   construction it replaced, kept here as the reference: the body lifted
   into 4 * dmax and 8 * dmax copies joined by the carry edges, and the
   slope between the two critical paths. *)
let lift body carries k =
  let nb = Pperf_sched.Dag.length body in
  Pperf_sched.Dag.make
    (Array.init (k * nb) (fun idx ->
         let t = idx / nb and i = idx mod nb in
         let n = Pperf_sched.Dag.node body i in
         let deps = List.map (fun d -> d + (t * nb)) n.deps in
         let deps =
           List.fold_left
             (fun acc (prod, cons, dist) ->
               if cons = i && t >= dist then (prod + ((t - dist) * nb)) :: acc else acc)
             deps carries
         in
         (n.op, deps, n.label)))

let lifted_ratio body carries =
  match carries with
  | [] -> Rat.zero
  | _ ->
    let dmax = List.fold_left (fun acc (_, _, d) -> max acc d) 1 carries in
    let k1 = 4 * dmax and k2 = 8 * dmax in
    let cp k = Pperf_sched.Dag.critical_path (lift body carries k) in
    Rat.max Rat.zero (Rat.of_ints (cp k2 - cp k1) (k2 - k1))

let gen_carried_body =
  let open QCheck.Gen in
  let op =
    map2
      (fun nc cov ->
        Atomic_op.make "op"
          [ { Atomic_op.unit_id = 0; noncoverable = nc; coverable = cov; eligible = [| 0 |] } ])
      (int_range 0 3) (int_range 0 4)
  in
  int_range 1 6 >>= fun nb ->
  let node i = pair op (if i = 0 then return [] else list_size (int_range 0 2) (int_range 0 (i - 1))) in
  let rec nodes i = if i = nb then return [] else map2 List.cons (node i) (nodes (i + 1)) in
  pair (nodes 0)
    (list_size (int_range 0 3) (triple (int_range 0 (nb - 1)) (int_range 0 (nb - 1)) (int_range 1 16)))

let prop_chain_ratio =
  QCheck.Test.make ~name:"chain ratio = lifted DAG slope" ~count:300
    (QCheck.make
       ~print:(fun (nodes, carries) ->
         Printf.sprintf "%d nodes, deps %s, carries %s" (List.length nodes)
           (String.concat ";"
              (List.map (fun (_, ds) -> String.concat "," (List.map string_of_int ds)) nodes))
           (String.concat ";"
              (List.map (fun (p, c, d) -> Printf.sprintf "%d->%d@%d" p c d) carries)))
       gen_carried_body)
    (fun (nodes, carries) ->
      let body = Pperf_sched.Dag.of_ops nodes in
      Rat.equal (Bounds.chain_ratio body carries) (lifted_ratio body carries))

let () =
  Alcotest.run "bounds"
    [
      ( "bounds",
        [
          Alcotest.test_case "recurrence LCD" `Quick test_recurrence_lcd;
          Alcotest.test_case "no carry" `Quick test_no_carry_compute_bound;
          Alcotest.test_case "distance 2" `Quick test_distance_two_halves_ratio;
          Alcotest.test_case "memory bound" `Quick test_memory_bound_classification;
          Alcotest.test_case "steady total" `Quick test_steady_total_takes_max;
          Alcotest.test_case "aggregate events" `Quick test_aggregate_bound_events;
          Alcotest.test_case "hoisted scalar rate" `Quick test_rate_hoists_prior_scalar;
          Alcotest.test_case "hoisted outer index rate" `Quick test_rate_hoists_outer_index;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop_chain_ratio;
        ] );
    ]
