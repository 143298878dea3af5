(* Tests for the communication cost model: pattern recognition, alpha-beta
   cost formulas, and the owner-computes message-counting simulator. *)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_commcost.Commcost
module Comm = Pperf_commcost.Commcost

let comm = { Machine.processors = 8; startup_cycles = 1000; per_byte_cycles = 0.5 }

let checked src = Typecheck.check_routine (Parser.parse_routine src)

let eval_at bindings p =
  Rat.to_float (Poly.eval (fun v -> Rat.of_int (try List.assoc v bindings with Not_found -> 1)) p)

let test_message_formula () =
  let c = message comm ~bytes:(Poly.of_int 100) in
  Alcotest.(check (float 1e-9)) "alpha + beta*b" 1050.0 (eval_at [] c)

let test_shift_detection () =
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(10000), b(10000)\n  do i = 2, n\n    a(i) = b(i-1)\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let events = analyze_nest ~comm ~symtab:c.symbols ~layouts [] c.routine.body in
  match events with
  | [ { pattern = Shift { offset; _ }; array = "b"; _ } ] ->
    Alcotest.(check int) "offset -1" (-1) offset
  | l -> Alcotest.failf "expected one shift, got %d events" (List.length l)

let test_aligned_no_comm () =
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(10000), b(10000)\n  do i = 1, n\n    a(i) = b(i) * 2.0\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  Alcotest.(check int) "aligned access is local" 0
    (List.length (analyze_nest ~comm ~symtab:c.symbols ~layouts [] c.routine.body))

let test_undistributed_no_comm () =
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(10000), b(10000)\n  do i = 2, n\n    a(i) = b(i-1)\n  end do\nend\n" in
  Alcotest.(check int) "no layouts, no comm" 0
    (List.length (analyze_nest ~comm ~symtab:c.symbols ~layouts:[] [] c.routine.body))

let test_reduction_detection () =
  let c = checked "subroutine s(x, n, s1)\n  integer n, i\n  real x(10000), s1\n  do i = 1, n\n    s1 = s1 + x(i)\n  end do\nend\n" in
  let layouts = [ ("x", { ldist = [ Block ] }) ] in
  let events = analyze_nest ~comm ~symtab:c.symbols ~layouts [] c.routine.body in
  Alcotest.(check bool) "reduce event present" true
    (List.exists (fun e -> match e.pattern with Reduce _ -> true | _ -> false) events)

let test_broadcast_detection () =
  (* constant index in the distributed dimension: everyone reads one owner *)
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(10000), b(10000)\n  do i = 1, n\n    a(i) = b(1)\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let events = analyze_nest ~comm ~symtab:c.symbols ~layouts [] c.routine.body in
  Alcotest.(check bool) "broadcast present" true
    (List.exists (fun e -> match e.pattern with Broadcast _ -> true | _ -> false) events)

let test_gather_detection () =
  (* transposed access: i reads b(n-i+1), coefficient -1: unstructured *)
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(10000), b(10000)\n  do i = 1, n\n    a(i) = b(n-i+1)\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let events = analyze_nest ~comm ~symtab:c.symbols ~layouts [] c.routine.body in
  Alcotest.(check bool) "gather present" true
    (List.exists (fun e -> match e.pattern with Gather _ -> true | _ -> false) events)

let test_pattern_costs () =
  let shift = Shift { offset = 1; bytes_per_proc = Poly.of_int 400 } in
  Alcotest.(check (float 1e-9)) "shift = 2 messages" (2.0 *. (1000.0 +. 200.0))
    (eval_at [] (pattern_cost comm shift));
  let bc = Broadcast { bytes = Poly.of_int 400 } in
  (* ceil(log2 8) = 3 rounds *)
  Alcotest.(check (float 1e-9)) "broadcast = 3 messages" (3.0 *. 1200.0)
    (eval_at [] (pattern_cost comm bc));
  let g = Gather { bytes_per_proc = Poly.of_int 400 } in
  Alcotest.(check (float 1e-9)) "gather = p-1 messages" (7.0 *. 1200.0)
    (eval_at [] (pattern_cost comm g));
  Alcotest.(check (float 1e-9)) "local free" 0.0 (eval_at [] (pattern_cost comm Local))

(* ---- simulator ---- *)

let test_sim_shift_messages () =
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(64), b(64)\n  do i = 2, n\n    a(i) = b(i-1)\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let messages, bytes = Comm.Sim.count_messages ~comm ~symtab:c.symbols ~layouts
      ~bounds:(fun v -> if v = "p" then 8 else 64) [] c.routine.body in
  (* 8 processors, block 8: each boundary crossing is 1 element from the
     left neighbour -> 7 messages of 4 bytes *)
  Alcotest.(check int) "7 boundary messages" 7 messages;
  Alcotest.(check int) "4 bytes each" 28 bytes

let test_sim_aligned_zero () =
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(64), b(64)\n  do i = 1, n\n    a(i) = b(i)\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let messages, _ = Comm.Sim.count_messages ~comm ~symtab:c.symbols ~layouts
      ~bounds:(fun v -> if v = "p" then 8 else 64) [] c.routine.body in
  Alcotest.(check int) "aligned = no messages" 0 messages

let test_sim_non_integer_skip () =
  (* real-typed subscript arithmetic: the statement is skipped with a
     diagnostic instead of failwith *)
  let c = checked "subroutine s(a, b, r, n)\n  integer n, i\n  real a(64), b(64), r\n  do i = 2, n\n    a(int(r)) = b(i-1)\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let diags = ref [] in
  let messages, bytes =
    Comm.Sim.count_messages
      ~on_diag:(fun d -> diags := d :: !diags)
      ~comm ~symtab:c.symbols ~layouts
      ~bounds:(fun v -> if v = "p" then 8 else 64)
      [] c.routine.body
  in
  Alcotest.(check int) "nothing counted" 0 messages;
  Alcotest.(check int) "no bytes" 0 bytes;
  Alcotest.(check int) "reported once" 1 (List.length !diags);
  Alcotest.(check string) "check id" "sim-non-integer"
    (List.hd !diags).Pperf_lint.Diagnostic.check

let test_sim_min_subscript () =
  (* min is integer arithmetic: each of the 48 iterations whose neighbour
     lives on another processor fetches one element *)
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(64), b(64)\n  do i = 1, n\n    b(i) = a(min(i + 16, n))\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let diags = ref 0 in
  let messages, bytes =
    Comm.Sim.count_messages
      ~on_diag:(fun _ -> incr diags)
      ~comm ~symtab:c.symbols ~layouts
      ~bounds:(fun v -> if v = "p" then 4 else 64)
      [] c.routine.body
  in
  Alcotest.(check int) "48 messages" 48 messages;
  Alcotest.(check int) "4 bytes each" 192 bytes;
  Alcotest.(check int) "nothing skipped" 0 !diags

let test_sim_vs_static_shift () =
  (* static prediction: shift = 2 messages on the critical path; the
     simulator counts 7 total one-hop messages (p-1 pairs), which the
     vectorized-phase model reports as one message per neighbour pair *)
  let c = checked "subroutine s(a, b, n)\n  integer n, i\n  real a(64), b(64)\n  do i = 2, n\n    a(i) = b(i-1)\n  end do\nend\n" in
  let layouts = [ ("a", { ldist = [ Block ] }); ("b", { ldist = [ Block ] }) ] in
  let events = analyze_nest ~comm ~symtab:c.symbols ~layouts [] c.routine.body in
  Alcotest.(check int) "one static event" 1 (List.length events);
  let messages, _ = Comm.Sim.count_messages ~comm ~symtab:c.symbols ~layouts
      ~bounds:(fun v -> if v = "p" then 8 else 64) [] c.routine.body in
  Alcotest.(check int) "p-1 point-to-point messages" (8 - 1) messages

let () =
  Alcotest.run "commcost"
    [
      ( "static",
        [
          Alcotest.test_case "message formula" `Quick test_message_formula;
          Alcotest.test_case "shift" `Quick test_shift_detection;
          Alcotest.test_case "aligned local" `Quick test_aligned_no_comm;
          Alcotest.test_case "undistributed" `Quick test_undistributed_no_comm;
          Alcotest.test_case "reduction" `Quick test_reduction_detection;
          Alcotest.test_case "broadcast" `Quick test_broadcast_detection;
          Alcotest.test_case "gather" `Quick test_gather_detection;
          Alcotest.test_case "pattern costs" `Quick test_pattern_costs;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "shift messages" `Quick test_sim_shift_messages;
          Alcotest.test_case "aligned zero" `Quick test_sim_aligned_zero;
          Alcotest.test_case "non-integer skip" `Quick test_sim_non_integer_skip;
          Alcotest.test_case "static vs sim" `Quick test_sim_vs_static_shift;
          Alcotest.test_case "min subscript" `Quick test_sim_min_subscript;
        ] );
    ]
