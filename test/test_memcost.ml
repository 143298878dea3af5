(* Tests for the cache cost model: symbolic line counts validated against
   the direct set-associative LRU simulator. *)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_memcost.Memcost
module Sim = Pperf_memcost.Memcost.Sim

let p1 = Descr.builtin "power1"

let nest_of src =
  let c = Typecheck.check_routine (Parser.parse_routine src) in
  let loops, body = List.hd (Analysis.innermost_bodies c.routine.body) in
  (c.symbols, loops, body)

let eval_at bindings p =
  Rat.to_float (Poly.eval (fun v -> Rat.of_int (try List.assoc v bindings with Not_found -> 1)) p)

let test_stream_lines () =
  (* x(i) walked with stride 1 over n elements: n/32 lines of 128B/4B *)
  let tab, loops, body = nest_of
      "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\nend\n" in
  let groups = analyze_nest ~machine:p1 ~symtab:tab loops body in
  Alcotest.(check int) "one group (read+write share)" 1 (List.length groups);
  let g = List.hd groups in
  Alcotest.(check int) "two members" 2 g.members;
  Alcotest.(check (option int)) "stride 4B" (Some 4) g.min_stride_bytes;
  Alcotest.(check (float 1e-9)) "lines at n=3200" 100.0 (eval_at [ ("n", 3200) ] g.lines)

let test_column_vs_row () =
  (* column-major: a(i,j) inner i is stride-1; a(j,i) inner i is stride-lda *)
  let tab, loops, body = nest_of
      "subroutine s(a, n)\n  integer n, i, j\n  real a(512, 512)\n  do j = 1, n\n    do i = 1, n\n      a(i, j) = 1.0\n    end do\n  end do\nend\n" in
  let good = nest_cost ~machine:p1 ~symtab:tab loops body in
  let tab2, loops2, body2 = nest_of
      "subroutine s(a, n)\n  integer n, i, j\n  real a(512, 512)\n  do j = 1, n\n    do i = 1, n\n      a(j, i) = 1.0\n    end do\n  end do\nend\n" in
  let bad = nest_cost ~machine:p1 ~symtab:tab2 loops2 body2 in
  let g = eval_at [ ("n", 512) ] good and b = eval_at [ ("n", 512) ] bad in
  Alcotest.(check bool) "row-major walk ~32x worse" true (b > g *. 10.0)

let test_invariant_ref_one_line () =
  let tab, loops, body = nest_of
      "subroutine s(x, c, n)\n  integer n, i\n  real x(100000), c\n  do i = 1, n\n    x(i) = c\n  end do\nend\n" in
  let groups = analyze_nest ~machine:p1 ~symtab:tab loops body in
  (* only x is an array ref; scalar c is register business *)
  Alcotest.(check int) "one group" 1 (List.length groups)

let test_stride_negative_and_unknown () =
  (* a reversed walk x(n - i + 1) has coefficient -1 in i: the stride is
     reported by magnitude, not sign *)
  let tab, loops, body = nest_of
      "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(n - i + 1) = 0.0\n  end do\nend\n" in
  let g = List.hd (analyze_nest ~machine:p1 ~symtab:tab loops body) in
  Alcotest.(check (option int)) "reversed walk stride 4B" (Some 4) g.min_stride_bytes;
  (* a non-affine subscript x(i*i) has no constant stride at all *)
  let tab2, loops2, body2 = nest_of
      "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i * i) = 0.0\n  end do\nend\n" in
  let g2 = List.hd (analyze_nest ~machine:p1 ~symtab:tab2 loops2 body2) in
  Alcotest.(check (option int)) "non-affine stride unknown" None g2.min_stride_bytes

let test_jacobi_grouping () =
  let tab, loops, body = nest_of
      "subroutine s(a, b, n)\n  integer n, i, j\n  real a(1000,1000), b(1000,1000)\n  do i = 2, n\n    do j = 2, n\n      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))\n    end do\n  end do\nend\n" in
  let groups = analyze_nest ~machine:p1 ~symtab:tab loops body in
  (* uniformly generated: all 4 b-refs share one linear part; a separate *)
  Alcotest.(check int) "two groups" 2 (List.length groups)

let test_footprint () =
  let tab, loops, body = nest_of
      "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = 1.0\n  end do\nend\n" in
  let fp = footprint_bytes ~machine:p1 ~symtab:tab loops body in
  Alcotest.(check (float 1e-9)) "4n bytes" 4096.0 (eval_at [ ("n", 1024) ] fp)

(* ---- simulator validation ---- *)

let test_sim_stride1 () =
  let tab, loops, body = nest_of
      "subroutine s(x, n)\n  integer n, i\n  real x(100000)\n  do i = 1, n\n    x(i) = x(i) + 1.0\n  end do\nend\n" in
  let misses, accesses = Sim.run_nest ~machine:p1 ~symtab:tab ~bounds:(fun _ -> 3200) loops body in
  Alcotest.(check int) "accesses" 6400 accesses;
  (* 3200 elements * 4B / 128B = 100 lines -> 100 cold misses *)
  Alcotest.(check int) "cold misses" 100 misses;
  (* prediction matches the simulator *)
  let groups = analyze_nest ~machine:p1 ~symtab:tab loops body in
  let predicted = eval_at [ ("n", 3200) ] (List.hd groups).lines in
  Alcotest.(check (float 1.0)) "prediction = simulation" (float_of_int misses) predicted

let test_sim_matmul_blocking_helps () =
  (* validates the blocking story end-to-end on the simulator *)
  let src_plain = "subroutine mm(a, b, c, n)\n  integer n, i, j, k\n  real a(64,64), b(64,64), c(64,64)\n  do i = 1, n\n    do j = 1, n\n      do k = 1, n\n        c(i,j) = c(i,j) + a(i,k) * b(k,j)\n      end do\n    end do\n  end do\nend\n" in
  let c = Typecheck.check_routine (Parser.parse_routine src_plain) in
  let loops, body = List.hd (Analysis.innermost_bodies c.routine.body) in
  (* shrink the cache to make 64x64 overflow it *)
  let tiny_cache = { Machine.default_cache with cache_bytes = 4096; line_bytes = 64 } in
  let m = { p1 with Machine.cache = tiny_cache } in
  let misses, _ = Sim.run_nest ~machine:m ~symtab:c.symbols ~bounds:(fun _ -> 64) loops body in
  (* tiled variant: 16x16 tiles *)
  let src_tiled = "subroutine mmt(a, b, c, n)\n  integer n, i, j, k, jt, kt\n  real a(64,64), b(64,64), c(64,64)\n  do jt = 1, n, 16\n    do kt = 1, n, 16\n      do i = 1, n\n        do j = jt, jt+15\n          do k = kt, kt+15\n            c(i,j) = c(i,j) + a(i,k) * b(k,j)\n          end do\n        end do\n      end do\n    end do\n  end do\nend\n" in
  let c2 = Typecheck.check_routine (Parser.parse_routine src_tiled) in
  let loops2, body2 = List.hd (Analysis.innermost_bodies c2.routine.body) in
  let misses_tiled, _ = Sim.run_nest ~machine:m ~symtab:c2.symbols ~bounds:(fun _ -> 64) loops2 body2 in
  Alcotest.(check bool)
    (Printf.sprintf "tiling reduces misses (%d -> %d)" misses misses_tiled)
    true
    (misses_tiled < misses)

let test_sim_non_integer_skip () =
  (* a subscript the simulator cannot evaluate (unknown intrinsic) no
     longer aborts the run: the reference is skipped, reported once *)
  let tab, loops, body = nest_of
      "subroutine s(x, r, n)\n  integer n, i\n  real x(100), r\n  do i = 1, n\n    x(int(r)) = x(i) + 1.0\n  end do\nend\n" in
  let diags = ref [] in
  let _, accesses =
    Sim.run_nest
      ~on_diag:(fun d -> diags := d :: !diags)
      ~machine:p1 ~symtab:tab ~bounds:(fun _ -> 8) loops body
  in
  (* the x(i) read on each of the 8 iterations is still simulated *)
  Alcotest.(check int) "reads still counted" 8 accesses;
  Alcotest.(check int) "reported once" 1 (List.length !diags);
  let d = List.hd !diags in
  Alcotest.(check string) "check id" "sim-non-integer" d.Pperf_lint.Diagnostic.check;
  Alcotest.(check bool) "precision severity" true
    (d.Pperf_lint.Diagnostic.severity = Pperf_lint.Diagnostic.Precision)

let test_sim_assoc_conflicts () =
  (* direct-mapped vs fully associative on a power-of-two stride *)
  let params = { Machine.default_cache with cache_bytes = 8192; line_bytes = 64; associativity = 1 } in
  let dm = Sim.create params in
  let fa = Sim.create { params with associativity = 0 } in
  (* two streams 8KB apart: conflict in direct-mapped, fit in fully assoc *)
  for rep = 1 to 3 do
    ignore rep;
    for i = 0 to 31 do
      ignore (Sim.access dm (i * 64));
      ignore (Sim.access dm ((i * 64) + 8192));
      ignore (Sim.access fa (i * 64));
      ignore (Sim.access fa ((i * 64) + 8192))
    done
  done;
  Alcotest.(check bool) "direct-mapped thrashes" true (Sim.misses dm > Sim.misses fa);
  Alcotest.(check int) "fully assoc only cold" 64 (Sim.misses fa)

let test_tlb_term () =
  (* page-sized stride triggers the TLB term *)
  let tab, loops, body = nest_of
      "subroutine s(a, n)\n  integer n, i\n  real a(2048, 2048)\n  do i = 1, n\n    a(1, i) = 1.0\n  end do\nend\n" in
  let cost = nest_cost ~machine:p1 ~symtab:tab loops body in
  (* stride = 2048 * 4B = 8KB > page: cost should include tlb penalty * n *)
  let v = eval_at [ ("n", 100) ] cost in
  let miss_only = float_of_int (100 * p1.Machine.cache.miss_cycles) in
  Alcotest.(check bool) "tlb charged" true (v > miss_only)

let () =
  Alcotest.run "memcost"
    [
      ( "symbolic",
        [
          Alcotest.test_case "stride-1 stream" `Quick test_stream_lines;
          Alcotest.test_case "column vs row order" `Quick test_column_vs_row;
          Alcotest.test_case "invariant ref" `Quick test_invariant_ref_one_line;
          Alcotest.test_case "negative/unknown strides" `Quick test_stride_negative_and_unknown;
          Alcotest.test_case "jacobi grouping" `Quick test_jacobi_grouping;
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "tlb term" `Quick test_tlb_term;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "stride-1 validation" `Quick test_sim_stride1;
          Alcotest.test_case "blocking helps" `Slow test_sim_matmul_blocking_helps;
          Alcotest.test_case "associativity" `Quick test_sim_assoc_conflicts;
          Alcotest.test_case "non-integer skip" `Quick test_sim_non_integer_skip;
        ] );
    ]
