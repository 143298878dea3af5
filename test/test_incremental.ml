(* Tests for lib/core/incremental.ml: per-unit memoized re-prediction must
   be bit-identical to from-scratch aggregation, reuse cached units when
   only one routine (or one unit) changes, re-predict edited ones, and keep
   its unit memo within its bound. *)

open Pperf_lang
open Pperf_core

let machine = Pperf_machine.Descr.builtin "power1"

let check_src src = Typecheck.check_routine (Parser.parse_routine src)
let check_program src = Typecheck.check_program (Parser.parse_program src)

let cost_string c = Format.asprintf "%a" Perf_expr.pp c

let same_prediction msg (a : Aggregate.prediction) (b : Aggregate.prediction) =
  Alcotest.(check string) (msg ^ ": cost") (cost_string a.cost) (cost_string b.cost);
  Alcotest.(check (list string)) (msg ^ ": prob_vars") a.prob_vars b.prob_vars;
  Alcotest.(check bool) (msg ^ ": diagnostics") true (a.diagnostics = b.diagnostics)

let daxpy =
  "subroutine daxpy(x, y, a, n)\n\
  \  integer n, i\n\
  \  real x(100000), y(100000), a\n\
  \  do i = 1, n\n\
  \    y(i) = y(i) + a * x(i)\n\
  \  end do\n\
   end\n"

(* two ifs in straight-line context: aggregation invents p1 and p2, so
   unit-level caching must reproduce the global numbering *)
let branchy =
  "subroutine branchy(x, y)\n\
  \  real x, y\n\
  \  x = x + 1.0\n\
  \  if (x > 0.0) then\n\
  \    y = y + 1.0\n\
  \  else\n\
  \    y = y - 1.0\n\
  \  end if\n\
  \  y = y * 2.0\n\
  \  if (y > 2.0) then\n\
  \    x = 0.0\n\
  \  end if\n\
  \  x = x * y\n\
   end\n"

let sources = [ ("daxpy", daxpy); ("branchy", branchy) ]

let test_identical_to_scratch () =
  List.iter
    (fun (name, src) ->
      let checked = check_src src in
      let scratch = Aggregate.routine ~machine checked in
      let inc = Incremental.create machine in
      same_prediction (name ^ " cold") (Incremental.predict_checked inc checked) scratch;
      same_prediction (name ^ " warm") (Incremental.predict_checked inc checked) scratch)
    sources

let test_warm_hits () =
  let checked = check_src daxpy in
  let inc = Incremental.create machine in
  ignore (Incremental.predict_checked inc checked);
  let _, misses_cold = Incremental.stats inc in
  Alcotest.(check bool) "cold run misses" true (misses_cold > 0);
  ignore (Incremental.predict_checked inc checked);
  let hits, misses = Incremental.stats inc in
  Alcotest.(check bool) "warm run hits" true (hits > 0);
  Alcotest.(check int) "warm run adds no misses" misses_cold misses

(* editing one routine of a program must re-predict only that routine,
   and the result must still equal from-scratch *)
let test_edit_one_routine () =
  let prog v1 =
    Printf.sprintf
      "subroutine a(x, n)\n\
      \  integer n, i\n\
      \  real x(1000)\n\
      \  do i = 1, n\n\
      \    x(i) = x(i) + %s\n\
      \  end do\n\
       end\n\n\
       subroutine b(y, n)\n\
      \  integer n, i\n\
      \  real y(1000)\n\
      \  do i = 1, n\n\
      \    y(i) = y(i) * 2.0\n\
      \  end do\n\
       end\n"
      v1
  in
  let inc = Incremental.create machine in
  List.iter (fun c -> ignore (Incremental.predict_checked inc c)) (check_program (prog "1.0"));
  let hits0, misses0 = Incremental.stats inc in
  (* edit routine a only *)
  let edited = check_program (prog "3.0 * x(i)") in
  let results = List.map (Incremental.predict_checked inc) edited in
  let hits1, misses1 = Incremental.stats inc in
  Alcotest.(check bool) "b's units were reused" true (hits1 > hits0);
  Alcotest.(check bool) "a's edited unit re-predicted" true (misses1 > misses0);
  List.iter2
    (fun c r -> same_prediction "after edit" r (Aggregate.routine ~machine c))
    edited results

(* a declarations-only edit — same routine name, structurally identical
   body, different symbol table — must NOT reuse cached units: unit costs
   depend on variable types (integer vs real picks different atomic ops) *)
let test_decl_only_edit () =
  let prog ty =
    Printf.sprintf
      "subroutine s(x, n)\n\
      \  integer n, i\n\
      \  %s x(1000)\n\
      \  do i = 1, n\n\
      \    x(i) = x(i) + 1\n\
      \  end do\n\
       end\n"
      ty
  in
  let as_real = check_src (prog "real") in
  let as_int = check_src (prog "integer") in
  let inc = Incremental.create machine in
  let on_real = Incremental.predict_checked inc as_real in
  let on_int = Incremental.predict_checked inc as_int in
  same_prediction "real decl" on_real (Aggregate.routine ~machine as_real);
  same_prediction "integer decl" on_int (Aggregate.routine ~machine as_int);
  Alcotest.(check bool) "decl edit changes the prediction" true
    (cost_string on_real.cost <> cost_string on_int.cost)

let test_clear () =
  let checked = check_src daxpy in
  let inc = Incremental.create machine in
  ignore (Incremental.predict_checked inc checked);
  Incremental.clear inc;
  Alcotest.(check (pair int int)) "stats reset" (0, 0) (Incremental.stats inc)

(* more distinct units than one predictor keeps: its memo evicts, stays
   within 4,096 entries, and the prediction is still the from-scratch one *)
let test_bounded_units () =
  let loops = 4200 in
  let body =
    String.concat ""
      (List.init loops (fun k ->
           Printf.sprintf "  do i = 1, %d\n    x(i) = x(i) + 1.0\n  end do\n" (k + 1)))
  in
  let checked = check_src ("subroutine many(x)\n  integer i\n  real x(10000)\n" ^ body ^ "end\n") in
  let entries () =
    match List.assoc_opt "incremental.units" (Pperf_obs.Memo.report ()) with
    | Some s -> s.entries
    | None -> 0
  in
  let before = entries () in
  let inc = Incremental.create machine in
  same_prediction "past the bound" (Incremental.predict_checked inc checked)
    (Aggregate.routine ~machine checked);
  Alcotest.(check (pair int int)) "every unit computed once" (0, loops) (Incremental.stats inc);
  Alcotest.(check bool) "entries within the bound" true (entries () - before <= 4096);
  Incremental.clear inc;
  Alcotest.(check int) "clear drops them" before (entries ())

(* a different machine is a different predictor: same source must not
   reuse entries cached for another machine *)
let test_machine_change () =
  let checked = check_src daxpy in
  let scalar_machine = Pperf_machine.Descr.builtin "scalar" in
  let p1 = Incremental.create machine in
  let scalar = Incremental.create scalar_machine in
  let on_p1 = Incremental.predict_checked p1 checked in
  let on_scalar = Incremental.predict_checked scalar checked in
  same_prediction "scalar matches scratch" on_scalar
    (Aggregate.routine ~machine:scalar_machine checked);
  Alcotest.(check bool) "machines differ" true
    (cost_string on_p1.cost <> cost_string on_scalar.cost)

(* infer_ranges couples units through the whole body: prediction must fall
   back to from-scratch (and still be identical to Aggregate.routine) *)
let test_infer_ranges_fallback () =
  let options = { Aggregate.default_options with infer_ranges = true } in
  let checked = check_src daxpy in
  let inc = Incremental.create ~options machine in
  same_prediction "ranges mode" (Incremental.predict_checked inc checked)
    (Aggregate.routine ~machine ~options checked);
  Alcotest.(check (pair int int)) "no caching in ranges mode" (0, 0)
    (Incremental.stats inc)

let () =
  Alcotest.run "incremental"
    [
      ( "exactness",
        [
          Alcotest.test_case "identical to from-scratch" `Quick test_identical_to_scratch;
          Alcotest.test_case "ranges fallback" `Quick test_infer_ranges_fallback;
          Alcotest.test_case "machine change" `Quick test_machine_change;
        ] );
      ( "caching",
        [
          Alcotest.test_case "warm hits" `Quick test_warm_hits;
          Alcotest.test_case "edit one routine" `Quick test_edit_one_routine;
          Alcotest.test_case "declarations-only edit" `Quick test_decl_only_edit;
          Alcotest.test_case "bounded units" `Quick test_bounded_units;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
    ]
