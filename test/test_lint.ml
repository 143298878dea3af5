(* Tests for the lint diagnostics subsystem and its wiring into the
   prediction pipeline and the transformation search. *)

open Pperf_lang
open Pperf_lint

let machine = Pperf_machine.Machine.power1
let lint src = Lint.run_checked (Typecheck.check_routine (Parser.parse_routine src))
let ids ds = List.sort_uniq compare (List.map (fun (d : Diagnostic.t) -> d.check) ds)
let has check ds = List.mem check (ids ds)

let test_registry () =
  Alcotest.(check int) "14 checks" 14 (List.length Checks.registry);
  Alcotest.(check int) "ids distinct" 14 (List.length (List.sort_uniq compare Checks.ids))

let test_use_before_def () =
  Alcotest.(check bool) "read before assign flagged" true
    (has "use-before-def" (lint "subroutine s(x)\n  real x, t\n  x = t + 1.0\nend\n"));
  Alcotest.(check bool) "assigned first is clean" false
    (has "use-before-def" (lint "subroutine s(x)\n  real x, t\n  t = 1.0\n  x = t + 1.0\nend\n"));
  (* a variable assigned on only one side of an if is not definitely defined *)
  Alcotest.(check bool) "one-sided if flagged" true
    (has "use-before-def"
       (lint
          "subroutine s(x)\n  real x, t\n  if (x > 0.0) then\n    t = 1.0\n  end if\n  x = t\nend\n"));
  Alcotest.(check bool) "both-sided if clean" false
    (has "use-before-def"
       (lint
          "subroutine s(x)\n  real x, t\n  if (x > 0.0) then\n    t = 1.0\n  else\n    t = 2.0\n  end if\n  x = t\nend\n"))

let test_oob_symbolic () =
  (* a(i+1) with i <= n against extent n: off by one for every n *)
  let src =
    "subroutine s(a, n)\n  integer n, i\n  real a(n)\n  do i = 1, n\n    a(i + 1) = 0.0\n  end do\nend\n"
  in
  let ds = List.filter (fun (d : Diagnostic.t) -> d.check = "oob-subscript") (lint src) in
  Alcotest.(check bool) "symbolic overflow flagged" true (ds <> []);
  Alcotest.(check bool) "is an error" true
    (List.exists (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Error) ds);
  (* below the default lower bound of 1 *)
  Alcotest.(check bool) "underflow flagged" true
    (has "oob-subscript"
       (lint
          "subroutine s(a, n)\n  integer n, i\n  real a(n)\n  do i = 1, n\n    a(i - 1) = 0.0\n  end do\nend\n"));
  (* in-bounds stays clean *)
  Alcotest.(check bool) "in bounds clean" false
    (has "oob-subscript"
       (lint
          "subroutine s(a, n)\n  integer n, i\n  real a(n)\n  do i = 1, n\n    a(i) = 0.0\n  end do\nend\n"))

let test_bad_step () =
  let sev src =
    List.filter_map
      (fun (d : Diagnostic.t) -> if d.check = "bad-step" then Some d.severity else None)
      (lint src)
  in
  Alcotest.(check bool) "zero step is an error" true
    (List.mem Diagnostic.Error
       (sev "subroutine s(x)\n  integer i\n  real x\n  do i = 1, 10, 0\n    x = x + 1.0\n  end do\nend\n"));
  Alcotest.(check bool) "backwards step warned" true
    (List.mem Diagnostic.Warning
       (sev "subroutine s(x)\n  integer i\n  real x\n  do i = 1, 10, -1\n    x = x + 1.0\n  end do\nend\n"));
  Alcotest.(check (list bool)) "descending loop clean" []
    (List.map (fun _ -> true)
       (sev "subroutine s(x)\n  integer i\n  real x\n  do i = 10, 1, -1\n    x = x + 1.0\n  end do\nend\n"))

let test_unreachable () =
  Alcotest.(check bool) "index below range flagged" true
    (has "unreachable-branch"
       (lint
          "subroutine s(x, n)\n  integer n, i\n  real x\n  do i = 1, n\n    if (i < 0) then\n      x = 0.0\n    end if\n  end do\nend\n"));
  Alcotest.(check bool) "live branch clean" false
    (has "unreachable-branch"
       (lint
          "subroutine s(x, n)\n  integer n, i\n  real x\n  do i = 1, n\n    if (i > 5) then\n      x = 0.0\n    end if\n  end do\nend\n"))

let test_unreachable_nonpolynomial () =
  (* mod(i, 2) lies in [0, 1] and abs(...) is never negative: both
     conditions are decided over the index range, as the abstract
     interpretation decides them *)
  let unreachable =
    List.filter
      (fun (d : Diagnostic.t) -> d.check = "unreachable-branch")
      (lint
         "subroutine s(a, x)\n  integer i\n  real a(10), x\n  do i = 1, 10\n    if (mod(i, 2) == 2) then\n      x = 0.0\n    end if\n    if (abs(a(i)) < 0.0) then\n      x = 1.0\n    end if\n  end do\nend\n")
  in
  Alcotest.(check int) "two unreachable branches" 2 (List.length unreachable)

let test_div_zero () =
  let sev src =
    List.filter_map
      (fun (d : Diagnostic.t) -> if d.check = "div-by-zero" then Some d.severity else None)
      (lint src)
  in
  Alcotest.(check bool) "identically zero denominator is an error" true
    (List.mem Diagnostic.Error
       (sev
          "subroutine s(x, i)\n  integer i, m\n  real x\n  m = i / (i - i)\n  x = m * 1.0\nend\n"));
  Alcotest.(check bool) "sign-unknown denominator warned" true
    (List.mem Diagnostic.Warning
       (sev "subroutine s(m, k)\n  integer m, k, r\n  r = m / k\n  k = r\nend\n"));
  Alcotest.(check (list bool)) "positive denominator clean" []
    (List.map (fun _ -> true)
       (sev "subroutine s(x, n)\n  integer n, i\n  real x(100)\n  do i = 1, n\n    x(i) = x(i) / 2.0\n  end do\nend\n"))

let lint_ranges src =
  Lint.run_checked ~ranges:true (Typecheck.check_routine (Parser.parse_routine src))

let test_empty_loop () =
  (* constant bounds prove emptiness without any range analysis *)
  Alcotest.(check bool) "constant empty loop flagged" true
    (has "provably-empty-loop"
       (lint "subroutine s(x)\n  integer i\n  real x\n  do i = 5, 1\n    x = 0.0\n  end do\nend\n"));
  Alcotest.(check bool) "normal loop clean" false
    (has "provably-empty-loop"
       (lint "subroutine s(x)\n  integer i\n  real x\n  do i = 1, 5\n    x = 0.0\n  end do\nend\n"));
  (* a symbolic bound needs the inferred ranges to prove the trip is zero *)
  let src =
    "subroutine s(x)\n  integer i, m\n  real x\n  m = 0\n  do i = 1, m\n    x = 0.0\n  end do\nend\n"
  in
  Alcotest.(check bool) "symbolic empty: range-free misses it" false
    (has "provably-empty-loop" (lint src));
  Alcotest.(check bool) "symbolic empty: ranges prove it" true
    (has "provably-empty-loop" (lint_ranges src))

let test_constant_condition () =
  let src = "subroutine s(x)\n  integer m\n  real x\n  m = 2\n  if (m > 1) then\n    x = 1.0\n  end if\nend\n" in
  Alcotest.(check bool) "needs ranges" false (has "constant-condition" (lint src));
  Alcotest.(check bool) "flagged with ranges" true
    (has "constant-condition" (lint_ranges src));
  (* conditions the range-free machinery already decides are left to the
     unreachable-branch check, not reported twice *)
  let trivial = "subroutine s(x)\n  real x\n  if (1 > 2) then\n    x = 1.0\n  end if\nend\n" in
  Alcotest.(check bool) "trivially-false left to unreachable" false
    (has "constant-condition" (lint_ranges trivial))

let test_ranges_suppress_oob () =
  (* a(i+1) under i <= 99 is guarded; the static extreme 101 is a false
     positive only flow-sensitive ranges can rebut *)
  let src =
    "subroutine s(a)\n\
    \  integer i\n\
    \  real a(100)\n\
    \  do i = 1, 100\n\
    \    if (i <= 99) then\n\
    \      a(i + 1) = 0.0\n\
    \    end if\n\
    \  end do\nend\n"
  in
  Alcotest.(check bool) "flagged without ranges" true (has "oob-subscript" (lint src));
  Alcotest.(check bool) "suppressed with ranges" false
    (has "oob-subscript" (lint_ranges src));
  (* a genuine overflow stays flagged either way *)
  let bad =
    "subroutine s(a)\n  integer i\n  real a(100)\n  do i = 1, 100\n    a(i + 1) = 0.0\n  end do\nend\n"
  in
  Alcotest.(check bool) "true positive kept" true (has "oob-subscript" (lint_ranges bad))

let test_ranges_suppress_div_zero () =
  let src = "subroutine s(x)\n  integer m\n  real x\n  m = 2\n  x = x / m\nend\n" in
  Alcotest.(check bool) "flagged without ranges" true (has "div-by-zero" (lint src));
  Alcotest.(check bool) "suppressed with ranges" false
    (has "div-by-zero" (lint_ranges src));
  (* a denominator whose range includes zero stays flagged *)
  let bad = "subroutine s(x)\n  integer m\n  real x\n  m = 0\n  x = x / m\nend\n" in
  Alcotest.(check bool) "true positive kept" true (has "div-by-zero" (lint_ranges bad))

let test_ranges_suppress_carried_dep () =
  (* a(i) vs a(i+m) with m pinned to 2 over a two-trip loop: disjoint *)
  let src =
    "subroutine s(a)\n\
    \  integer i, m\n\
    \  real a(100)\n\
    \  m = 2\n\
    \  do i = 1, m\n\
    \    a(i) = a(i + m) + 1.0\n\
    \  end do\nend\n"
  in
  Alcotest.(check bool) "flagged without ranges" true (has "carried-dep" (lint src));
  Alcotest.(check bool) "suppressed with ranges" false
    (has "carried-dep" (lint_ranges src))

let test_known_routines () =
  let prog =
    "subroutine leaf(x)\n  real x\n  x = x + 1.0\nend\n\nsubroutine top(x)\n  real x\n  call leaf(x)\n  call stranger(x)\nend\n"
  in
  let reports = Lint.run_program (Typecheck.check_program (Parser.parse_program prog)) in
  let top = List.find (fun (r : Lint.report) -> r.routine = "top") reports in
  let calls =
    List.filter (fun (d : Diagnostic.t) -> d.check = "unknown-call") top.diagnostics
  in
  Alcotest.(check int) "only the undefined callee flagged" 1 (List.length calls);
  Alcotest.(check bool) "names stranger" true
    (let d = List.hd calls in
     String.length d.message >= 8
     && (let found = ref false in
         String.iteri
           (fun i _ ->
             if i + 8 <= String.length d.message && String.sub d.message i 8 = "stranger"
             then found := true)
           d.message;
         !found))

let test_exit_codes () =
  let mk sev = Diagnostic.make sev ~check:"c" ~loc:Srcloc.dummy "m" in
  Alcotest.(check int) "error is 2" 2 (Diagnostic.exit_code [ mk Diagnostic.Error; mk Diagnostic.Hint ]);
  Alcotest.(check int) "warning is 1" 1 (Diagnostic.exit_code [ mk Diagnostic.Warning ]);
  Alcotest.(check int) "precision passes" 0 (Diagnostic.exit_code [ mk Diagnostic.Precision ]);
  Alcotest.(check int) "clean passes" 0 (Diagnostic.exit_code [])

let test_dedupe () =
  let loc = { Srcloc.line = 3; col = 1 } in
  let a = Diagnostic.make Diagnostic.Precision ~check:"unknown-call" ~loc "first wording" in
  let b = Diagnostic.make Diagnostic.Precision ~check:"unknown-call" ~loc "second wording" in
  let c = Diagnostic.make Diagnostic.Precision ~check:"non-affine-subscript" ~loc "other" in
  Alcotest.(check int) "same check+loc collapses" 2 (List.length (Lint.dedupe [ a; b; c ]))

(* ---- severity tags ---- *)

(* One routine that fires every precision check, each way it can: a
   non-polynomial and a sign-unknown step, a non-affine subscript, unknown
   calls in an expression and as a statement. *)
let precision_fixture =
  "subroutine s(x, n, k, st)\n  integer n, k, i\n  integer st(10)\n  real x(100)\n\
  \  do i = 1, n, st(1)\n    x(i * i) = 1.0\n  end do\n\
  \  do i = 1, n, k\n    x(2) = x(2) + other(x(1))\n  end do\n  call mystery(x)\nend\n"

let tagged_routines () =
  let dir = List.find Sys.file_exists [ "../samples"; "samples" ] in
  let read f =
    let ic = open_in_bin (Filename.concat dir f) in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pf")
  |> List.sort compare |> List.map read
  |> List.cons precision_fixture
  |> List.concat_map (fun src -> Typecheck.check_program (Parser.parse_program src))

(* ranges off, intervals, product *)
let range_settings =
  [ ("ranges off", false, None); ("intervals", true, None);
    ("product", true, Some Pperf_absint.Absint.Product) ]

let test_severity_tags () =
  List.iter
    (fun (c : Typecheck.checked) ->
      List.iter
        (fun (setting, ranges, domain) ->
          let ctx =
            { Checks.default_ctx with
              ranges = (if ranges then Some (Pperf_absint.Absint.analyze ?domain c) else None) }
          in
          List.iter
            (fun (check : Checks.check) ->
              List.iter
                (fun (d : Diagnostic.t) ->
                  if not (List.mem d.severity check.emits) then
                    Alcotest.failf "%s (%s): %s returned an untagged %s diagnostic"
                      c.routine.rname setting check.id (Diagnostic.severity_to_string d.severity))
                (check.run ctx c))
            Checks.registry)
        range_settings)
    (tagged_routines ())

let test_precision_only_pass () =
  let fired = ref [] in
  List.iter
    (fun (c : Typecheck.checked) ->
      let only = Lint.run_precision c in
      fired := List.map (fun (d : Diagnostic.t) -> d.check) only @ !fired;
      List.iter
        (fun (setting, ranges, domain) ->
          if only <> Lint.precision (Lint.run_checked ~ranges ?domain c) then
            Alcotest.failf "%s (%s): the precision-only pass differs from the full registry's"
              c.routine.rname setting)
        range_settings)
    (tagged_routines ());
  Alcotest.(check (list string)) "every precision check fired"
    [ "bad-step"; "non-affine-subscript"; "unknown-call" ]
    (List.sort_uniq compare !fired)

(* ---- pipeline wiring ---- *)

let predict src = Pperf_core.Predict.of_source ~machine src

let test_aggregate_symbolic_trip () =
  let p =
    predict
      "subroutine s(x, n, m)\n  integer n, m, i\n  real x(100)\n  do i = 1, n, m\n    x(1) = x(1) + 1.0\n  end do\nend\n"
  in
  Alcotest.(check bool) "symbolic-trip recorded" true
    (has "symbolic-trip" (Pperf_core.Predict.precision_diagnostics p))

(* [do i = 1, n / 2] with integer n runs 2 iterations at n = 5, while its
   closed-form trip 1/2*n reads 2.5: the prediction says why, with and
   without ranges. A bound without a quotient is exact and says nothing. *)
let test_aggregate_integer_quotient_trip () =
  let trip_events ?(ranges = false) hi =
    let options = { Pperf_core.Aggregate.default_options with infer_ranges = ranges } in
    Pperf_core.Predict.precision_diagnostics
      (Pperf_core.Predict.of_source ~options ~machine
         (Printf.sprintf
            "subroutine s(x, n)\n  integer n, i\n  real x(100)\n  do i = 1, %s\n    x(i) = x(i) + 1.0\n  end do\nend\n"
            hi))
    |> List.filter_map (fun (d : Diagnostic.t) ->
           if d.check = "symbolic-trip" then Some d.message else None)
  in
  let truncates ms =
    List.exists (Astring.String.is_infix ~affix:"integer quotient") ms
  in
  Alcotest.(check bool) "n / 2 reported" true (truncates (trip_events "n / 2"));
  Alcotest.(check bool) "n / 2 reported under ranges" true
    (truncates (trip_events ~ranges:true "n / 2"));
  Alcotest.(check bool) "(n + 1) / 2 reported" true (truncates (trip_events "(n + 1) / 2"));
  Alcotest.(check (list string)) "2 * n exact" [] (trip_events "2 * n");
  Alcotest.(check (list string)) "n exact" [] (trip_events "n")

(* [do i = 1, n, 2] runs 2 iterations at n = 4, while its closed-form trip
   1/2*n + 1/2 reads 2.5: the loop floors (hi - lo + step) / step and the
   prediction says so. A step that divides the span exactly, or a unit
   step, is exact and says nothing. *)
let test_aggregate_non_unit_step_trip () =
  let trip_events bounds =
    Pperf_core.Predict.precision_diagnostics
      (Pperf_core.Predict.of_source ~machine
         (Printf.sprintf
            "subroutine s(x, n)\n  integer n, i\n  real x(100)\n  do i = %s\n    x(i) = x(i) + 1.0\n  end do\nend\n"
            bounds))
    |> List.filter_map (fun (d : Diagnostic.t) ->
           if d.check = "symbolic-trip" then Some d.message else None)
  in
  Alcotest.(check (list string)) "1, n, 2 reported"
    [ "trip count 1/2*n + 1/2 of the loop over 'i' takes (hi - lo + step) / step as exact while \
       the loop runs its floor" ]
    (trip_events "1, n, 2");
  Alcotest.(check (list string)) "1, 10, 3 exact" [] (trip_events "1, 10, 3");
  Alcotest.(check (list string)) "1, n exact" [] (trip_events "1, n")

let test_aggregate_branch_prob () =
  let p =
    predict
      "subroutine s(x, y)\n  real x, y\n  if (x > 0.0) then\n    y = sqrt(x) + exp(x)\n  else\n    y = 0.0\n  end if\nend\n"
  in
  Alcotest.(check bool) "prob var introduced" true (Pperf_core.Predict.prob_vars p <> []);
  Alcotest.(check bool) "branch-prob recorded" true
    (has "branch-prob" (Pperf_core.Predict.precision_diagnostics p))

let test_report_merges_lint () =
  let checked =
    Typecheck.check_routine
      (Parser.parse_routine
         "subroutine g(x, y, idx, n)\n  integer n, i\n  integer idx(1000)\n  real x(1000), y(1000)\n  do i = 1, n\n    y(i) = y(i) + x(idx(i))\n  end do\nend\n")
  in
  let r = Pperf_core.Report.generate ~machine checked in
  Alcotest.(check bool) "non-affine surfaced in report" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.check = "non-affine-subscript")
       r.diagnostics);
  Alcotest.(check bool) "all precision severity" true
    (List.for_all
       (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Precision)
       r.diagnostics)

let test_search_blocked () =
  let checked =
    Typecheck.check_routine
      (Parser.parse_routine
         "subroutine rec(a, n)\n  integer n, i, j\n  real a(512,512)\n  do i = 2, n\n    do j = 1, n - 1\n      a(i,j) = a(i-1,j+1) + 1.0\n    end do\n  end do\nend\n")
  in
  let out =
    Pperf_transform.Search.run ~machine ~max_nodes:5 ~max_depth:1 checked
  in
  let actions =
    List.sort_uniq compare
      (List.map (fun (b : Pperf_transform.Search.blocked) -> b.action) out.blocked)
  in
  Alcotest.(check (list string)) "interchange, reverse and tile blocked"
    [ "interchange"; "reverse"; "tile" ] actions;
  Alcotest.(check bool) "each cites a carried-dep diagnostic" true
    (List.for_all
       (fun (b : Pperf_transform.Search.blocked) -> b.why.check = "carried-dep")
       out.blocked)

(* a condition each program takes for some index; [x] is real *)
let taken_in_loop cond =
  Printf.sprintf
    "subroutine s(a, x)\n  integer i\n  real a(10), x\n  do i = 1, 10\n    x = a(i)\n    if (%s) then\n      a(i) = 0.0\n    end if\n  end do\nend\n"
    cond

let dead_branch_checks src =
  List.filter
    (fun c -> c = "unreachable-branch" || c = "constant-condition")
    (ids (lint src) @ ids (lint_ranges src))

(* the integer k holds i / 2, truncated *)
let divided_in_loop cond =
  Printf.sprintf
    "subroutine s(a)\n  integer i, k\n  real a(10)\n  do i = 1, 10\n    k = i / 2\n    if (%s) then\n      a(i) = 0.0\n    end if\n  end do\nend\n"
    cond

(* nint rounds, a real remainder stays under its divisor, integer division
   and min on an integer first argument truncate: each condition holds at
   some index (0.6 rounds to 1, x = 1.9, i = 1, min(3, 2.5) = 2), so no
   check calls its branch dead. A huge exponent is enclosed, not computed,
   and a sum's is not expanded, so its condition is answered at once. An
   integer quotient stored in k truncates too, for the relational domains
   as well: k == 0 holds at i = 1 and 2 * k == i - 1 at every odd i. *)
let test_nonpolynomial_taken () =
  List.iter
    (fun cond -> Alcotest.(check (list string)) cond [] (dead_branch_checks (taken_in_loop cond)))
    [
      "nint(0.6) == 1";
      "mod(x, 2.0) > 1.5";
      "min(i, 5) / 2 == 0";
      "i / 2 == 0";
      "min(i + 2, 2.5) < 2.2";
      "float(i) ** 100000000 > 0.0";
      "i ** 100000000 > 0";
      "(i + 1) ** 2000 > 0";
    ];
  List.iter
    (fun cond ->
      let src = divided_in_loop cond in
      let c = Typecheck.check_routine (Parser.parse_routine src) in
      let relational =
        List.concat_map
          (fun domain -> ids (Lint.run_checked ~ranges:true ~domain c))
          Pperf_absint.Absint.[ Octagon; Product ]
      in
      Alcotest.(check (list string)) cond []
        (dead_branch_checks src
        @ List.filter (fun c -> c = "unreachable-branch" || c = "constant-condition") relational))
    [ "k == 0"; "2 * k == (i - 1)" ]

(* k = x stores 1.5 truncated, as the interpreter does: k == 1 holds *)
let test_integer_assignment_truncates () =
  let src =
    "subroutine s(y)\n  integer k\n  real x, y\n  x = 1.5\n  k = x\n  if (k == 1) then\n    y = 2.0\n  end if\nend\n"
  in
  Alcotest.(check (list string))
    "k == 1 is always true"
    [ "condition k == 1 is always true over the inferred ranges" ]
    (List.filter_map
       (fun (d : Diagnostic.t) -> if d.check = "constant-condition" then Some d.message else None)
       (lint_ranges src))

let () =
  Alcotest.run "lint"
    [
      ( "checks",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "use before def" `Quick test_use_before_def;
          Alcotest.test_case "oob symbolic" `Quick test_oob_symbolic;
          Alcotest.test_case "bad step" `Quick test_bad_step;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "div by zero" `Quick test_div_zero;
          Alcotest.test_case "empty loop" `Quick test_empty_loop;
          Alcotest.test_case "constant condition" `Quick test_constant_condition;
          Alcotest.test_case "ranges suppress oob" `Quick test_ranges_suppress_oob;
          Alcotest.test_case "ranges suppress div-zero" `Quick test_ranges_suppress_div_zero;
          Alcotest.test_case "ranges suppress carried-dep" `Quick test_ranges_suppress_carried_dep;
          Alcotest.test_case "known routines" `Quick test_known_routines;
          Alcotest.test_case "unreachable non-polynomial" `Quick test_unreachable_nonpolynomial;
          Alcotest.test_case "non-polynomial taken" `Quick test_nonpolynomial_taken;
          Alcotest.test_case "integer assignment truncates" `Quick test_integer_assignment_truncates;
        ] );
      ( "diagnostic",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "dedupe" `Quick test_dedupe;
        ] );
      ( "tags",
        [
          Alcotest.test_case "severities within tags" `Quick test_severity_tags;
          Alcotest.test_case "precision-only pass" `Quick test_precision_only_pass;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "symbolic trip event" `Quick test_aggregate_symbolic_trip;
          Alcotest.test_case "integer quotient trip event" `Quick
            test_aggregate_integer_quotient_trip;
          Alcotest.test_case "non-unit step trip event" `Quick test_aggregate_non_unit_step_trip;
          Alcotest.test_case "branch prob event" `Quick test_aggregate_branch_prob;
          Alcotest.test_case "report merges lint" `Quick test_report_merges_lint;
          Alcotest.test_case "search blocked" `Quick test_search_blocked;
        ] );
    ]
