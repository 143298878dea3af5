(* Tests for the symbolic engine: polynomials, intervals, roots, signs,
   integration, sensitivity, simplification. *)

open Pperf_num
open Pperf_symbolic
module P = Poly

let x = P.var "x"
let n = P.var "n"
let k = P.var "k"
let pi = P.of_int

let check_p msg expected actual = Alcotest.(check string) msg expected (P.to_string actual)

(* ---- polynomial unit tests ---- *)

let test_poly_basics () =
  check_p "print order" "x^3 - 6*x^2 + 11*x - 6"
    P.Infix.((x - pi 1) * (x - pi 2) * (x - pi 3));
  check_p "zero" "0" (P.sub x x);
  check_p "constants fold" "7" (P.add (pi 3) (pi 4));
  Alcotest.(check int) "degree" 3 (P.total_degree P.Infix.(x * x * x + x));
  Alcotest.(check int) "degree_in n" 2 (P.degree_in "n" P.Infix.((n * n * x) + x));
  Alcotest.(check (list string)) "vars" [ "n"; "x" ] (P.vars P.Infix.(n * x));
  Alcotest.(check (option string)) "univariate" (Some "x") (P.is_univariate P.Infix.(x * x));
  Alcotest.(check (option string)) "not univariate" None (P.is_univariate P.Infix.(n * x))

let test_poly_eval_subst () =
  let p = P.Infix.((pi 2 * x * x) + (pi 3 * x) - pi 5) in
  let at v = P.eval (fun _ -> Rat.of_int v) p in
  Alcotest.(check string) "eval at 2" "9" (Rat.to_string (at 2));
  let q = P.subst "x" (P.add n P.one) p in
  Alcotest.(check string) "subst+eval" "9"
    (Rat.to_string (P.eval (fun _ -> Rat.one) q));
  let l = P.var_pow "x" (-2) in
  Alcotest.(check string) "x^-2 at 4" "1/16"
    (Rat.to_string (P.eval (fun _ -> Rat.of_int 4) l))

let test_poly_deriv () =
  let p = P.Infix.((pi 4 * P.pow x 4) + (pi 2 * P.pow x 3) - (pi 4 * x)) in
  check_p "derivative" "16*x^3 + 6*x^2 - 4" (P.deriv "x" p);
  check_p "laurent deriv" "-3*x^-4" (P.deriv "x" (P.var_pow "x" (-3)));
  check_p "partial" "n" (P.deriv "x" P.Infix.(n * x))

let test_poly_division () =
  let p = P.Infix.((pi 6 * n * x) + (pi 4 * x)) in
  (match P.div_exact p (P.scale_int 2 x) with
   | Some q -> check_p "div exact" "3*n + 2" q
   | None -> Alcotest.fail "expected divisible");
  Alcotest.(check bool) "multi-term divisor unsupported" true
    (P.div_exact p (P.add x n) = None)

let test_coeffs_in () =
  let p = P.Infix.((n * x * x) + (pi 3 * x) + n) in
  let cs = P.coeffs_in "x" p in
  Alcotest.(check int) "3 coeffs" 3 (List.length cs);
  Alcotest.(check string) "c2" "n" (P.to_string (List.assoc 2 cs));
  Alcotest.(check string) "c1" "3" (P.to_string (List.assoc 1 cs));
  Alcotest.(check string) "c0" "n" (P.to_string (List.assoc 0 cs))

(* qcheck generators for small polynomials *)
let poly_gen vars =
  let open QCheck.Gen in
  let term =
    map2
      (fun c exps ->
        let m = Monomial.of_list (List.map2 (fun v e -> (v, e)) vars exps) in
        (Rat.of_int c, m))
      (int_range (-5) 5)
      (flatten_l (List.map (fun _ -> int_range 0 3) vars))
  in
  map P.of_terms (list_size (int_range 0 6) term)

let arb_poly vars = QCheck.make ~print:P.to_string (poly_gen vars)

let prop_ring =
  QCheck.Test.make ~name:"poly ring laws" ~count:200
    (QCheck.triple (arb_poly [ "x"; "n" ]) (arb_poly [ "x"; "n" ]) (arb_poly [ "x"; "n" ]))
    (fun (a, b, c) ->
      P.equal (P.add a b) (P.add b a)
      && P.equal (P.mul a b) (P.mul b a)
      && P.equal (P.mul a (P.add b c)) (P.add (P.mul a b) (P.mul a c))
      && P.is_zero (P.sub a a))

let prop_eval_hom =
  QCheck.Test.make ~name:"eval is a homomorphism" ~count:200
    (QCheck.triple (arb_poly [ "x" ]) (arb_poly [ "x" ]) (QCheck.int_range (-10) 10))
    (fun (a, b, v) ->
      let env _ = Rat.of_int v in
      Rat.equal (P.eval env (P.mul a b)) (Rat.mul (P.eval env a) (P.eval env b))
      && Rat.equal (P.eval env (P.add a b)) (Rat.add (P.eval env a) (P.eval env b)))

let prop_subst_eval =
  QCheck.Test.make ~name:"subst then eval = eval extended" ~count:200
    (QCheck.pair (arb_poly [ "x"; "n" ]) (QCheck.int_range (-5) 5))
    (fun (p, v) ->
      let q = P.subst "x" (P.add_const (Rat.of_int v) n) p in
      let lhs = P.eval (fun _ -> Rat.of_int 2) q in
      let rhs =
        P.eval (fun s -> if s = "x" then Rat.of_int (2 + v) else Rat.of_int 2) p
      in
      Rat.equal lhs rhs)

(* ---- intervals ---- *)

let test_interval_arith () =
  let iv = Interval.of_ints in
  let s i = Interval.to_string i in
  Alcotest.(check string) "add" "[3, 7]" (s (Interval.add (iv 1 3) (iv 2 4)));
  Alcotest.(check string) "mul mixed" "[-8, 12]" (s (Interval.mul (iv (-2) 3) (iv 1 4)));
  Alcotest.(check string) "even pow" "[0, 9]" (s (Interval.pow (iv (-3) 2) 2));
  Alcotest.(check string) "even pow neg" "[4, 25]" (s (Interval.pow (iv (-5) (-2)) 2));
  Alcotest.(check string) "inv pow" "[1/16, 1/4]" (s (Interval.pow (iv 2 4) (-2)));
  Alcotest.(check bool) "sign pos" true (Interval.sign (iv 1 5) = Interval.Pos);
  Alcotest.(check bool) "sign mixed" true (Interval.sign (iv 0 5) = Interval.Mixed)

let test_interval_edges () =
  let iv = Interval.of_ints in
  let s i = Interval.to_string i in
  let half_lo = Interval.make (Interval.Fin (Rat.of_int 2)) Interval.Pos_inf in
  let half_hi = Interval.make Interval.Neg_inf (Interval.Fin (Rat.of_int (-1))) in
  (* mul with half-bounded and mixed-sign operands *)
  Alcotest.(check string) "mul half-bounded by mixed" "[-inf, +inf]"
    (s (Interval.mul half_lo (iv (-1) 1)));
  Alcotest.(check string) "mul half-bounded by pos" "[4, +inf]"
    (s (Interval.mul half_lo (iv 2 3)));
  Alcotest.(check string) "mul two half-bounded" "[-inf, -2]"
    (s (Interval.mul half_lo half_hi));
  Alcotest.(check string) "mul by zero point" "[0, 0]"
    (s (Interval.mul half_lo (iv 0 0)));
  (* pow on mixed-sign and half-bounded bases *)
  Alcotest.(check string) "odd pow mixed" "[-8, 27]" (s (Interval.pow (iv (-2) 3) 3));
  Alcotest.(check string) "even pow half-bounded" "[1, +inf]"
    (s (Interval.pow half_hi 2));
  Alcotest.(check string) "even pow mixed half-bounded" "[0, +inf]"
    (s (Interval.pow (Interval.make (Interval.Fin (Rat.of_int (-1))) Interval.Pos_inf) 2));
  Alcotest.(check string) "odd pow half-bounded" "[-inf, -1]"
    (s (Interval.pow half_hi 3));
  Alcotest.(check string) "inv of negative" "[-1, -1/4]"
    (s (Interval.pow (iv (-4) (-1)) (-1)));
  Alcotest.(check bool) "inv across zero raises" true
    (match Interval.pow (iv (-1) 1) (-1) with
     | exception Division_by_zero -> true
     | _ -> false);
  (* intersect: disjoint, touching, nested *)
  Alcotest.(check bool) "intersect disjoint" true
    (Interval.intersect (iv 1 2) (iv 3 4) = None);
  Alcotest.(check bool) "intersect touching" true
    (match Interval.intersect (iv 1 3) (iv 3 4) with
     | Some i -> Interval.equal i (iv 3 3)
     | None -> false);
  Alcotest.(check bool) "intersect nested" true
    (match Interval.intersect Interval.full (iv 3 4) with
     | Some i -> Interval.equal i (iv 3 4)
     | None -> false)

let test_interval_widen_narrow () =
  let iv = Interval.of_ints in
  let s i = Interval.to_string i in
  (* widening sends escaping bounds to infinity, keeps stable ones *)
  Alcotest.(check string) "widen hi escapes" "[1, +inf]" (s (Interval.widen (iv 1 3) (iv 1 5)));
  Alcotest.(check string) "widen lo escapes" "[-inf, 3]" (s (Interval.widen (iv 1 3) (iv 0 3)));
  Alcotest.(check string) "widen both" "[-inf, +inf]" (s (Interval.widen (iv 1 3) (iv 0 5)));
  (* idempotence and stability on subsets *)
  let a = iv (-2) 7 in
  Alcotest.(check bool) "widen a a = a" true (Interval.equal (Interval.widen a a) a);
  Alcotest.(check bool) "widen stable on subset" true
    (Interval.equal (Interval.widen a (iv 0 3)) a);
  let w = Interval.widen (iv 1 3) (iv 1 5) in
  Alcotest.(check bool) "widening reaches a fixpoint" true
    (Interval.equal (Interval.widen w (Interval.union w (iv 1 100))) w);
  (* narrowing recovers only the infinite bounds *)
  Alcotest.(check string) "narrow recovers hi" "[1, 10]" (s (Interval.narrow w (iv 1 10)));
  Alcotest.(check string) "narrow keeps finite" "[1, 3]"
    (s (Interval.narrow (iv 1 3) (iv 2 9)));
  Alcotest.(check bool) "narrow full by b = b" true
    (Interval.equal (Interval.narrow Interval.full a) a)

let prop_interval_sound =
  QCheck.Test.make ~name:"interval encloses pointwise values" ~count:300
    (QCheck.triple (arb_poly [ "x"; "n" ]) (QCheck.int_range (-5) 5) (QCheck.int_range (-5) 5))
    (fun (p, a, b) ->
      let lo = min a b and hi = max a b in
      let env = Interval.Env.of_list [ ("x", Interval.of_ints lo hi); ("n", Interval.of_ints lo hi) ] in
      let enclosure = Interval.eval_poly env p in
      List.for_all
        (fun vx ->
          List.for_all
            (fun vn ->
              let v = P.eval (fun s -> Rat.of_int (if s = "x" then vx else vn)) p in
              Interval.contains enclosure v)
            [ lo; hi; (lo + hi) / 2 ])
        [ lo; hi; (lo + hi) / 2 ])

(* ---- roots ---- *)

let test_roots_cubic () =
  let p = P.Infix.((x - pi 1) * (x - pi 2) * (x - pi 3)) in
  let encls = Roots.isolate p "x" Interval.full in
  Alcotest.(check int) "3 roots" 3 (List.length encls);
  List.iteri
    (fun i (e : Roots.enclosure) ->
      let expect = Rat.of_int (i + 1) in
      Alcotest.(check bool)
        (Printf.sprintf "root %d enclosed" (i + 1))
        true
        (Rat.compare e.lo expect <= 0 && Rat.compare expect e.hi <= 0))
    encls;
  Alcotest.(check int) "count in [0,10]" 3 (Roots.count_in p "x" (Interval.of_ints 0 10));
  Alcotest.(check int) "count in [2,10]" 2 (Roots.count_in p "x" (Interval.of_ints 2 10));
  Alcotest.(check int) "count in [4,10]" 0 (Roots.count_in p "x" (Interval.of_ints 4 10))

let test_roots_multiplicity () =
  let p = P.Infix.((x - pi 2) * (x - pi 2) * (x + pi 1)) in
  Alcotest.(check int) "distinct roots" 2 (List.length (Roots.isolate p "x" Interval.full))

let test_roots_none () =
  let p = P.Infix.((x * x) + pi 1) in
  Alcotest.(check int) "no real roots" 0 (List.length (Roots.isolate p "x" Interval.full));
  Alcotest.(check int) "constant" 0 (List.length (Roots.isolate (pi 5) "x" Interval.full))

let test_roots_rational () =
  let p = P.Infix.((pi 2 * x) - pi 3) in
  match Roots.isolate p "x" Interval.full with
  | [ e ] ->
    Alcotest.(check bool) "exact" true (Rat.equal e.lo e.hi && Rat.equal e.lo (Rat.of_ints 3 2))
  | _ -> Alcotest.fail "expected one root"

let counter name = Option.value ~default:0 (List.assoc_opt name (Pperf_obs.Obs.counters_now ()))

(* the Sturm chain cache, as counts: isolating the roots of one polynomial
   again reuses its chain. The cache is per domain and outlives a test, so
   each count is a delta around the second call. *)
let test_roots_chain_cache_counts () =
  let wilkinson8 =
    List.fold_left (fun acc r -> P.mul acc P.Infix.(x - pi r)) P.one [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let iv = Interval.of_ints (-1) 20 in
  let first = Roots.isolate wilkinson8 "x" iv in
  let hits0 = counter "roots.chain_cache_hits" and builds0 = counter "roots.chain_builds" in
  let second = Roots.isolate wilkinson8 "x" iv in
  Alcotest.(check int) "one chain cache hit" 1 (counter "roots.chain_cache_hits" - hits0);
  Alcotest.(check int) "no chain built" 0 (counter "roots.chain_builds" - builds0);
  let same (a : Roots.enclosure) (b : Roots.enclosure) = Rat.equal a.lo b.lo && Rat.equal a.hi b.hi in
  Alcotest.(check int) "eight roots" 8 (List.length second);
  Alcotest.(check bool) "same enclosures" true (List.equal same first second)

let prop_roots_found =
  QCheck.Test.make ~name:"prescribed integer roots are isolated" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 4) (QCheck.int_range (-8) 8))
    (fun roots ->
      let distinct = List.sort_uniq compare roots in
      let p =
        List.fold_left (fun acc r -> P.mul acc (P.sub x (pi r))) P.one distinct
      in
      let encls = Roots.isolate p "x" Interval.full in
      List.length encls = List.length distinct
      && List.for_all2
           (fun r (e : Roots.enclosure) ->
             Rat.compare e.lo (Rat.of_int r) <= 0 && Rat.compare (Rat.of_int r) e.hi <= 0)
           distinct encls)

(* differential: the exact Sturm path (count_in/isolate) against the float
   closed-form solvers, on rational cubics/quartics built from distinct
   integer roots and a random rational leading coefficient *)
let prop_sturm_vs_closed_form =
  QCheck.Test.make ~name:"count_in/isolate agree with closed form" ~count:100
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 3 4) (QCheck.int_range (-8) 8))
       (QCheck.pair (QCheck.int_range 1 9) (QCheck.oneofl [ 1; -1 ])))
    (fun (roots, (num, sgn)) ->
      let distinct = List.sort_uniq compare roots in
      QCheck.assume (List.length distinct >= 3);
      let scale = Rat.of_ints (sgn * num) 7 in
      let p =
        P.scale scale
          (List.fold_left (fun acc r -> P.mul acc (P.sub x (pi r))) P.one distinct)
      in
      let coeffs = Array.map Rat.to_float (P.univariate_coeffs "x" p) in
      match Roots.Closed_form.solve coeffs with
      | None -> false
      | Some cf ->
        let iv = Interval.of_ints (-9) 9 in
        Roots.count_in p "x" iv = List.length cf
        && (let encls = Roots.isolate p "x" iv in
            List.length encls = List.length cf
            && List.for_all2
                 (fun r (e : Roots.enclosure) ->
                   Rat.to_float e.lo -. 1e-6 <= r && r <= Rat.to_float e.hi +. 1e-6)
                 cf encls))

(* the primitive-part remainder sequence divides every chain element by its
   content: Sturm counts must be invariant under any nonzero rational
   scaling of the polynomial (same roots, rescaled chain) *)
let prop_sturm_scale_invariant =
  QCheck.Test.make ~name:"sturm count invariant under rational scaling" ~count:200
    (QCheck.pair (arb_poly [ "x" ])
       (QCheck.pair (QCheck.int_range (-40) 40) (QCheck.int_range 1 12)))
    (fun (p, (num, den)) ->
      QCheck.assume (num <> 0);
      let iv = Interval.of_ints (-8) 8 in
      Roots.count_in p "x" iv = Roots.count_in (P.scale (Rat.of_ints num den) p) "x" iv)

let test_closed_form () =
  let roots_of c = Roots.Closed_form.solve c in
  (match roots_of [| -6.; 11.; -6.; 1. |] with
   | Some [ a; b; c ] ->
     Alcotest.(check (float 1e-6)) "r1" 1.0 a;
     Alcotest.(check (float 1e-6)) "r2" 2.0 b;
     Alcotest.(check (float 1e-6)) "r3" 3.0 c
   | _ -> Alcotest.fail "cubic roots");
  (match roots_of [| 4.; 0.; -5.; 0.; 1. |] with
   | Some rs ->
     Alcotest.(check int) "quartic count" 4 (List.length rs);
     List.iter2
       (fun e a -> Alcotest.(check (float 1e-6)) "quartic root" e a)
       [ -2.; -1.; 1.; 2. ] rs
   | None -> Alcotest.fail "quartic roots");
  (match roots_of [| 1.; -2.; 1. |] with
   | Some [ r ] -> Alcotest.(check (float 1e-9)) "double root" 1.0 r
   | _ -> Alcotest.fail "quadratic double root");
  Alcotest.(check bool) "degree 5 unsupported" true (roots_of [| 1.; 0.; 0.; 0.; 0.; 1. |] = None)

(* regression: the cubic classifier used absolute epsilons (disc > 1e-13,
   |q| <= 1e-13), so uniformly scaling the roots re-classified the
   polynomial. (x-l)(x-2l)(x-3l) for l = 1/100 has three distinct real
   roots but a discriminant of -l^6/27 ~ -3.7e-14, which the absolute
   threshold read as "multiple root": the old code returned one root. *)
let test_closed_form_scaled () =
  let l = 0.01 in
  (* (x-l)(x-2l)(x-3l), coefficients low-to-high *)
  let c = [| -6.0 *. (l ** 3.0); 11.0 *. (l ** 2.0); -6.0 *. l; 1.0 |] in
  (match Roots.Closed_form.cubic c with
   | [ a; b; c ] ->
     Alcotest.(check (float 1e-8)) "scaled r1" l a;
     Alcotest.(check (float 1e-8)) "scaled r2" (2.0 *. l) b;
     Alcotest.(check (float 1e-8)) "scaled r3" (3.0 *. l) c
   | rs -> Alcotest.failf "scaled-down cubic: expected 3 roots, got %d" (List.length rs));
  (* scaled the other way: a genuine double root at 1000 whose discriminant
     rounds to ~1e1 in absolute terms, far above the old 1e-13 cutoff *)
  (match Roots.Closed_form.cubic [| -3e9; 7e6; -5000.0; 1.0 |] with
   | [ a; b ] ->
     Alcotest.(check (float 1e-3)) "double root" 1000.0 a;
     Alcotest.(check (float 1e-3)) "simple root" 3000.0 b
   | rs -> Alcotest.failf "scaled-up cubic: expected 2 roots, got %d" (List.length rs));
  (* same misclassification in the quartic's biquadratic test: distinct
     roots {l,2l,3l,5l} have q ~ l^3, under the old absolute 1e-12 cutoff *)
  let l = 1e-5 in
  let quartic_coeffs =
    let p =
      List.fold_left
        (fun acc k -> P.mul acc (P.sub x (P.const (Rat.of_float_approx (float_of_int k *. l)))))
        P.one [ 1; 2; 3; 5 ]
    in
    Array.map Rat.to_float (P.univariate_coeffs "x" p)
  in
  match Roots.Closed_form.quartic quartic_coeffs with
  | [ a; b; c; d ] ->
    Alcotest.(check (float 1e-9)) "quartic r1" l a;
    Alcotest.(check (float 1e-9)) "quartic r2" (2.0 *. l) b;
    Alcotest.(check (float 1e-9)) "quartic r3" (3.0 *. l) c;
    Alcotest.(check (float 1e-9)) "quartic r4" (5.0 *. l) d
  | rs -> Alcotest.failf "scaled quartic: expected 4 roots, got %d" (List.length rs)

(* ---- signs ---- *)

let test_sign_regions () =
  let p = P.Infix.((x - pi 1) * (x - pi 2) * (x - pi 3)) in
  let rs = Signs.regions p "x" (Interval.of_ints 0 4) in
  let signs = List.map (fun (r : Signs.region) -> r.sign) rs in
  Alcotest.(check bool) "pattern -0+0-0+" true
    (signs = [ Signs.Neg; Signs.Zero; Signs.Pos; Signs.Zero; Signs.Neg; Signs.Zero; Signs.Pos ])

let test_sign_over () =
  let env = Interval.Env.of_list [ ("n", Interval.of_ints 1 100); ("m", Interval.of_ints 0 50) ] in
  let q = P.add (P.mul n (P.var "m")) (pi 3) in
  Alcotest.(check bool) "positive product" true (Signs.sign_over env q = Signs.Pos);
  Alcotest.(check bool) "negative" true (Signs.sign_over env (P.neg q) = Signs.Neg);
  let p2 = P.Infix.((n * n) - (pi 2 * n) + pi 2) in
  let env2 = Interval.Env.of_list [ ("n", Interval.of_ints 0 3) ] in
  Alcotest.(check bool) "subdivision proves positivity" true
    (Signs.sign_over ~depth:6 env2 p2 = Signs.Pos)

let test_compare_over () =
  let env = Interval.Env.of_list [ ("x", Interval.of_ints 0 4) ] in
  let d = P.Infix.((x * x * x) - (pi 6 * x * x) + (pi 11 * x) - pi 6) in
  (match Signs.compare_over env d P.zero with
   | Signs.Crossover rs -> Alcotest.(check bool) "has regions" true (List.length rs >= 5)
   | _ -> Alcotest.fail "expected crossover");
  (match Signs.compare_over env P.zero (P.add (P.mul x x) P.one) with
   | Signs.Always_le -> ()
   | _ -> Alcotest.fail "0 <= x^2+1");
  (match Signs.compare_over env x x with
   | Signs.Equal -> ()
   | _ -> Alcotest.fail "x = x");
  let env2 = Interval.Env.of_list [ ("n", Interval.of_ints 0 10); ("k", Interval.of_ints 0 10) ] in
  (match Signs.compare_over env2 n k with
   | Signs.Undecided d -> Alcotest.(check bool) "difference" true (P.equal d (P.sub n k))
   | _ -> Alcotest.fail "expected undecided")

(* ---- integration ---- *)

let test_integrate () =
  let p = P.Infix.((x * x * x) - (pi 6 * x * x) + (pi 11 * x) - pi 6) in
  Alcotest.(check string) "definite integral" "0"
    (Rat.to_string (Integrate.integral p "x" Rat.zero (Rat.of_int 4)));
  let s = Integrate.pos_neg_split p "x" (Interval.of_ints 0 4) in
  Alcotest.(check string) "P+ area" "5/2" (Rat.to_string s.pos_integral);
  Alcotest.(check string) "P- area" "5/2" (Rat.to_string s.neg_integral);
  Alcotest.(check string) "P+ measure" "2" (Rat.to_string s.pos_measure);
  Alcotest.(check string) "antiderivative" "x^2"
    (P.to_string (Integrate.antiderivative "x" (P.scale_int 2 x)))

let prop_integral_additive =
  QCheck.Test.make ~name:"integral additive over [a,m],[m,b]" ~count:200
    (QCheck.pair (arb_poly [ "x" ]) (QCheck.int_range (-5) 5))
    (fun (p, m) ->
      let a = Rat.of_int (-10) and b = Rat.of_int 10 and mid = Rat.of_int m in
      Rat.equal
        (Integrate.integral p "x" a b)
        (Rat.add (Integrate.integral p "x" a mid) (Integrate.integral p "x" mid b)))

(* ---- sensitivity ---- *)

let test_sensitivity () =
  let f = P.add (P.scale_int 100 (P.var "a")) (P.var "b") in
  let env = Interval.Env.of_list [ ("a", Interval.of_ints 0 10); ("b", Interval.of_ints 0 10) ] in
  match Sensitivity.rank env f with
  | first :: second :: _ ->
    Alcotest.(check string) "most sensitive" "a" first.variable;
    Alcotest.(check string) "less sensitive" "b" second.variable;
    Alcotest.(check bool) "ordering strict" true
      (Rat.compare first.sensitivity second.sensitivity > 0)
  | _ -> Alcotest.fail "expected two reports"

(* ---- simplification ---- *)

let test_simplify_paper_example () =
  let lau =
    P.Infix.((pi 4 * P.pow x 4) + (pi 2 * P.pow x 3) - (pi 4 * x) + P.var_pow "x" (-3))
  in
  let env = Interval.Env.of_list [ ("x", Interval.of_ints 3 100) ] in
  let simp = Simplify.drop_negligible env lau in
  check_p "laurent term dropped" "4*x^4 + 2*x^3 - 4*x" simp;
  let err = Simplify.max_relative_error env ~original:lau ~simplified:simp in
  Alcotest.(check bool) "error tiny" true (err < 1e-3)

let test_simplify_keeps_unbounded () =
  let p = P.add n (pi 1) in
  let env = Interval.Env.empty in
  Alcotest.(check bool) "nothing dropped without bounds" true
    (P.equal p (Simplify.drop_negligible env p))


let prop_regions_signs_correct =
  (* every Pos/Neg region really has that sign at sampled interior points *)
  QCheck.Test.make ~name:"sign regions verified by sampling" ~count:200
    (QCheck.pair (arb_poly [ "x" ]) (QCheck.pair (QCheck.int_range (-8) 8) (QCheck.int_range 1 10)))
    (fun (p, (lo, w)) ->
      let iv = Interval.of_ints lo (lo + w) in
      let rs = Signs.regions p "x" iv in
      List.for_all
        (fun (r : Signs.region) ->
          match r.sign with
          | Signs.Zero -> (
            match Interval.is_point r.range with
            | Some v -> Rat.is_zero (Roots.eval_at p "x" v)
            | None -> true (* narrow enclosure *))
          | Signs.Mixed -> false
          | s ->
            List.for_all
              (fun v ->
                let value = Roots.eval_at p "x" v in
                match s with
                | Signs.Pos -> Rat.sign value >= 0
                | Signs.Neg -> Rat.sign value <= 0
                | _ -> true)
              (Interval.sample r.range 3))
        rs)

let prop_regions_tile =
  (* the regions tile the interval: starts/ends chain without gaps *)
  QCheck.Test.make ~name:"sign regions tile the interval" ~count:200
    (QCheck.pair (arb_poly [ "x" ]) (QCheck.int_range (-8) 8))
    (fun (p, lo) ->
      QCheck.assume (not (Poly.is_zero p));
      let iv = Interval.of_ints lo (lo + 6) in
      let rs = Signs.regions p "x" iv in
      match rs with
      | [] -> false
      | first :: _ ->
        let rec chain (prev : Signs.region) = function
          | [] -> Interval.hi prev.range = Interval.hi iv
          | (r : Signs.region) :: rest ->
            Interval.hi prev.range = Interval.lo r.range && chain r rest
        in
        Interval.lo first.range = Interval.lo iv && chain first (List.tl rs))

let qsuite name tests =
  (* fixed seed: property failures should be reproducible, not flaky *)
  ( name,
    List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])) tests )

(* past exponent 64 the bounds are enclosed, not raised: under one in
   magnitude toward zero, beyond it to themselves or infinity *)
let test_interval_huge_pow () =
  let s i = Interval.to_string i in
  let r a b = Interval.of_rats (Rat.of_ints a b) in
  let n = 100_000_000 in
  Alcotest.(check string) "even, at least one" "[1, +inf]"
    (s (Interval.pow (Interval.of_ints 1 10) n));
  Alcotest.(check string) "even, negative" "[2, +inf]"
    (s (Interval.pow (Interval.of_ints (-3) (-2)) n));
  Alcotest.(check string) "even, unit" "[0, 1]" (s (Interval.pow (Interval.of_ints (-1) 1) n));
  Alcotest.(check string) "odd, under one" "[-1/2, 1/3]"
    (s (Interval.pow (r (-1) 2 (Rat.of_ints 1 3)) (n + 1)));
  Alcotest.(check string) "odd, mixed" "[-inf, +inf]"
    (s (Interval.pow (Interval.of_ints (-3) 2) (n + 1)));
  Alcotest.(check string) "exact up to 64" "[0, 18446744073709551616]"
    (s (Interval.pow (Interval.of_ints 0 2) 64))

let () =
  ignore k;
  Alcotest.run "symbolic"
    [
      ( "poly",
        [
          Alcotest.test_case "basics" `Quick test_poly_basics;
          Alcotest.test_case "eval/subst" `Quick test_poly_eval_subst;
          Alcotest.test_case "deriv" `Quick test_poly_deriv;
          Alcotest.test_case "division" `Quick test_poly_division;
          Alcotest.test_case "coeffs_in" `Quick test_coeffs_in;
        ] );
      qsuite "poly-props" [ prop_ring; prop_eval_hom; prop_subst_eval ];
      ( "interval",
        [
          Alcotest.test_case "arith" `Quick test_interval_arith;
          Alcotest.test_case "edges" `Quick test_interval_edges;
          Alcotest.test_case "widen/narrow" `Quick test_interval_widen_narrow;
          Alcotest.test_case "huge exponent" `Quick test_interval_huge_pow;
        ] );
      qsuite "interval-props" [ prop_interval_sound ];
      ( "roots",
        [
          Alcotest.test_case "cubic" `Quick test_roots_cubic;
          Alcotest.test_case "multiplicity" `Quick test_roots_multiplicity;
          Alcotest.test_case "no roots" `Quick test_roots_none;
          Alcotest.test_case "rational root" `Quick test_roots_rational;
          Alcotest.test_case "chain cache counts" `Quick test_roots_chain_cache_counts;
          Alcotest.test_case "closed form" `Quick test_closed_form;
          Alcotest.test_case "closed form scaled" `Quick test_closed_form_scaled;
        ] );
      qsuite "roots-props"
        [ prop_roots_found; prop_sturm_vs_closed_form; prop_sturm_scale_invariant ];
      qsuite "signs-props" [ prop_regions_signs_correct; prop_regions_tile ];
      ( "signs",
        [
          Alcotest.test_case "regions" `Quick test_sign_regions;
          Alcotest.test_case "sign over box" `Quick test_sign_over;
          Alcotest.test_case "compare over" `Quick test_compare_over;
        ] );
      ("integrate", [ Alcotest.test_case "split" `Quick test_integrate ]);
      qsuite "integrate-props" [ prop_integral_additive ];
      ("sensitivity", [ Alcotest.test_case "ranking" `Quick test_sensitivity ]);
      ( "simplify",
        [
          Alcotest.test_case "paper example" `Quick test_simplify_paper_example;
          Alcotest.test_case "unbounded kept" `Quick test_simplify_keeps_unbounded;
        ] );
    ]
