(* Tests for the interval abstract interpretation: fixpoint ranges,
   widening/narrowing, branch refinement, and the summary/exit boxes. *)

open Pperf_num
open Pperf_lang
open Pperf_symbolic
module A = Pperf_absint.Absint

let checked src = Typecheck.check_routine (Parser.parse_routine src)
let analyze src = A.analyze (checked src)
let s i = Interval.to_string i
let iv = Interval.of_ints

let find_summary res x =
  match Interval.Env.find_opt x (A.summary res) with
  | Some i -> i
  | None -> Interval.full

let loop_over res v =
  match List.find_opt (fun (l : A.loop_range) -> l.lvar = v) (A.loops res) with
  | Some l -> l
  | None -> Alcotest.failf "no loop over %s" v

(* ---- loop index and trip enclosures ---- *)

let test_constant_loop () =
  let res =
    analyze "subroutine s(a)\n  integer i\n  real a(100)\n  do i = 1, 10\n    a(i) = 0.0\n  end do\nend\n"
  in
  let l = loop_over res "i" in
  Alcotest.(check string) "index" "[1, 10]" (s l.index);
  Alcotest.(check string) "trip" "[10, 10]" (s l.trip);
  Alcotest.(check int) "depth" 0 l.depth

let test_symbolic_loop () =
  let res =
    analyze
      "subroutine s(a, n)\n  integer n, i\n  real a(100)\n  do i = 1, n\n    a(1) = 0.0\n  end do\nend\n"
  in
  let l = loop_over res "i" in
  Alcotest.(check string) "index" "[1, +inf]" (s l.index);
  Alcotest.(check string) "trip" "[0, +inf]" (s l.trip)

let test_pinned_bound () =
  let res =
    analyze
      "subroutine s(a)\n\
      \  integer i, j, m\n\
      \  real a(100)\n\
      \  m = 8\n\
      \  do i = 1, 4\n\
      \    do j = 1, m\n\
      \      a(j) = 0.0\n\
      \    end do\n\
      \  end do\nend\n"
  in
  let l = loop_over res "j" in
  Alcotest.(check string) "inner index" "[1, 8]" (s l.index);
  Alcotest.(check string) "inner trip" "[8, 8]" (s l.trip);
  Alcotest.(check int) "inner depth" 1 l.depth;
  Alcotest.(check string) "summary m" "[8, 8]" (s (find_summary res "m"))

let test_zero_trip () =
  let res =
    analyze "subroutine s(x)\n  integer i\n  real x\n  do i = 5, 1\n    x = 0.0\n  end do\nend\n"
  in
  let l = loop_over res "i" in
  Alcotest.(check string) "trip is zero" "[0, 0]" (s l.trip)

let test_step_loop () =
  let res =
    analyze
      "subroutine s(x)\n  integer i\n  real x\n  do i = 1, 9, 2\n    x = 0.0\n  end do\nend\n"
  in
  let l = loop_over res "i" in
  Alcotest.(check string) "index" "[1, 9]" (s l.index);
  Alcotest.(check string) "trip" "[5, 5]" (s l.trip)

(* ---- widening terminates, narrowing recovers ---- *)

let test_accumulator_widens () =
  let res =
    analyze
      "subroutine s(x, n)\n\
      \  integer n, i, x\n\
      \  x = 0\n\
      \  do i = 1, n\n\
      \    x = x + 1\n\
      \  end do\nend\n"
  in
  (* x grows without bound: lower bound 0 survives, upper is widened away *)
  let x = find_summary res "x" in
  Alcotest.(check bool) "lower bound kept" true (Interval.lo x = Interval.Fin Rat.zero);
  Alcotest.(check bool) "upper bound widened" true (Interval.hi x = Interval.Pos_inf)
  [@@ocamlformat "disable"]

let test_bounded_accumulator () =
  (* min() caps the accumulator: narrowing keeps the cap *)
  let res =
    analyze
      "subroutine s(x, n)\n\
      \  integer n, i, x\n\
      \  x = 0\n\
      \  do i = 1, n\n\
      \    x = min(x + 1, 7)\n\
      \  end do\nend\n"
  in
  let x = find_summary res "x" in
  Alcotest.(check string) "capped" "[0, 7]" (s x)

(* An unrecorded loop pass may take the body output computed at the same
   head. Here the inner loop's narrowing tightens [k] from [0, +inf] to
   [0, 7], so a final pass that reused narrowing's output without checking
   the head had not moved would carry [m = k] at [0, +inf] out to [r]. *)
let test_reuse_needs_unchanged_head () =
  let src =
    "subroutine s(n)\n\
    \  integer n, i, j, k, m, r\n\
    \  k = 0\n\
    \  r = 0\n\
    \  m = 0\n\
    \  do i = 1, n\n\
    \    do j = 1, n\n\
    \      m = k\n\
    \      k = k + 3\n\
    \      if (k > 7) then\n\
    \        k = 1\n\
    \      end if\n\
    \    end do\n\
    \    r = m\n\
    \  end do\nend\n"
  in
  List.iter
    (fun domain ->
      let res = A.analyze ~domain (checked src) in
      let dom = A.domain_to_string domain in
      Alcotest.(check string) (dom ^ " m") "[0, 7]" (s (find_summary res "m"));
      Alcotest.(check string) (dom ^ " r") "[0, 7]" (s (find_summary res "r")))
    [ A.Box; A.Octagon; A.Product ]

(* ---- expression evaluation and condition refinement ---- *)

let test_eval_expr () =
  let env = Interval.Env.of_list [ ("n", iv 1 10) ] in
  Alcotest.(check string) "affine" "[3, 21]"
    (s (A.eval_expr env (Ast.Binop (Ast.Add, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Var "n"), Ast.Int 1))));
  Alcotest.(check string) "division" "[1/10, 1]"
    (s (A.eval_expr env (Ast.Binop (Ast.Div, Ast.Int 1, Ast.Var "n"))));
  Alcotest.(check string) "min intrinsic" "[1, 5]"
    (s (A.eval_expr env (Ast.Call ("min", [ Ast.Var "n"; Ast.Int 5 ]))));
  Alcotest.(check string) "abs intrinsic" "[0, 4]"
    (s (A.eval_expr (Interval.Env.of_list [ ("m", iv (-3) 4) ]) (Ast.Call ("abs", [ Ast.Var "m" ]))))

(* k = i / 2 over integers: the interpreter truncates, so k reaches 0 (at
   i = 1), and neither domain may state the rational i = 2*k *)
let test_integer_quotient () =
  let src =
    "subroutine s(a)\n  integer i, k\n  real a(10)\n  do i = 1, 10\n    k = i / 2\n    a(i) = 0.0\n  end do\nend\n"
  in
  List.iter
    (fun domain ->
      let res = A.analyze ~domain (checked src) in
      let name = A.domain_to_string domain in
      Alcotest.(check string) (name ^ ": k") "[0, 5]" (s (find_summary res "k"));
      let of_k =
        List.concat_map
          (fun (_, cs) ->
            List.filter_map
              (fun (c : Pperf_absint.Lin.cons) ->
                if List.mem "k" (Pperf_absint.Lin.vars c.lhs) then
                  Some (Pperf_absint.Lin.cons_to_string c)
                else None)
              cs)
          (A.relation_points res)
      in
      Alcotest.(check (list string)) (name ^ ": relations of k") [] of_k)
    A.[ Box; Product ]

let test_decide_cond () =
  let env = Interval.Env.of_list [ ("n", iv 1 10) ] in
  Alcotest.(check (option bool)) "n > 0 true" (Some true)
    (A.decide_cond env (Ast.Binop (Ast.Gt, Ast.Var "n", Ast.Int 0)));
  Alcotest.(check (option bool)) "n > 10 unknown" None
    (A.decide_cond env (Ast.Binop (Ast.Gt, Ast.Var "n", Ast.Int 5)));
  Alcotest.(check (option bool)) "n > 20 false" (Some false)
    (A.decide_cond env (Ast.Binop (Ast.Gt, Ast.Var "n", Ast.Int 20)))

let test_assume_refines () =
  let c = checked "subroutine s(n)\n  integer n, m\n  m = n\nend\n" in
  let env = Interval.Env.of_list [ ("n", iv 1 10) ] in
  (match A.assume c.symbols env (Ast.Binop (Ast.Le, Ast.Var "n", Ast.Int 5)) with
   | Some env' -> Alcotest.(check string) "n <= 5" "[1, 5]" (s (Interval.Env.find "n" env'))
   | None -> Alcotest.fail "feasible condition reported infeasible");
  (* integer tightening: n < 5 means n <= 4 *)
  (match A.assume c.symbols env (Ast.Binop (Ast.Lt, Ast.Var "n", Ast.Int 5)) with
   | Some env' -> Alcotest.(check string) "n < 5 (int)" "[1, 4]" (s (Interval.Env.find "n" env'))
   | None -> Alcotest.fail "feasible condition reported infeasible");
  (* affine: n + 3 <= 6 means n <= 3 *)
  (match
     A.assume c.symbols env
       (Ast.Binop (Ast.Le, Ast.Binop (Ast.Add, Ast.Var "n", Ast.Int 3), Ast.Int 6))
   with
   | Some env' -> Alcotest.(check string) "n+3 <= 6" "[1, 3]" (s (Interval.Env.find "n" env'))
   | None -> Alcotest.fail "feasible condition reported infeasible");
  (* infeasible conditions give None *)
  Alcotest.(check bool) "n > 99 infeasible" true
    (A.assume c.symbols env (Ast.Binop (Ast.Gt, Ast.Var "n", Ast.Int 99)) = None)

let test_branch_refinement_flows () =
  (* the else branch of (n <= 0) knows n >= 1, so the guarded division by n
     has a nonzero denominator: exit env of q excludes the unguarded path *)
  let res =
    analyze
      "subroutine s(q, n)\n\
      \  integer n\n\
      \  real q\n\
      \  q = 0.0\n\
      \  if (n > 2) then\n\
      \    q = 1.0\n\
      \  end if\nend\n"
  in
  Alcotest.(check string) "exit joins branches" "[0, 1]"
    (s (Interval.Env.find "q" (A.exit_env res)))

let test_summary_excludes_input_refinement () =
  (* n is never assigned: branch-local refinements must not leak into the
     routine-wide summary *)
  let res =
    analyze
      "subroutine s(x, n)\n\
      \  integer n\n\
      \  real x\n\
      \  if (n > 0) then\n\
      \    x = 1.0\n\
      \  end if\nend\n"
  in
  Alcotest.(check bool) "n unconstrained in summary" true
    (Interval.is_full (find_summary res "n"))

(* ---- relational domains: directed cases ---- *)

module R = Pperf_absint.Reldom
module Oct = Pperf_absint.Oct
module Lin = Pperf_absint.Lin

let guarded_src =
  "subroutine s(a, b, n)\n\
  \  integer n, i, m\n\
  \  real a(n), b(n)\n\
  \  m = 2 * n\n\
  \  do i = 1, n\n\
  \    if (i + 1 <= n) then\n\
  \      a(i + 1) = b(i)\n\
  \    end if\n\
  \  end do\nend\n"

(* the guarded store sits on line 7 of [guarded_src] *)
let rel_point res line =
  match
    List.find_opt (fun ((l : Srcloc.t), _) -> l.line = line) (A.relation_points res)
  with
  | Some (loc, _) -> loc
  | None -> Alcotest.failf "no relational facts recorded at line %d" line

let test_guard_i_le_n () =
  let res = A.analyze ~domain:A.Product (checked guarded_src) in
  let loc = rel_point res 7 in
  (* inside the guard, n - i >= 1 although both boxes are unbounded above *)
  Alcotest.(check string) "n - i under the guard" "[1, +inf]"
    (s (A.bound_at res loc (Poly.sub (Poly.var "n") (Poly.var "i"))));
  let cond =
    Ast.Binop (Ast.Le, Ast.Binop (Ast.Add, Ast.Var "i", Ast.Int 1), Ast.Var "n")
  in
  Alcotest.(check (option bool)) "guard decided" (Some true)
    (A.decide_cond_at res loc cond);
  (* interval-only analysis decides neither *)
  let box = A.analyze (checked guarded_src) in
  Alcotest.(check (option bool)) "box cannot decide" None
    (A.decide_cond_at box loc cond)

let test_affine_coupling () =
  let src = "subroutine s(n)\n  integer n, m, k\n  m = 2 * n\n  k = m - n\nend\n" in
  let res = A.analyze ~domain:A.Affine (checked src) in
  let strs = List.map Lin.cons_to_string (A.relations res) in
  Alcotest.(check bool) "m = 2*n survives to the summary" true
    (List.mem "m = 2*n" strs);
  (match List.assoc_opt "m" (A.rewrites res) with
   | Some p -> Alcotest.(check string) "rewrite m -> 2*n" "2*n" (Poly.to_string p)
   | None -> Alcotest.fail "no exact rewrite for m")

let coupled_src name =
  Printf.sprintf
    "subroutine %s(a, n)\n\
    \  integer n, i, m\n\
    \  real a(100000)\n\
    \  m = 2 * n\n\
    \  do i = 1, m\n\
    \    a(i) = 0.0\n\
    \  end do\nend\n"
    name

let test_product_decides_compare () =
  let module C = Pperf_core.Compare in
  let c1 = checked (coupled_src "v1") and c2 = checked (coupled_src "v2") in
  let env, rel = C.inferred_rel ~domain:A.Product [ c1; c2 ] in
  let cf = Pperf_core.Perf_expr.of_cpu (Poly.var "m")
  and cg = Pperf_core.Perf_expr.of_cpu (Poly.scale_int 2 (Poly.var "n")) in
  (match (C.decide env cf cg).verdict with
   | Signs.Undecided _ -> ()
   | v -> Alcotest.failf "interval should be undecided, got %a" Signs.pp_verdict v);
  match (C.decide ?rel env cf cg).verdict with
  | Signs.Equal | Signs.Always_le | Signs.Always_ge -> ()
  | v -> Alcotest.failf "product should decide m vs 2*n, got %a" Signs.pp_verdict v

(* ---- relational domains: properties ---- *)

let pool = [ "a"; "b"; "c"; "d" ]

(* Constraint constants: mostly small integers, which the octagon holds as
   native ints, and now and then one it must hold exactly: a non-integral
   rational, or an integer beyond ±2^60 (either side of the 2^61 native
   limit, and past the native int range), whose sums overflow native
   arithmetic. *)
let gen_const =
  let open QCheck.Gen in
  let big e k = Rat.add (Rat.pow Rat.two e) (Rat.of_int k) in
  frequency
    [
      (8, map Rat.of_int (int_range (-8) 8));
      (1, map2 Rat.of_ints (int_range (-17) 17) (oneofl [ 2; 3; 4 ]));
      ( 1,
        map3
          (fun s e k -> if s then big e k else Rat.neg (big e k))
          bool (oneofl [ 60; 61; 62; 63 ]) (int_range (-2) 2) );
    ]

(* a random octagonal constraint [±x ± y + c <= 0] over the pool *)
let gen_lin =
  let open QCheck.Gen in
  let signed = map2 (fun s v -> (s, v)) (oneofl [ 1; -1 ]) (oneofl pool) in
  map3
    (fun (sa, x) (sb, y) c ->
      Lin.add_const c
        (Lin.add
           (Lin.scale (Rat.of_int sa) (Lin.var x))
           (Lin.scale (Rat.of_int sb) (Lin.var y))))
    signed signed gen_const

let gen_lins = QCheck.Gen.list_size (QCheck.Gen.int_range 0 6) gen_lin

let print_lins ls = String.concat " && " (List.map (fun l -> Lin.to_string l ^ " <= 0") ls)

let build_oct = List.fold_left (fun t l -> Oct.meet_le t l) Oct.top

let prop_closure_idempotent =
  QCheck.Test.make ~name:"octagon: re-assuming own constraints is identity" ~count:500
    (QCheck.make ~print:print_lins gen_lins)
    (fun lins ->
      let t = build_oct lins in
      if Oct.is_bot t then true
      else begin
        let cs = Oct.constraints t in
        List.iter
          (fun c ->
            if not (Oct.entails t c) then
              QCheck.Test.fail_reportf "constraint %s not entailed by its own octagon"
                (Lin.cons_to_string c))
          cs;
        let t' =
          List.fold_left
            (fun acc (c : Lin.cons) ->
              if c.is_eq then Oct.meet_eq acc c.lhs else Oct.meet_le acc c.lhs)
            t cs
        in
        Oct.equal t t'
      end)

(* strong closure must not invent facts: any concrete model of the asserted
   constraints still satisfies the closed octagon *)
let prop_closure_sound =
  let open QCheck.Gen in
  let gen = pair gen_lins (list_repeat (List.length pool) (int_range (-10) 10)) in
  QCheck.Test.make ~name:"octagon: closure keeps concrete models" ~count:500
    (QCheck.make ~print:(fun (ls, vs) ->
         Printf.sprintf "%s at [%s]" (print_lins ls)
           (String.concat ";" (List.map string_of_int vs)))
       gen)
    (fun (lins, vals) ->
      let valu x = Rat.of_int (List.nth vals (Option.get (List.find_index (( = ) x) pool))) in
      let holds l = Rat.sign (Lin.eval valu l) <= 0 in
      let t = build_oct (List.filter holds lins) in
      Oct.satisfies valu t)

(* every transfer re-closes only through the variables it tightened; its
   result must still be the strong closure, i.e. equal its own full
   re-closure. Six variables, so paths through untouched variables exist. *)
type transfer = Le of Lin.t | Eq of Lin.t | Assign of string * Lin.t option

let wide_pool = [ "a"; "b"; "c"; "d"; "e"; "f" ]

let transfer_to_string = function
  | Le l -> Lin.to_string l ^ " <= 0"
  | Eq l -> Lin.to_string l ^ " = 0"
  | Assign (x, Some e) -> x ^ " := " ^ Lin.to_string e
  | Assign (x, None) -> x ^ " := ?"

let gen_transfer =
  let open QCheck.Gen in
  let var = oneofl wide_pool and const = gen_const in
  let unit_term = pair (oneofl [ Rat.one; Rat.minus_one ]) var in
  let term = pair (map Rat.of_int (oneofl [ -2; -1; 1; 2; 3 ])) var in
  let sum ts c = Lin.add_const c (Lin.of_terms ts Rat.zero) in
  let octagonal = map3 (fun t t' c -> sum [ t; t' ] c) unit_term unit_term const in
  let affine = map2 sum (list_size (int_range 1 3) term) const in
  frequency
    [
      (3, map (fun l -> Le l) octagonal);
      (1, map (fun l -> Le l) affine);
      (1, map (fun l -> Eq l) octagonal);
      (* x := x + c, x := ±y + c, general affine, unanalyzable *)
      (1, map2 (fun x c -> Assign (x, Some (sum [ (Rat.one, x) ] c))) var const);
      (3, map3 (fun x t c -> Assign (x, Some (sum [ t ] c))) var unit_term const);
      (2, map2 (fun x l -> Assign (x, Some l)) var affine);
      (1, map (fun x -> Assign (x, None)) var);
    ]

let apply_transfer t = function
  | Le l -> Oct.meet_le t l
  | Eq l -> Oct.meet_eq t l
  | Assign (x, e) -> Oct.assign t x e

let prop_transfers_strongly_closed =
  QCheck.Test.make ~name:"octagon: every transfer leaves the strong closure" ~count:500
    (QCheck.make
       ~print:(fun ts -> String.concat "; " (List.map transfer_to_string ts))
       QCheck.Gen.(list_size (int_range 1 14) gen_transfer))
    (fun ts ->
      let rec go t k = function
        | [] -> true
        | tr :: rest ->
          let t = apply_transfer t tr in
          if not (Oct.equal t (Oct.reclose t)) then
            QCheck.Test.fail_reportf
              "transfer %d (%s) left a matrix that is not strongly closed: %s" k
              (transfer_to_string tr)
              (String.concat " && " (List.map Lin.cons_to_string (Oct.constraints t)));
          go t (k + 1) rest
      in
      go Oct.top 1 ts)

(* The lattice operations skip re-indexing an operand already in the union
   order, narrowing skips its closure, and equality short-cuts physically
   equal operands; each must give what the plain computation gives. Two
   octagons from independent transfer sequences track different variables
   in different orders (or, now and then, the same ones); their join is in
   the union order, so the derived pairs reach every fast path, including
   narrow's skip on [narrow j j] and physically equal operands. *)
let prop_lattice_fast_paths =
  let open QCheck.Gen in
  let seq = list_size (int_range 1 10) gen_transfer in
  let gen = triple seq seq (list_size (int_range 0 3) gen_const) in
  let print (ta, tb, ths) =
    Printf.sprintf "a: %s\nb: %s\nthresholds: %s"
      (String.concat "; " (List.map transfer_to_string ta))
      (String.concat "; " (List.map transfer_to_string tb))
      (String.concat ", " (List.map Rat.to_string ths))
  in
  QCheck.Test.make ~name:"octagon: lattice fast paths match the plain computation" ~count:500
    (QCheck.make ~print gen)
    (fun (ta, tb, thresholds) ->
      let a = List.fold_left apply_transfer Oct.top ta in
      let b = List.fold_left apply_transfer Oct.top tb in
      let j = Oct.join a b in
      let operands =
        [ ("a", a, "b", b); ("b", b, "a", a); ("a", a, "a", a); ("j", j, "j", j);
          ("j", j, "a", a); ("a", a, "j", j); ("j", j, "b", b); ("j", j, "join b a", Oct.join b a);
          ("widen j b", Oct.widen ~thresholds j b, "j", j) ]
      in
      let same what (xn, _, yn, _) fast plain =
        if
          not
            (Oct.Reference.equal fast plain
            && Oct.tracked fast = Oct.tracked plain
            && Oct.constraints fast = Oct.constraints plain)
        then
          QCheck.Test.fail_reportf "%s %s %s: [%s] %s, plain [%s] %s" what xn yn
            (String.concat "," (Oct.tracked fast))
            (String.concat " && " (List.map Lin.cons_to_string (Oct.constraints fast)))
            (String.concat "," (Oct.tracked plain))
            (String.concat " && " (List.map Lin.cons_to_string (Oct.constraints plain)))
      in
      List.iter
        (fun ((xn, x, yn, y) as names) ->
          same "join" names (Oct.join x y) (Oct.Reference.join x y);
          same "widen" names (Oct.widen ~thresholds x y) (Oct.Reference.widen ~thresholds x y);
          same "narrow" names (Oct.narrow x y) (Oct.Reference.narrow x y);
          (* the loop fixpoint reads an unchanged narrowing off [==] *)
          let plain = Oct.Reference.narrow x y in
          let unchanged = Oct.tracked plain = Oct.tracked x && Oct.Reference.equal plain x in
          if Oct.narrow x y == x <> unchanged then
            QCheck.Test.fail_reportf "narrow %s %s returns its left operand: %b, unchanged: %b"
              xn yn (Oct.narrow x y == x) unchanged;
          if Oct.equal x y <> Oct.Reference.equal x y then
            QCheck.Test.fail_reportf "equal %s %s: %b, plain %b" xn yn (Oct.equal x y)
              (Oct.Reference.equal x y))
        operands;
      true)

(* random straight-line integer programs: every relational fact the product
   domain reports for the routine must hold of the concrete final state *)
let locals = [ "w"; "x"; "y"; "z" ]

(* c + k1*v1 + k2*v2 over the given variables, |k| <= 2 *)
let gen_rhs defined =
  let open QCheck.Gen in
  let term = map2 (fun k v -> (k, v)) (int_range (-2) 2) (oneofl defined) in
  map2
    (fun c ts ->
      List.fold_left
        (fun e (k, v) ->
          let t = Ast.Binop (Ast.Mul, Ast.Int (abs k), Ast.Var v) in
          Ast.Binop ((if k < 0 then Ast.Sub else Ast.Add), e, t))
        (Ast.Int c) ts)
    (int_range (-5) 5)
    (list_size (int_range 0 2) term)

let gen_straightline =
  let open QCheck.Gen in
  let rhs = gen_rhs in
  let all = "p" :: "q" :: locals in
  (* initialize every local, then a few more assignments, then one guarded
     branch so the assume/join transfers are exercised too *)
  let inits =
    List.fold_left
      (fun (acc, defined) v ->
        (map2 (fun ss e -> ss @ [ Ast.sassign v e ]) acc (rhs defined), v :: defined))
      (return [], [ "p"; "q" ]) locals
    |> fst
  in
  let extra = map2 (fun v e -> Ast.sassign v e) (oneofl locals) (rhs all) in
  let branch =
    let open Ast in
    map3
      (fun g t e -> if_ (Binop (Le, g, Int 0)) [ t ] [ e ])
      (rhs all) extra extra
  in
  map3
    (fun inits extras branch ->
      let decls =
        List.map (fun v -> { Ast.dname = v; dty = Ast.Tint; dims = [] }) all
      in
      { Ast.rname = "r"; rkind = Ast.Subroutine; params = [ "p"; "q" ];
        decls; body = inits @ extras @ [ branch ] })
    inits
    (QCheck.Gen.list_size (int_range 0 4) extra)
    branch

let prop_product_sound_on_exec =
  let open QCheck.Gen in
  let gen = triple gen_straightline (int_range (-6) 6) (int_range (-6) 6) in
  QCheck.Test.make ~name:"product domain sound vs concrete execution" ~count:250
    (QCheck.make
       ~print:(fun (r, p, q) ->
         Printf.sprintf "p=%d q=%d\n%s" p q (Pp_ast.routine_to_string r))
       gen)
    (fun (r, p, q) ->
      let src = Pp_ast.routine_to_string r in
      let c = checked src in
      let res =
        Pperf_exec.Interp.run_source ~machine:Pperf_machine.Machine.power1
          ~args:[ ("p", Pperf_exec.Interp.VInt p); ("q", Pperf_exec.Interp.VInt q) ]
          src
      in
      let valu x =
        match List.assoc_opt x res.Pperf_exec.Interp.scalars with
        | Some (Pperf_exec.Interp.VInt i) -> Rat.of_int i
        | _ -> QCheck.Test.fail_reportf "no final integer value for %s" x
      in
      let a = A.analyze ~domain:A.Product c in
      if not (R.satisfies valu (A.summary_rel a)) then
        QCheck.Test.fail_reportf "summary relation violated: %s"
          (String.concat "; " (List.map Lin.cons_to_string (A.relations a)));
      (* the exit box must also enclose every final value *)
      List.for_all
        (fun v ->
          match Interval.Env.find_opt v (A.exit_env a) with
          | None -> true
          | Some iv -> Interval.contains iv (valu v))
        ("p" :: "q" :: locals))

(* random loop nests over the same locals: DO loops nested up to three
   deep, each running from 1 to p, q or a constant from 0 to 3 (so some
   loops never run, some provably), with bodies of scalar assignments and
   guarded branches. Every relational fact of the summary and every
   exit-box enclosure, loop indices included, must hold of the concrete
   final state. *)
let indices = [ "i"; "j"; "k" ]

let gen_loops =
  let open QCheck.Gen in
  let all = "p" :: "q" :: locals @ indices in
  let assign = map2 Ast.sassign (oneofl locals) (gen_rhs all) in
  let branch =
    map3 (fun g t e -> Ast.if_ (Ast.Binop (Ast.Le, g, Ast.Int 0)) [ t ] [ e ]) (gen_rhs all) assign
      assign
  in
  let rec loop depth st =
    let hi = oneof [ oneofl [ Ast.Var "p"; Ast.Var "q" ]; map Ast.int (int_range 0 3) ] st in
    Ast.do_ (List.nth indices depth) (Ast.Int 1) hi (body (depth + 1) st)
  and body depth st =
    List.init (int_range 1 3 st) (fun _ ->
        match int_bound (if depth < List.length indices then 4 else 2) st with
        | 0 | 1 -> assign st
        | 2 -> branch st
        | _ -> loop depth st)
  in
  fun st ->
    let inits = List.map (fun v -> Ast.sassign v (gen_rhs [ "p"; "q" ] st)) locals in
    let decls = List.map (fun v -> { Ast.dname = v; dty = Ast.Tint; dims = [] }) all in
    { Ast.rname = "r"; rkind = Ast.Subroutine; params = [ "p"; "q" ]; decls;
      body = inits @ (loop 0 st :: body 0 st) }

(* the interpreter wraps integers silently: runs whose values leave
   +-2^40 anywhere are discarded, flagged by a check after every
   assignment (no assignment here can grow a value by 2^22 at once) *)
let overflow_guarded (r : Ast.routine) =
  let limit = 1 lsl 40 in
  let rec guard (s : Ast.stmt) =
    match s.kind with
    | Ast.Assign ({ base; _ }, _) ->
      let out =
        Ast.Binop
          ( Ast.Or,
            Ast.Binop (Ast.Gt, Ast.Var base, Ast.Int limit),
            Ast.Binop (Ast.Lt, Ast.Var base, Ast.Int (-limit)) )
      in
      [ s; Ast.if_ out [ Ast.sassign "ovf" (Ast.Int 1) ] [] ]
    | Ast.If (branches, els) ->
      [ { s with kind = Ast.If (List.map (fun (c, b) -> (c, List.concat_map guard b)) branches,
                                List.concat_map guard els) } ]
    | Ast.Do d -> [ { s with kind = Ast.Do { d with body = List.concat_map guard d.body } } ]
    | _ -> [ s ]
  in
  { r with
    decls = { Ast.dname = "ovf"; dty = Ast.Tint; dims = [] } :: r.decls;
    body = Ast.sassign "ovf" (Ast.Int 0) :: List.concat_map guard r.body }

let prop_product_sound_on_loops =
  let open QCheck.Gen in
  let gen = triple gen_loops (int_range (-1) 4) (int_range (-1) 4) in
  QCheck.Test.make ~name:"loop nests: product domain sound vs the interpreter" ~count:200
    (QCheck.make
       ~print:(fun (r, p, q) ->
         Printf.sprintf "p=%d q=%d\n%s" p q (Pp_ast.routine_to_string r))
       gen)
    (fun (r, p, q) ->
      let res =
        Pperf_exec.Interp.run_source ~machine:Pperf_machine.Machine.power1
          ~args:[ ("p", Pperf_exec.Interp.VInt p); ("q", Pperf_exec.Interp.VInt q) ]
          (Pp_ast.routine_to_string (overflow_guarded r))
      in
      let valu x =
        match List.assoc_opt x res.Pperf_exec.Interp.scalars with
        | Some (Pperf_exec.Interp.VInt i) -> Rat.of_int i
        | _ -> QCheck.Test.fail_reportf "no final integer value for %s" x
      in
      QCheck.assume (Rat.is_zero (valu "ovf"));
      let a = A.analyze ~domain:A.Product (checked (Pp_ast.routine_to_string r)) in
      if not (R.satisfies valu (A.summary_rel a)) then
        QCheck.Test.fail_reportf "summary relation violated: %s"
          (String.concat "; " (List.map Lin.cons_to_string (A.relations a)));
      List.iter
        (fun v ->
          match Interval.Env.find_opt v (A.exit_env a) with
          | Some iv when not (Interval.contains iv (valu v)) ->
            QCheck.Test.fail_reportf "exit box puts %s in %s, final value %s" v (s iv)
              (Rat.to_string (valu v))
          | _ -> ())
        ("p" :: "q" :: locals @ indices);
      true)

let qsuite name tests =
  ( name,
    List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])) tests )

let () =
  Alcotest.run "absint"
    [
      ( "loops",
        [
          Alcotest.test_case "constant bounds" `Quick test_constant_loop;
          Alcotest.test_case "symbolic bound" `Quick test_symbolic_loop;
          Alcotest.test_case "pinned bound" `Quick test_pinned_bound;
          Alcotest.test_case "zero trip" `Quick test_zero_trip;
          Alcotest.test_case "stepped" `Quick test_step_loop;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "accumulator widens" `Quick test_accumulator_widens;
          Alcotest.test_case "bounded accumulator" `Quick test_bounded_accumulator;
          Alcotest.test_case "reuse needs an unchanged head" `Quick
            test_reuse_needs_unchanged_head;
        ] );
      ( "refine",
        [
          Alcotest.test_case "eval expr" `Quick test_eval_expr;
          Alcotest.test_case "integer quotient" `Quick test_integer_quotient;
          Alcotest.test_case "decide cond" `Quick test_decide_cond;
          Alcotest.test_case "assume" `Quick test_assume_refines;
          Alcotest.test_case "branch join" `Quick test_branch_refinement_flows;
          Alcotest.test_case "summary hygiene" `Quick test_summary_excludes_input_refinement;
        ] );
      ( "relational",
        [
          Alcotest.test_case "i <= n guard" `Quick test_guard_i_le_n;
          Alcotest.test_case "m = 2*n coupling" `Quick test_affine_coupling;
          Alcotest.test_case "product decides compare" `Quick test_product_decides_compare;
        ] );
      qsuite "relational-props"
        [
          prop_closure_idempotent;
          prop_closure_sound;
          prop_transfers_strongly_closed;
          prop_lattice_fast_paths;
          prop_product_sound_on_exec;
          prop_product_sound_on_loops;
        ];
    ]
