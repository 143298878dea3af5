(* Tests for the PF front end: lexer, parser, pretty-printer round trips,
   type checking, analysis, and dependence testing. *)

open Pperf_lang

let parse_r src = Parser.parse_routine src
let check_r src = Typecheck.check_routine (parse_r src)

let jacobi_src = {|
subroutine jacobi(a, b, n)
  integer n, i, j
  real a(1000,1000), b(1000,1000)
  do i = 2, n-1
    do j = 2, n-1
      a(i,j) = 0.25 * (b(i-1,j) + b(i+1,j) + b(i,j-1) + b(i,j+1))
    end do
  end do
end
|}

(* ---- lexer ---- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "x = 1.5e-3 + n ** 2 .and. .true. ! comment\n" in
  let strs = List.map (fun (s : Lexer.spanned) -> Lexer.token_to_string s.tok) toks in
  Alcotest.(check (list string)) "token stream"
    [ "x"; "="; "0.0015"; "+"; "n"; "**"; "2"; ".and."; ".true."; "<newline>"; "<eof>" ]
    strs

let test_lexer_dotted_and_doubles () =
  match Lexer.tokenize "1.0d0 .le. 2.5" with
  | t0 :: t1 :: _ -> (
    (match t0.tok with
     | Lexer.REAL_LIT (1.0, Ast.Tdouble) -> ()
     | _ -> Alcotest.fail "expected double literal");
    match t1.tok with
    | Lexer.LE -> ()
    | t -> Alcotest.failf "expected .le., got %s" (Lexer.token_to_string t))
  | _ -> Alcotest.fail "expected at least two tokens"

(* every token is located at its first character, identifiers and
   literals included *)
let test_lexer_columns () =
  let at = List.map (fun (s : Lexer.spanned) -> (Lexer.token_to_string s.tok, Srcloc.to_string s.loc)) in
  Alcotest.(check (list (pair string string))) "token starts"
    [ ("total", "2:3"); ("=", "2:9"); ("12", "2:11"); ("+", "2:14"); ("0.5", "2:16");
      ("*", "2:19"); ("1500.", "2:21"); ("<=", "2:27"); ("n", "2:32"); ("<newline>", "2:33");
      ("<eof>", "3:1") ]
    (at (Lexer.tokenize "\n  total = 12 + .5 * 1.5e3 .le. n\n"))

let test_lexer_continuation () =
  let stmts = Parser.parse_stmts "x = 1 + &\n  2\n" in
  Alcotest.(check int) "one statement" 1 (List.length stmts)

let test_lexer_errors () =
  Alcotest.(check bool) "bad char raises" true
    (try ignore (Lexer.tokenize "x = @") ; false with Lexer.Error _ -> true);
  Alcotest.(check bool) "bad dotted op" true
    (try ignore (Lexer.tokenize "a .foo. b") ; false with Lexer.Error _ -> true)

(* ---- parser ---- *)

let test_parse_structure () =
  let r = parse_r jacobi_src in
  Alcotest.(check string) "name" "jacobi" r.rname;
  Alcotest.(check (list string)) "params" [ "a"; "b"; "n" ] r.params;
  Alcotest.(check int) "decls" 5 (List.length r.decls);
  match r.body with
  | [ { kind = Ast.Do d; _ } ] ->
    Alcotest.(check string) "outer var" "i" d.var;
    (match d.body with
     | [ { kind = Ast.Do d2; _ } ] -> Alcotest.(check string) "inner var" "j" d2.var
     | _ -> Alcotest.fail "inner loop expected")
  | _ -> Alcotest.fail "outer loop expected"

let test_parse_if_chain () =
  let stmts = Parser.parse_stmts {|
if (x > 1.0) then
  y = 1.0
else if (x > 0.0) then
  y = 2.0
else
  y = 3.0
end if
|} in
  match stmts with
  | [ { kind = Ast.If (branches, els); _ } ] ->
    Alcotest.(check int) "two branches" 2 (List.length branches);
    Alcotest.(check int) "else body" 1 (List.length els)
  | _ -> Alcotest.fail "if expected"

let test_parse_logical_if () =
  match Parser.parse_stmts "if (x > 0.0) y = 1.0\n" with
  | [ { kind = Ast.If ([ (_, [ _ ]) ], []); _ } ] -> ()
  | _ -> Alcotest.fail "logical if expected"

let test_parse_precedence () =
  let e = Parser.parse_expr "a + b * c ** 2" in
  (match e with
   | Ast.Binop (Ast.Add, Ast.Var "a", Ast.Binop (Ast.Mul, Ast.Var "b", Ast.Binop (Ast.Pow, Ast.Var "c", Ast.Int 2))) -> ()
   | _ -> Alcotest.fail "precedence wrong");
  (* unary minus and subtraction associativity *)
  (match Parser.parse_expr "-a - b - c" with
   | Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, Ast.Unop (Ast.Neg, _), _), _) -> ()
   | _ -> Alcotest.fail "sub associativity wrong")

let test_parse_errors () =
  let bad = [ "do i = 1\n  x = 1\nend do\n"; "if (x then\n"; "x = + * 3\n" ] in
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects: " ^ src) true
        (try ignore (Parser.parse_stmts src); false with Parser.Error _ -> true))
    bad

let test_parse_program_multi () =
  let p = Parser.parse_program {|
subroutine a
  x = 1.0
end

real function f(y)
  f = y * 2.0
end
|} in
  Alcotest.(check int) "two units" 2 (List.length p);
  match List.nth p 1 with
  | { rkind = Ast.Function Ast.Treal; rname = "f"; _ } -> ()
  | _ -> Alcotest.fail "function unit expected"

(* round trip: parse -> print -> parse = same AST *)
let roundtrip_srcs =
  [ jacobi_src;
    "subroutine s(n)\n  integer n, i\n  real x(100)\n  do i = 1, n, 2\n    if (i <= 50) then\n      x(i) = 1.0\n    else\n      x(i) = 2.0\n    end if\n  end do\nend\n";
    "subroutine t\n  integer k\n  k = mod(7, 3) + max(1, 2, 3)\n  call helper(k)\n  return\nend\n";
  ]

let test_roundtrip () =
  List.iter
    (fun src ->
      let r1 = (check_r src).routine in
      let printed = Pp_ast.routine_to_string r1 in
      let r2 = (Typecheck.check_routine (Parser.parse_routine printed)).routine in
      Alcotest.(check bool) "roundtrip equal" true (Ast.equal_routine r1 r2))
    roundtrip_srcs

(* ---- typecheck ---- *)

let test_implicit_typing () =
  let c = check_r "subroutine s(n, x)\n  y = x + 1.0\n  m = n + 1\nend\n" in
  (match Typecheck.lookup c.symbols "n" with
   | Some { ty = Ast.Tint; _ } -> ()
   | _ -> Alcotest.fail "n implicit integer");
  (match Typecheck.lookup c.symbols "x" with
   | Some { ty = Ast.Treal; _ } -> ()
   | _ -> Alcotest.fail "x implicit real")

let test_index_call_resolution () =
  (* f is not declared as an array: f(x) must resolve to a call *)
  let c = check_r "subroutine s(x)\n  real x, y\n  y = f(x)\nend\n" in
  (match c.routine.body with
   | [ { kind = Ast.Assign (_, Ast.Call ("f", _)); _ } ] -> ()
   | _ -> Alcotest.fail "expected call resolution");
  (* declared array stays an index *)
  let c2 = check_r "subroutine s(x)\n  real x(10), y\n  y = x(3)\nend\n" in
  (match c2.routine.body with
   | [ { kind = Ast.Assign (_, Ast.Index ("x", _)); _ } ] -> ()
   | _ -> Alcotest.fail "expected index kept")

let test_type_errors () =
  let bad =
    [ "subroutine s\n  real x(10)\n  y = x(1, 2)\nend\n" (* wrong arity *);
      "subroutine s\n  logical b\n  b = 1 + .true.\nend\n" (* logical in arithmetic *);
      "subroutine s\n  real x\n  y = x(1)\nend\n" (* scalar subscripted *);
      "subroutine s\n  integer i\n  do i = 1.0, 5\n  end do\nend\n" (* real bound *);
    ]
  in
  List.iter
    (fun src ->
      Alcotest.(check bool) "rejected" true
        (try ignore (check_r src); false with Typecheck.Type_error _ -> true))
    bad

let test_array_extent () =
  let c = check_r "subroutine s(n)\n  integer n\n  real a(10, n), b(0:n)\nend\n" in
  (match Typecheck.lookup c.symbols "a" with
   | Some sym ->
     let exts = List.map Pperf_symbolic.Poly.to_string (Typecheck.array_extent sym) in
     Alcotest.(check (list string)) "a extents" [ "10"; "n" ] exts
   | None -> Alcotest.fail "a missing");
  (match Typecheck.lookup c.symbols "b" with
   | Some sym ->
     let exts = List.map Pperf_symbolic.Poly.to_string (Typecheck.array_extent sym) in
     Alcotest.(check (list string)) "b extents" [ "n + 1" ] exts
   | None -> Alcotest.fail "b missing")

(* ---- sym_expr ---- *)

let test_sym_expr () =
  let p e = Option.map Pperf_symbolic.Poly.to_string (Sym_expr.to_poly (Parser.parse_expr e)) in
  Alcotest.(check (option string)) "affine" (Some "2*i + n - 1") (p "2*i + n - 1");
  Alcotest.(check (option string)) "product" (Some "m*n") (p "n * m");
  Alcotest.(check (option string)) "rational div" (Some "1/2*n") (p "n / 2");
  Alcotest.(check (option string)) "symbolic div rejected" None (p "n / m");
  Alcotest.(check (option string)) "call rejected" None (p "f(n)");
  let tc lo hi step =
    Option.map Pperf_symbolic.Poly.to_string
      (Sym_expr.trip_count ~lo:(Parser.parse_expr lo) ~hi:(Parser.parse_expr hi)
         ~step:(Option.map Parser.parse_expr step))
  in
  Alcotest.(check (option string)) "trip n" (Some "n") (tc "1" "n" None);
  Alcotest.(check (option string)) "trip step 2" (Some "1/2*n + 1/2") (tc "1" "n" (Some "2"));
  Alcotest.(check (option string)) "trip sym step" None (tc "1" "n" (Some "m"))

(* ---- analysis ---- *)

let test_analysis_refs () =
  let c = check_r jacobi_src in
  let refs = Analysis.array_refs c.routine.body in
  Alcotest.(check int) "5 refs" 5 (List.length refs);
  let writes = List.filter (fun (r : Analysis.array_ref) -> r.is_write) refs in
  Alcotest.(check int) "1 write" 1 (List.length writes);
  Alcotest.(check string) "write to a" "a" (List.hd writes).array;
  Alcotest.(check int) "loop depth" 2 (List.length (List.hd writes).loops)

let test_analysis_sets () =
  let body = (check_r "subroutine s(n, k)\n  integer n, k, i\n  real x(100), s1\n  s1 = 0.0\n  do i = 1, n\n    s1 = s1 + x(i) * k\n  end do\nend\n").routine.body in
  let assigned = Analysis.assigned_vars body in
  Alcotest.(check bool) "s1 assigned" true (Analysis.SSet.mem "s1" assigned);
  Alcotest.(check bool) "i assigned" true (Analysis.SSet.mem "i" assigned);
  Alcotest.(check bool) "x not assigned" false (Analysis.SSet.mem "x" assigned);
  let used = Analysis.used_vars body in
  Alcotest.(check bool) "k used" true (Analysis.SSet.mem "k" used);
  Alcotest.(check bool) "x used" true (Analysis.SSet.mem "x" used)

let test_innermost () =
  let c = check_r jacobi_src in
  match Analysis.innermost_bodies c.routine.body with
  | [ (loops, body) ] ->
    Alcotest.(check int) "2 loops" 2 (List.length loops);
    Alcotest.(check int) "1 stmt" 1 (List.length body)
  | l -> Alcotest.failf "expected 1 innermost body, got %d" (List.length l)

let test_perfect_nest () =
  let c = check_r jacobi_src in
  match c.routine.body with
  | [ { kind = Ast.Do d; _ } ] ->
    let loops, body = Analysis.perfect_nest d in
    Alcotest.(check int) "depth 2" 2 (List.length loops);
    Alcotest.(check int) "body 1" 1 (List.length body)
  | _ -> Alcotest.fail "loop expected"

(* ---- dependence ---- *)

let deps_of src = Depend.dependences_in (Parser.parse_stmts src)

let test_dep_flow () =
  (* a(i) = a(i-1): flow dependence carried with direction < *)
  match deps_of "do i = 2, 100\n  a(i) = a(i-1) + 1.0\nend do\n" with
  | [ d ] ->
    Alcotest.(check bool) "flow" true (d.kind = Depend.Flow);
    Alcotest.(check (list string)) "dirs" [ "<" ]
      (List.map Depend.direction_to_string d.directions)
  | l -> Alcotest.failf "expected 1 dep, got %d" (List.length l)

let test_dep_anti () =
  match deps_of "do i = 1, 99\n  a(i) = a(i+1) + 1.0\nend do\n" with
  | [ d ] ->
    Alcotest.(check bool) "anti" true (d.kind = Depend.Anti);
    Alcotest.(check (list string)) "dirs" [ "<" ]
      (List.map Depend.direction_to_string d.directions)
  | l -> Alcotest.failf "expected 1 dep, got %d" (List.length l)

let test_dep_gcd_independent () =
  Alcotest.(check int) "2i vs 2i+1 independent" 0
    (List.length (deps_of "do i = 1, 100\n  a(2*i) = a(2*i+1) + 1.0\nend do\n"))

let test_dep_banerjee_independent () =
  (* distance 200 exceeds the iteration range: independent *)
  Alcotest.(check int) "far offset independent" 0
    (List.length (deps_of "do i = 1, 100\n  a(i) = a(i+200) + 1.0\nend do\n"))

let test_dep_jacobi_none () =
  let c = check_r jacobi_src in
  Alcotest.(check int) "jacobi carries nothing" 0
    (List.length (Depend.dependences_in c.routine.body))

let test_interchange_legal () =
  let matmul = "do i = 1, n\n  do j = 1, n\n    do k2 = 1, n\n      c(i,j) = c(i,j) + a(i,k2) * b(k2,j)\n    end do\n  end do\nend do\n" in
  (match Parser.parse_stmts matmul with
   | [ { kind = Ast.Do d; _ } ] ->
     Alcotest.(check bool) "matmul interchangeable" true (Depend.interchange_legal d)
   | _ -> Alcotest.fail "parse");
  (* classic illegal case: (<, >) direction *)
  let skewed = "do i = 2, 100\n  do j = 1, 99\n    a(i,j) = a(i-1,j+1) + 1.0\n  end do\nend do\n" in
  match Parser.parse_stmts skewed with
  | [ { kind = Ast.Do d; _ } ] ->
    Alcotest.(check bool) "skewed not interchangeable" false (Depend.interchange_legal d)
  | _ -> Alcotest.fail "parse"

let test_carried () =
  match Parser.parse_stmts "do i = 2, 100\n  a(i) = a(i-1) + 1.0\nend do\n" with
  | [ { kind = Ast.Do d; _ } ] ->
    Alcotest.(check int) "one carried dep" 1 (List.length (Depend.carried_dependences d))
  | _ -> Alcotest.fail "parse"

let test_classify_total () =
  (* read-read pairs are Input, not a crash; dependences_in filters them *)
  let refs = Analysis.array_refs (Parser.parse_stmts "x = a(i) + a(i)\n") in
  match refs with
  | [ r1; r2 ] ->
    Alcotest.(check string) "read-read is input" "input"
      (Depend.kind_to_string (Depend.classify r1 r2))
  | l -> Alcotest.failf "expected 2 refs, got %d" (List.length l)

(* ---- range-strengthened dependence tests ---- *)

let env_of l =
  Pperf_symbolic.Interval.Env.of_list
    (List.map (fun (v, lo, hi) -> (v, Pperf_symbolic.Interval.of_ints lo hi)) l)

let test_env_symbolic_bounds () =
  (* a(i) vs a(i+200) under do i = 1, n: dependent for large n, but the
     range n <= 100 lets Banerjee disprove it *)
  let src = "do i = 1, n\n  a(i) = a(i + 200) + 1.0\nend do\n" in
  let stmts = Parser.parse_stmts src in
  Alcotest.(check int) "unknown n: dependent" 1
    (List.length (Depend.dependences_in stmts));
  Alcotest.(check int) "n in [1,100]: independent" 0
    (List.length (Depend.dependences_in ~env:(env_of [ ("n", 1, 100) ]) stmts))

let test_env_pinned_offset () =
  (* a(i) vs a(i+m): a symbolic distance pinned to a point by the env *)
  let src = "do i = 1, 2\n  a(i) = a(i + m) + 1.0\nend do\n" in
  let stmts = Parser.parse_stmts src in
  Alcotest.(check bool) "unknown m: dependent" true
    (Depend.dependences_in stmts <> []);
  Alcotest.(check int) "m = 2: disjoint" 0
    (List.length (Depend.dependences_in ~env:(env_of [ ("m", 2, 2) ]) stmts))

let test_env_disjoint_ranges () =
  (* writes to a(i) with i <= 50, reads a(j) with j >= 51: the per-dimension
     subscript ranges cannot intersect (the loop bounds alone prove it, but
     only the range-aware path looks at them) *)
  let src =
    "do i = 1, 50\n  a(i) = 1.0\nend do\ndo j = 51, 100\n  x = a(j) + 1.0\nend do\n"
  in
  let stmts = Parser.parse_stmts src in
  Alcotest.(check bool) "range-free: dependent by default" true
    (Depend.dependences_in stmts <> []);
  Alcotest.(check int) "disjoint index ranges: independent" 0
    (List.length (Depend.dependences_in ~env:(env_of []) stmts))

(* conservative fallbacks of the direction-vector refinement *)

let dirs_of src =
  let refs = Array.to_list (Analysis.nest_refs (Analysis.nests (Parser.parse_stmts src))) in
  let w = List.find (fun e -> (Analysis.entry_ref e).is_write) refs in
  let r = List.find (fun e -> not (Analysis.entry_ref e).is_write) refs in
  Depend.directions w r

let test_dirs_non_affine () =
  (* quadratic subscripts defeat GCD/Banerjee: every vector must survive *)
  let ds = dirs_of "do i = 1, 100\n  x(i*i) = x(i*i - 1) + 1.0\nend do\n" in
  Alcotest.(check int) "all three vectors survive" 3 (List.length ds);
  List.iter (fun v -> Alcotest.(check int) "depth 1" 1 (List.length v)) ds

let test_dirs_negative_step () =
  (* descending loop: the constant offset disproves (=), and the tests keep
     both carried directions rather than guessing the traversal order *)
  let ds = dirs_of "do i = 100, 2, -1\n  x(i) = x(i - 1) + 1.0\nend do\n" in
  Alcotest.(check bool) "dependent" true (ds <> []);
  Alcotest.(check bool) "(=) disproved" false (List.mem [ Depend.Eq ] ds)

let test_dirs_coupled () =
  (* coupled subscript a(i+j): subscript-wise testing is conservative but
     must keep the real dependence and drop the (=,=) self vector *)
  let ds =
    dirs_of
      "do i = 1, 50\n  do j = 1, 50\n    a(i + j) = a(i + j - 1) + 1.0\n  end do\nend do\n"
  in
  Alcotest.(check bool) "dependent" true (ds <> []);
  Alcotest.(check bool) "(=,=) excluded" false (List.mem [ Depend.Eq; Depend.Eq ] ds)


(* qcheck: random ASTs survive print -> parse -> resolve round trips *)
let gen_expr_leaf =
  QCheck.Gen.oneof
    [ QCheck.Gen.map (fun i -> Ast.Int i) (QCheck.Gen.int_range 0 99);
      QCheck.Gen.map (fun f -> Ast.real (float_of_int f /. 4.0)) (QCheck.Gen.int_range 0 40);
      QCheck.Gen.oneofl [ Ast.Var "x"; Ast.Var "y"; Ast.Var "i"; Ast.Var "n" ];
      QCheck.Gen.map (fun s -> Ast.Index ("arr", [ s ]))
        (QCheck.Gen.oneofl [ Ast.Var "i"; Ast.Int 1 ]);
    ]

let rec gen_expr depth st =
  let open QCheck.Gen in
  if depth = 0 then gen_expr_leaf st
  else
    (frequency
       [ (2, gen_expr_leaf);
         (3,
          map3 (fun op a b -> Ast.Binop (op, a, b))
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ])
            (gen_expr (depth - 1))
            (gen_expr (depth - 1)));
         (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (gen_expr (depth - 1)));
         (1, map (fun a -> Ast.Call ("sqrt", [ a ])) (gen_expr (depth - 1)));
       ])
      st

let rec gen_stmt depth st =
  let open QCheck.Gen in
  if depth = 0 then
    map (fun e -> Ast.sassign "y" e) (gen_expr 2) st
  else
    (frequency
       [ (4, map (fun e -> Ast.sassign "y" e) (gen_expr 2));
         (2, map (fun e -> Ast.assign "arr" [ Ast.Var "i" ] e) (gen_expr 2));
         (1,
          map2
            (fun hi body -> Ast.do_ "i" (Ast.int 1) hi body)
            (oneofl [ Ast.Var "n"; Ast.Int 10 ])
            (list_size (int_range 1 3) (gen_stmt (depth - 1))));
         (1,
          map3
            (fun c t e -> Ast.if_ (Ast.Binop (Ast.Lt, c, Ast.real 1.0)) t e)
            (gen_expr 1)
            (list_size (int_range 1 2) (gen_stmt (depth - 1)))
            (list_size (int_range 0 2) (gen_stmt (depth - 1))));
       ])
      st

let gen_routine =
  QCheck.Gen.map
    (fun body ->
      {
        Ast.rname = "r";
        rkind = Ast.Subroutine;
        params = [ "x"; "y"; "n" ];
        decls =
          [ { Ast.dname = "x"; dty = Ast.Treal; dims = [] };
            { Ast.dname = "y"; dty = Ast.Treal; dims = [] };
            { Ast.dname = "n"; dty = Ast.Tint; dims = [] };
            { Ast.dname = "i"; dty = Ast.Tint; dims = [] };
            { Ast.dname = "arr"; dty = Ast.Treal;
              dims = [ { Ast.dim_lo = None; dim_hi = Ast.Int 100 } ] };
          ];
        body;
      })
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 5) (gen_stmt 2))

let prop_roundtrip_random =
  QCheck.Test.make ~name:"random AST print/parse round trip" ~count:300
    (QCheck.make ~print:Pp_ast.routine_to_string gen_routine)
    (fun r ->
      let checked = Typecheck.check_routine r in
      let printed = Pp_ast.routine_to_string checked.routine in
      let reparsed = (Typecheck.check_routine (Parser.parse_routine printed)).routine in
      Ast.equal_routine checked.routine reparsed)

let prop_prediction_total_random =
  (* every random program gets a well-formed prediction whose value at
     n = 10 is non-negative *)
  QCheck.Test.make ~name:"random programs predict cleanly" ~count:150
    (QCheck.make ~print:Pp_ast.routine_to_string gen_routine)
    (fun r ->
      let checked = Typecheck.check_routine r in
      let p =
        Pperf_core.Aggregate.routine ~machine:Pperf_machine.Machine.power1 checked
      in
      let v =
        Pperf_symbolic.Poly.eval_float
          (fun x -> if String.length x > 0 && x.[0] = 'p' then 0.5 else 10.0)
          (Pperf_core.Perf_expr.total p.cost)
      in
      v >= 0.0)


(* DESIGN §8: dependence-test soundness against brute-force enumeration of
   small iteration spaces. The tests may over-approximate (claim a
   dependence that does not exist) but must never miss a real one. *)
let prop_dependence_sound =
  let gen =
    QCheck.Gen.(
      map
        (fun (a1, c1, a2, c2, lo, w) -> (a1, c1, a2, c2, lo, lo + w))
        (tup6 (int_range (-3) 3) (int_range (-4) 8) (int_range (-3) 3) (int_range (-4) 8)
           (int_range 1 4) (int_range 1 8)))
  in
  QCheck.Test.make ~name:"subscript tests never miss a real dependence" ~count:500
    (QCheck.make
       ~print:(fun (a1, c1, a2, c2, lo, hi) ->
         Printf.sprintf "x(%d*i+%d) = x(%d*i+%d), i in [%d,%d]" a1 c1 a2 c2 lo hi)
       gen)
    (fun (a1, c1, a2, c2, lo, hi) ->
      let src =
        Printf.sprintf
          "do i = %d, %d\n  x(%d*i + (%d) + 20) = x(%d*i + (%d) + 20) + 1.0\nend do\n" lo hi
          a1 c1 a2 c2
      in
      let stmts = Parser.parse_stmts src in
      let deps = Depend.dependences_in stmts in
      (* brute force: do two (possibly different) iterations touch the same
         element with at least one write? exclude the same-access case *)
      let really_dependent =
        List.exists
          (fun i1 ->
            List.exists
              (fun i2 ->
                let w = (a1 * i1) + c1 and r = (a2 * i2) + c2 in
                w = r && not (i1 = i2 && a1 = a2 && c1 = c2))
              (List.init (hi - lo + 1) (fun k -> lo + k)))
          (List.init (hi - lo + 1) (fun k -> lo + k))
        (* write-write overlap across iterations: same write location twice *)
        || (a1 = 0 && hi > lo)
      in
      (* soundness: real dependence must be reported *)
      (not really_dependent) || deps <> [])

(* The nest table's views are exact: every view it derives for a window of
   a reference's loops, whether folded from the full view or computed over
   the window, equals Sym_expr.affine_in over the window's variables; and
   Sym_expr.affine_in agrees with the reference extraction below, one
   variable at a time through Poly.coeffs_in. Subscripts mix affine,
   nonlinear, symbolic-coefficient, power and real-constant terms, and
   loops may shadow an enclosing index (do i inside do i), where folding
   the outer terms into the residue would be wrong. *)
let reference_affine_in vars e =
  let module Poly = Pperf_symbolic.Poly in
  let module Rat = Pperf_num.Rat in
  match Sym_expr.to_poly e with
  | None -> None
  | Some p ->
    let rec extract coeffs rest = function
      | [] -> Some (List.rev coeffs, rest)
      | v :: more -> (
        let cpolys = Poly.coeffs_in v rest in
        if not (List.for_all (fun (k, _) -> k = 0 || k = 1) cpolys) then None
        else
          let c1 = Option.value ~default:Poly.zero (List.assoc_opt 1 cpolys) in
          match Poly.to_const c1 with
          | Some c when Rat.is_integer c -> (
            match Rat.to_int c with
            | Some ci -> extract (ci :: coeffs) (Poly.sub rest (Poly.scale c (Poly.var v))) more
            | None -> None)
          | _ -> None)
    in
    extract [] p vars

let gen_nest_source =
  let open QCheck.Gen in
  let index = oneofl [ "i"; "j"; "k" ] in
  let atom = oneof [ index; oneofl [ "n"; "m"; "1"; "2"; "3"; "4.0"; "2.5" ] ] in
  let rec sub depth =
    if depth = 0 then atom
    else
      frequency
        [ (3, atom);
          (2, map2 (Printf.sprintf "%s + %s") (sub (depth - 1)) (sub (depth - 1)));
          (1, map2 (Printf.sprintf "%s - %s") (sub (depth - 1)) (sub (depth - 1)));
          (2, map2 (Printf.sprintf "%s*%s") (sub (depth - 1)) (sub (depth - 1)));
          (1, map (Printf.sprintf "(%s)**2") (sub (depth - 1)));
          (1, map (Printf.sprintf "(%s)/2") (sub (depth - 1))) ]
  in
  let reference =
    map2
      (fun a subs -> Printf.sprintf "%s(%s)" a (String.concat ", " subs))
      (oneofl [ "a"; "b" ])
      (list_size (int_range 1 2) (sub 2))
  in
  let assign = map2 (Printf.sprintf "%s = %s + 1.0") reference reference in
  let rec stmts depth =
    list_size (int_range 1 2)
      (if depth = 0 then assign
       else
         frequency
           [ (1, assign);
             ( 1,
               map3
                 (fun c t e -> Printf.sprintf "if (%s > 0.0) then\n%s\nelse\n%s\nend if" c t e)
                 reference (stmts (depth - 1)) (stmts (depth - 1)) );
             ( 2,
               map3
                 (fun v hi body -> Printf.sprintf "do %s = 1, %s\n%s\nend do" v hi body)
                 index
                 (oneofl [ "n"; "n"; "a(1)"; "b(i + 1)" ])
                 (stmts (depth - 1)) ) ])
    |> map (String.concat "\n")
  in
  map (fun body -> body ^ "\n") (stmts 3)

let prop_table_views_exact =
  QCheck.Test.make ~name:"table views = affine_in over each window" ~count:300
    (QCheck.make ~print:Fun.id gen_nest_source)
    (fun src ->
      let same =
        List.equal
          (Option.equal (fun (c1, r1) (c2, r2) ->
               List.equal Int.equal c1 c2 && Pperf_symbolic.Poly.equal r1 r2))
      in
      let table = Analysis.nests (Parser.parse_stmts src) in
      Array.to_list (Analysis.nest_refs table)
      |> List.mapi (fun n e ->
             let r = Analysis.entry_ref e in
             let vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) r.loops in
             let depth = List.length vars in
             let windows =
               List.concat_map
                 (fun from -> List.init (depth - from + 1) (fun len -> (from, len)))
                 (List.init (depth + 1) Fun.id)
             in
             (* alternate the order the windows are asked in, so folded and
                direct views each come first somewhere *)
             List.for_all
               (fun (from, len) ->
                 let wvars = List.filteri (fun k _ -> k >= from && k < from + len) vars in
                 let expected = List.map (Sym_expr.affine_in wvars) r.subs in
                 same (Analysis.affine_view e ~from ~len) expected
                 && same expected (List.map (reference_affine_in wvars) r.subs))
               (if n mod 2 = 0 then windows else List.rev windows))
      |> List.for_all Fun.id)

(* Reading a routine's table gives every fragment the dependences the
   fragment's own table gives: each loop (the lint and search fragments)
   and each innermost nest rebuilt around its body (the bound analysis's
   fragment, an [if]'s branch when its loop's body holds a [do] beside
   the [if]); and an innermost body's references are its own (the memory
   model's), on the random nests above. *)
let prop_table_fragments =
  QCheck.Test.make ~name:"table dependences = own-table dependences" ~count:300
    (QCheck.make ~print:Fun.id gen_nest_source)
    (fun src ->
      let stmts = Parser.parse_stmts src in
      let nests = Analysis.nests stmts in
      let key (d : Depend.dependence) =
        (d.kind, d.directions, d.src.array, d.src.subs, d.dst.array, d.dst.subs)
      in
      let same refs frag =
        List.map key (Depend.dependences_among refs) = List.map key (Depend.dependences_in frag)
      in
      let spelled (r : Analysis.array_ref) = (r.array, r.subs, r.is_write, r.at) in
      let loops = ref [] in
      Ast.iter_stmts (fun s -> match s.Ast.kind with Ast.Do d -> loops := d :: !loops | _ -> ()) stmts;
      List.for_all (fun d -> same (Analysis.loop_refs nests d) [ Ast.mk (Ast.Do d) ]) !loops
      && List.for_all
           (fun (loops, d, body) ->
             same (Analysis.innermost_refs nests d body) (Analysis.wrap_nest loops body)
             && List.map (fun e -> spelled (Analysis.entry_ref e)) (Array.to_list (Analysis.body_refs nests body))
                = List.map spelled (Analysis.array_refs body))
           (Analysis.innermost_nests stmts))

(* Front-end totality: a sample a few bytes away from its committed text
   (one to four replacements, insertions or deletions, drawn from PF's
   character set) parses and type-checks, or fails with Parser.Error or
   Typecheck.Type_error. Any other exception fails the property. *)
let samples =
  lazy
    (let dir = List.find Sys.file_exists [ "../samples"; "samples" ] in
     Sys.readdir dir |> Array.to_list
     |> List.filter (fun f -> Filename.check_suffix f ".pf")
     |> List.sort compare
     |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let pf_chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ \t\n.+-*/=<>(),:;&!"

let gen_mutated_sample st =
  let open QCheck.Gen in
  let edit s =
    let n = String.length s in
    let i = int_bound n st in
    let c = String.make 1 pf_chars.[int_bound (String.length pf_chars - 1) st] in
    let before = String.sub s 0 i and after k = String.sub s (i + k) (n - i - k) in
    match int_bound 2 st with
    | 0 when i < n -> before ^ c ^ after 1
    | 1 -> before ^ c ^ after 0
    | _ when i < n -> before ^ after 1
    | _ -> s ^ c
  in
  let rec edits k s = if k = 0 then s else edits (k - 1) (edit s) in
  let sources = Lazy.force samples in
  edits (int_range 1 4 st) (List.nth sources (int_bound (List.length sources - 1) st))

let prop_front_end_total =
  QCheck.Test.make ~name:"mutated samples parse or fail with a parse or type error" ~count:2000
    (QCheck.make ~print:Fun.id gen_mutated_sample)
    (fun src ->
      match Typecheck.check_program (Parser.parse_program src) with
      | _ -> true
      | exception (Parser.Error _ | Typecheck.Type_error _) -> true)

let qsuite name tests =
  ( name,
    List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |])) tests )

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "dotted/doubles" `Quick test_lexer_dotted_and_doubles;
          Alcotest.test_case "continuation" `Quick test_lexer_continuation;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "columns" `Quick test_lexer_columns;
        ] );
      ( "parser",
        [
          Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "if chain" `Quick test_parse_if_chain;
          Alcotest.test_case "logical if" `Quick test_parse_logical_if;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "multi unit" `Quick test_parse_program_multi;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "implicit typing" `Quick test_implicit_typing;
          Alcotest.test_case "index/call resolution" `Quick test_index_call_resolution;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "array extents" `Quick test_array_extent;
        ] );
      ( "sym_expr", [ Alcotest.test_case "conversion" `Quick test_sym_expr ] );
      ( "analysis",
        [
          Alcotest.test_case "array refs" `Quick test_analysis_refs;
          Alcotest.test_case "assigned/used" `Quick test_analysis_sets;
          Alcotest.test_case "innermost bodies" `Quick test_innermost;
          Alcotest.test_case "perfect nest" `Quick test_perfect_nest;
        ] );
      qsuite "random-props" [ prop_roundtrip_random; prop_prediction_total_random ];
      qsuite "depend-props" [ prop_dependence_sound; prop_table_views_exact; prop_table_fragments ];
      qsuite "fuzz-props" [ prop_front_end_total ];
      ( "depend",
        [
          Alcotest.test_case "flow <" `Quick test_dep_flow;
          Alcotest.test_case "anti" `Quick test_dep_anti;
          Alcotest.test_case "gcd independent" `Quick test_dep_gcd_independent;
          Alcotest.test_case "banerjee independent" `Quick test_dep_banerjee_independent;
          Alcotest.test_case "jacobi none" `Quick test_dep_jacobi_none;
          Alcotest.test_case "interchange legality" `Quick test_interchange_legal;
          Alcotest.test_case "carried" `Quick test_carried;
          Alcotest.test_case "classify total" `Quick test_classify_total;
          Alcotest.test_case "env symbolic bounds" `Quick test_env_symbolic_bounds;
          Alcotest.test_case "env pinned offset" `Quick test_env_pinned_offset;
          Alcotest.test_case "env disjoint ranges" `Quick test_env_disjoint_ranges;
          Alcotest.test_case "directions non-affine" `Quick test_dirs_non_affine;
          Alcotest.test_case "directions negative step" `Quick test_dirs_negative_step;
          Alcotest.test_case "directions coupled" `Quick test_dirs_coupled;
        ] );
    ]
