open Pperf_num
open Pperf_symbolic

type direction = Lt | Eq | Gt

type dep_kind = Flow | Anti | Output | Input

type dependence = {
  kind : dep_kind;
  directions : direction list;
  src : Analysis.array_ref;
  dst : Analysis.array_ref;
}

(* internal: 'any' extends direction during hierarchical refinement *)
type dir_or_any = D of direction | Any

let direction_to_string = function Lt -> "<" | Eq -> "=" | Gt -> ">"

(* constant loop bounds when available; with a range environment, symbolic
   bounds collapse to sound integer enclosures (floor the lower end, ceil
   the upper), e.g. [do i = 1, m] with m in [2,2] gives (1, 2) *)
let const_bounds ?env ?oracle (l : Analysis.loop_ctx) =
  let poly_of e = Sym_expr.to_poly e in
  let const e =
    match poly_of e with
    | Some p -> (match Poly.to_const p with Some c -> Rat.to_int c | None -> None)
    | None -> None
  in
  let enclose p =
    let base =
      match env with Some env -> Interval.eval_poly env p | None -> Interval.full
    in
    match oracle with
    | Some f -> (
      match Interval.intersect base (f p) with Some m -> m | None -> base)
    | None -> base
  in
  let iv_bound round pick e =
    match poly_of e with
    | Some p -> (
      match pick (enclose p) with
      | Interval.Fin r -> Bigint.to_int (round r)
      | _ -> None)
    | None -> None
  in
  let step_ok = match l.lstep with None -> true | Some (Ast.Int 1) -> true | _ -> false in
  if not step_ok then None
  else (
    let lo =
      match const l.llo with
      | Some lo -> Some lo
      | None -> iv_bound Rat.floor Interval.lo l.llo
    in
    let hi =
      match const l.lhi with
      | Some hi -> Some hi
      | None -> iv_bound Rat.ceil Interval.hi l.lhi
    in
    match (lo, hi) with Some lo, Some hi when lo <= hi -> Some (lo, hi) | _ -> None)

(* one subscript pair viewed affinely in the common loop indices:
   (a_coeffs, b_coeffs, diff) with  sum a_j x_j - sum b_j y_j = diff
   (diff constant); None = not analyzable -> assume dependent *)
let subscript_pair ?env ?oracle common (f : Ast.expr) (g : Ast.expr) =
  let vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) common in
  match (Sym_expr.affine_in vars f, Sym_expr.affine_in vars g) with
  | Some (fa, frest), Some (ga, grest) ->
    let diff = Poly.sub grest frest in
    let diff_const =
      match Poly.to_const diff with
      | Some c -> Some c
      | None -> (
        (* a range environment may pin the symbolic difference to a point,
           e.g. a(i) vs a(i+m) with m in [2,2]; a relational oracle can do
           the same for symbolic couplings, e.g. a(i+m) vs a(i+2*n) under
           m = 2*n *)
        let base =
          match env with
          | Some env -> Interval.eval_poly env diff
          | None -> Interval.full
        in
        let iv =
          match oracle with
          | Some f -> (
            match Interval.intersect base (f diff) with Some m -> m | None -> base)
          | None -> base
        in
        Interval.is_point iv)
    in
    (match diff_const with
     | Some c when Rat.is_integer c -> (
       match Rat.to_int c with Some ci -> Some (fa, ga, ci) | None -> None)
     | _ -> None)
  | _ -> None

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* GCD test: independent when gcd of all coefficients does not divide diff *)
let gcd_disproves (fa, ga, diff) =
  let g = List.fold_left (fun acc c -> gcd acc c) 0 (fa @ ga) in
  if g = 0 then diff <> 0 else diff mod g <> 0

(* sound bound of the term a*x - b*y under a direction constraint; bounds
   known: x,y in [lo,hi]. Returns (min, max). *)
let term_bounds a b lo hi (dir : dir_or_any) =
  let pos v = max v 0 and neg v = max (-v) 0 in
  let span = hi - lo in
  match dir with
  | Any ->
    let mn = (pos a * lo) - (neg a * hi) - ((pos b * hi) - (neg b * lo)) in
    let mx = (pos a * hi) - (neg a * lo) - ((pos b * lo) - (neg b * hi)) in
    Some (mn, mx)
  | D Eq ->
    let c = a - b in
    Some ((pos c * lo) - (neg c * hi), (pos c * hi) - (neg c * lo))
  | D Lt ->
    (* x < y: y = x + d, d in [1, span]; t = (a-b)x - b*d, relaxed *)
    if span < 1 then None (* direction infeasible *)
    else (
      let c = a - b in
      let mnx = (pos c * lo) - (neg c * hi) and mxx = (pos c * hi) - (neg c * lo) in
      let mnd = min (-b) (-b * span) and mxd = max (-b) (-b * span) in
      Some (mnx + mnd, mxx + mxd))
  | D Gt ->
    if span < 1 then None
    else (
      let c = a - b in
      let mnx = (pos c * lo) - (neg c * hi) and mxx = (pos c * hi) - (neg c * lo) in
      let mnd = min b (b * span) and mxd = max b (b * span) in
      Some (mnx + mnd, mxx + mxd))

(* Banerjee-style test of one subscript pair against a direction vector:
   true = disproved (no dependence with these directions). [bounds] holds
   each common loop's [const_bounds], forced only at the levels reached. *)
let banerjee_disproves bounds dirs (fa, ga, diff) =
  let rec go bounds dirs fa ga (mn, mx) =
    match (bounds, dirs, fa, ga) with
    | [], [], [], [] -> diff < mn || diff > mx
    | l :: bounds', d :: dirs', a :: fa', b :: ga' -> (
      match Lazy.force l with
      | None ->
        (* unknown bounds: only the Eq direction allows exact treatment of
           the (a-b) x term when a = b (contributes 0) *)
        (match d with
         | D Eq when a = b -> go bounds' dirs' fa' ga' (mn, mx)
         | _ ->
           (* unbounded contribution unless both coefficients are zero *)
           if a = 0 && b = 0 then go bounds' dirs' fa' ga' (mn, mx) else false)
      | Some (lo, hi) -> (
        match term_bounds a b lo hi d with
        | None -> true (* direction infeasible for this loop *)
        | Some (tmn, tmx) -> go bounds' dirs' fa' ga' (mn + tmn, mx + tmx)))
    | _ -> false
  in
  go bounds dirs fa ga (0, 0)

(* test a full direction vector against all subscript pairs; true = the
   tests disproved a dependence with this direction vector *)
let vector_disproved bounds dirs pairs =
  List.exists
    (fun pair ->
      match pair with
      | None -> false (* unanalyzable dimension: cannot disprove *)
      | Some p -> gcd_disproves p || banerjee_disproves bounds dirs p)
    pairs

(* strong-SIV sharpening: when a dim is a*x - a*y = diff with a <> 0, the
   dependence distance is fixed: diff/a. Directions inconsistent with the
   distance sign are disproved. *)
let siv_direction common pairs =
  (* returns, per loop level, the direction forced by some subscript, if any *)
  List.mapi
    (fun j (l : Analysis.loop_ctx) ->
      ignore l;
      List.fold_left
        (fun forced pair ->
          match (forced, pair) with
          | Some _, _ -> forced
          | None, Some (fa, ga, diff) ->
            let a = List.nth fa j and b = List.nth ga j in
            let others_zero =
              List.for_all2 (fun i (x, y) -> i = j || (x = 0 && y = 0))
                (List.mapi (fun i _ -> i) fa)
                (List.combine fa ga)
            in
            if a = b && a <> 0 && others_zero then
              if diff mod a <> 0 then Some `Impossible
              else (
                (* x - y = dist: a positive distance means the first
                   reference's iteration is later (direction >) *)
                let dist = diff / a in
                if dist = 0 then Some (`Dir Eq)
                else if dist > 0 then Some (`Dir Gt)
                else Some (`Dir Lt))
            else None
          | None, None -> None)
        None pairs)
    common

(* intervals of a reference's subscripts over a range environment extended
   with the enclosing loops' index ranges (outermost first, so triangular
   bounds see the outer index); each is computed on first use *)
let subscript_intervals env (r : Analysis.array_ref) =
  let index_interval env (l : Analysis.loop_ctx) =
    let eval e =
      match Sym_expr.to_poly e with
      | Some p -> Interval.eval_poly env p
      | None -> Interval.full
    in
    let lo_iv = eval l.llo and hi_iv = eval l.lhi in
    let step_sign =
      match l.lstep with
      | None -> 1
      | Some s -> (
        match eval s with iv -> ( match Interval.sign iv with Pos -> 1 | Neg -> -1 | _ -> 0))
    in
    try
      if step_sign > 0 then Interval.make (Interval.lo lo_iv) (Interval.hi hi_iv)
      else if step_sign < 0 then Interval.make (Interval.lo hi_iv) (Interval.hi lo_iv)
      else Interval.union lo_iv hi_iv
    with Invalid_argument _ -> Interval.union lo_iv hi_iv
  in
  let env =
    lazy
      (List.fold_left
         (fun env (l : Analysis.loop_ctx) -> Interval.Env.add l.lvar (index_interval env l) env)
         env r.loops)
  in
  List.map
    (fun sub ->
      lazy
        (match Sym_expr.to_poly sub with
         | Some p -> Interval.eval_poly (Lazy.force env) p
         | None -> Interval.full))
    r.subs

(* range disproof: the two references touch provably disjoint index sets in
   some dimension, so no element is shared at all *)
let ranges_disjoint ivs1 ivs2 =
  List.length ivs1 = List.length ivs2
  && List.exists2
       (fun i1 i2 -> Interval.intersect (Lazy.force i1) (Lazy.force i2) = None)
       ivs1 ivs2

(* the direction vectors of two references to one array that the range
   disproof left standing and the subscript tests cannot disprove *)
let direction_vectors ~common ?env ?oracle (r1 : Analysis.array_ref) (r2 : Analysis.array_ref) =
  if List.length r1.subs <> List.length r2.subs then
    (* inconsistent shapes: be conservative, all-any *)
    [ List.map (fun _ -> Eq) common ]
  else (
    let pairs =
      List.map2 (fun f g -> subscript_pair ?env ?oracle common f g) r1.subs r2.subs
    in
    let forced = siv_direction common pairs in
    if List.exists (fun f -> f = Some `Impossible) forced then []
    else (
      let bounds = List.map (fun l -> lazy (const_bounds ?env ?oracle l)) common in
      (* hierarchical refinement of direction vectors *)
      let n = List.length common in
      let results = ref [] in
      let rec refine prefix j =
        if j = n then (
          let dirs = List.rev prefix in
          if not (vector_disproved bounds (List.map (fun d -> D d) dirs) pairs) then
            results := dirs :: !results)
        else (
          let candidates =
            match List.nth forced j with
            | Some (`Dir d) -> [ d ]
            | _ -> [ Lt; Eq; Gt ]
          in
          List.iter
            (fun d ->
              (* prune early with the partial vector extended by Any *)
              let partial =
                List.rev_append (List.map (fun d -> D d) (d :: prefix))
                  (List.init (n - j - 1) (fun _ -> Any))
              in
              if not (vector_disproved bounds partial pairs) then refine (d :: prefix) (j + 1))
            candidates)
      in
      refine [] 0;
      List.rev !results))

let directions ~common ?env ?oracle (r1 : Analysis.array_ref) (r2 : Analysis.array_ref) =
  if not (String.equal r1.array r2.array) then []
  else if
    match env with
    | Some env -> ranges_disjoint (subscript_intervals env r1) (subscript_intervals env r2)
    | None -> false
  then []
  else direction_vectors ~common ?env ?oracle r1 r2

let common_loops (r1 : Analysis.array_ref) (r2 : Analysis.array_ref) =
  let rec go l1 l2 =
    match (l1, l2) with
    | (a : Analysis.loop_ctx) :: t1, (b : Analysis.loop_ctx) :: t2
      when String.equal a.lvar b.lvar ->
      a :: go t1 t2
    | _ -> []
  in
  go r1.loops r2.loops

let classify (src : Analysis.array_ref) (dst : Analysis.array_ref) =
  match (src.is_write, dst.is_write) with
  | true, false -> Flow
  | false, true -> Anti
  | true, true -> Output
  | false, false -> Input

let sp_depend = Pperf_obs.Obs.span "depend"

let dependences_in ?env ?oracle stmts =
  Pperf_obs.Obs.time sp_depend @@ fun () ->
  let refs = Analysis.array_refs stmts in
  let deps = ref [] in
  let arr = Array.of_list refs in
  let n = Array.length arr in
  (* each reference's subscript intervals, shared by all its pairs *)
  let ivs = Option.map (fun env -> Array.map (subscript_intervals env) arr) env in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let r1 = arr.(i) and r2 = arr.(j) in
      if String.equal r1.array r2.array && (r1.is_write || r2.is_write) && not (i = j && not r1.is_write)
      then (
        let common = common_loops r1 r2 in
        let dirs =
          match ivs with
          | Some ivs when ranges_disjoint ivs.(i) ivs.(j) -> []
          | _ -> direction_vectors ~common ?env ?oracle r1 r2
        in
        List.iter
          (fun dvec ->
            (* orient the dependence source-before-destination *)
            let self_eq = List.for_all (fun d -> d = Eq) dvec in
            if i = j && self_eq then () (* same access, same iteration *)
            else (
              let reversed = List.exists (fun d -> d = Gt) dvec
                             && not (List.exists (fun d -> d = Lt) dvec) in
              let src, dst, dvec =
                if reversed then (r2, r1, List.map (function Gt -> Lt | Lt -> Gt | Eq -> Eq) dvec)
                else (r1, r2, dvec)
              in
              if src.is_write || dst.is_write then
                deps := { kind = classify src dst; directions = dvec; src; dst } :: !deps))
          dirs)
    done
  done;
  List.rev !deps

let carried_dependences ?env ?oracle (d : Ast.do_loop) =
  let deps = dependences_in ?env ?oracle [ Ast.mk (Ast.Do d) ] in
  List.filter
    (fun dep -> match dep.directions with (Lt | Gt) :: _ -> true | _ -> false)
    deps

let interchange_legal ?env ?oracle (d : Ast.do_loop) =
  let deps = dependences_in ?env ?oracle [ Ast.mk (Ast.Do d) ] in
  not
    (List.exists
       (fun dep ->
         match dep.directions with
         | Lt :: Gt :: _ -> true
         | _ -> false)
       deps)

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

let pp_dependence fmt d =
  Format.fprintf fmt "%s dep on %s (%s)" (kind_to_string d.kind) d.src.Analysis.array
    (String.concat "," (List.map direction_to_string d.directions))
