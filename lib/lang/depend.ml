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
let const_bounds ?env ?oracle (nl : Analysis.nest_loop) =
  let l = nl.lctx in
  let plo, phi = Lazy.force nl.lbounds in
  let const = function
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
  let iv_bound round pick = function
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
      match const plo with
      | Some lo -> Some lo
      | None -> iv_bound Rat.floor Interval.lo plo
    in
    let hi =
      match const phi with
      | Some hi -> Some hi
      | None -> iv_bound Rat.ceil Interval.hi phi
    in
    match (lo, hi) with Some lo, Some hi when lo <= hi -> Some (lo, hi) | _ -> None)

(* one subscript pair from the two references' affine views in the common
   loop indices: (a_coeffs, b_coeffs, diff) with
   sum a_j x_j - sum b_j y_j = diff (diff constant); None = not analyzable
   -> assume dependent *)
let subscript_pair ?env ?oracle f g =
  match (f, g) with
  | Some (fa, frest), Some (ga, grest) ->
    let diff_const =
      match (Poly.to_const frest, Poly.to_const grest) with
      | Some f, Some g -> Some (Rat.sub g f)
      | _ -> (
        let diff = Poly.sub grest frest in
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
        Interval.is_point iv))
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

(* test a direction vector against all subscript pairs; true = the Banerjee
   test disproved a dependence with this direction vector *)
let vector_disproved bounds dirs pairs =
  List.exists
    (fun pair ->
      match pair with
      | None -> false (* unanalyzable dimension: cannot disprove *)
      | Some p -> banerjee_disproves bounds dirs p)
    pairs

(* strong-SIV sharpening: when a dim is a*x - a*y = diff with a <> 0, the
   dependence distance is fixed: diff/a. Directions inconsistent with the
   distance sign are disproved. Per loop level, the direction the first
   such subscript forces, if any. *)
let siv_direction n pairs =
  let forced = Array.make n None in
  List.iter
    (function
      | None -> ()
      | Some (fa, ga, diff) -> (
        (* the levels whose coefficients are not both zero *)
        let levels =
          List.concat
            (List.mapi
               (fun j (a, b) -> if a <> 0 || b <> 0 then [ (j, a, b) ] else [])
               (List.combine fa ga))
        in
        match levels with
        | [ (j, a, b) ] when a = b && forced.(j) = None ->
          forced.(j) <-
            (if diff mod a <> 0 then Some `Impossible
             else (
               (* x - y = dist: a positive distance means the first
                  reference's iteration is later (direction >) *)
               let dist = diff / a in
               if dist = 0 then Some (`Dir Eq)
               else if dist > 0 then Some (`Dir Gt)
               else Some (`Dir Lt)))
        | _ -> ()))
    pairs;
  forced

(* a range environment extended with the loops' index ranges (outermost
   first, so triangular bounds see the outer index), computed on first use *)
let index_env env (loops : Analysis.nest_loop list) =
  let index_interval env (nl : Analysis.nest_loop) =
    let eval = function Some p -> Interval.eval_poly env p | None -> Interval.full in
    let plo, phi = Lazy.force nl.lbounds in
    let lo_iv = eval plo and hi_iv = eval phi in
    let step_sign =
      match nl.lctx.lstep with
      | None -> 1
      | Some s -> (
        match Interval.sign (eval (Sym_expr.to_poly s)) with Pos -> 1 | Neg -> -1 | _ -> 0)
    in
    try
      if step_sign > 0 then Interval.make (Interval.lo lo_iv) (Interval.hi hi_iv)
      else if step_sign < 0 then Interval.make (Interval.lo hi_iv) (Interval.hi lo_iv)
      else Interval.union lo_iv hi_iv
    with Invalid_argument _ -> Interval.union lo_iv hi_iv
  in
  lazy
    (List.fold_left
       (fun env (nl : Analysis.nest_loop) -> Interval.Env.add nl.lctx.lvar (index_interval env nl) env)
       env loops)

(* the interval of a subscript polynomial over an index environment,
   computed on first use *)
let subscript_interval env p = lazy (Interval.eval_poly (Lazy.force env) p)

(* range disproof: the two references touch provably disjoint index sets in
   some dimension, so no element is shared at all *)
let ranges_disjoint ivs1 ivs2 =
  List.length ivs1 = List.length ivs2
  && List.exists2
       (fun i1 i2 -> Interval.intersect (Lazy.force i1) (Lazy.force i2) = None)
       ivs1 ivs2

(* the direction vectors of two references to one array that the range
   disproof left standing and the subscript tests cannot disprove, from
   their affine views over the [n] common loops; [bounds] holds each common
   loop's [const_bounds], forced only at the levels reached *)
let direction_vectors ~n ~bounds ?env ?oracle views1 views2 =
  if List.length views1 <> List.length views2 then
    (* inconsistent shapes: be conservative, all-any *)
    [ List.init n (fun _ -> Eq) ]
  else (
    let pairs = List.map2 (fun f g -> subscript_pair ?env ?oracle f g) views1 views2 in
    let forced = siv_direction n pairs in
    (* a subscript the GCD test separates disproves every direction *)
    if
      Array.exists (fun f -> f = Some `Impossible) forced
      || List.exists (function Some p -> gcd_disproves p | None -> false) pairs
    then []
    else (
      (* hierarchical refinement of direction vectors *)
      let results = ref [] in
      let rec refine prefix j =
        if j = n then (
          let dirs = List.rev prefix in
          if not (vector_disproved bounds (List.map (fun d -> D d) dirs) pairs) then
            results := dirs :: !results)
        else (
          let candidates =
            match forced.(j) with
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

let classify (src : Analysis.array_ref) (dst : Analysis.array_ref) =
  match (src.is_write, dst.is_write) with
  | true, false -> Flow
  | false, true -> Anti
  | true, true -> Output
  | false, false -> Input

let sp_depend = Pperf_obs.Obs.span "depend"
let c_pairs = Pperf_obs.Obs.counter "depend.pairs"

let rec drop k l = if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl

(* the common loops of two references: the longest prefix of their loops
   inside the fragment whose names agree, taken from the first *)
let rec common_prefix (l1 : Analysis.nest_loop list) (l2 : Analysis.nest_loop list) =
  match (l1, l2) with
  | a :: t1, b :: t2 when String.equal a.lctx.lvar b.lctx.lvar -> a :: common_prefix t1 t2
  | _ -> []

(* [f] computed once per argument, arguments compared physically *)
let once f =
  let seen = ref [] in
  fun x ->
    match List.assq_opt x !seen with
    | Some v -> v
    | None ->
      let v = f x in
      seen := (x, v) :: !seen;
      v

(* [test i j]: the direction vectors of a fragment's references [i] and
   [j] (entries, each with how many of its loops enclose the fragment)
   that the tests cannot disprove, from their entries' views over their
   common loops inside the fragment; each loop's constant bounds and each
   reference's subscript intervals are computed once for all pairs *)
let pair_tester ?env ?oracle (refs : (Analysis.nest_ref * int) array) =
  (* the entry's loops inside the fragment *)
  let inner = Array.map (fun (e, outer) -> drop outer (Analysis.entry_loops e)) refs in
  let bounds_of = once (fun l -> lazy (const_bounds ?env ?oracle l)) in
  (* each reference's subscript intervals, shared by all its pairs; the
     references under one loop share the loops' index ranges, and the
     interval of each subscript polynomial over them *)
  let ivs =
    Option.map
      (fun env ->
        let intervals = once (fun loops -> once (subscript_interval (index_env env loops))) in
        Array.mapi
          (fun k (e, _) ->
            List.map
              (function Some p -> intervals inner.(k) p | None -> Lazy.from_val Interval.full)
              (Analysis.subscript_polys e))
          refs)
      env
  in
  fun i j ->
    match ivs with
    | Some ivs when ranges_disjoint ivs.(i) ivs.(j) -> []
    | _ ->
      let e1, outer1 = refs.(i) and e2, outer2 = refs.(j) in
      let common = common_prefix inner.(i) inner.(j) in
      let k = List.length common in
      direction_vectors ~n:k ~bounds:(List.map bounds_of common) ?env ?oracle
        (Analysis.affine_view e1 ~from:outer1 ~len:k)
        (Analysis.affine_view e2 ~from:outer2 ~len:k)

let directions ?env ?oracle e1 e2 =
  if String.equal (Analysis.entry_ref e1).array (Analysis.entry_ref e2).array then
    pair_tester ?env ?oracle [| (e1, 0); (e2, 0) |] 0 1
  else []

(* the pairwise dependences among a fragment's references, each pair
   tested by [pair_tester] *)
let among ?env ?oracle ?(flow_only = false) (refs : (Analysis.nest_ref * int) array) =
  let deps = ref [] in
  let n = Array.length refs in
  let test = pair_tester ?env ?oracle refs in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let r1 = Analysis.entry_ref (fst refs.(i)) and r2 = Analysis.entry_ref (fst refs.(j)) in
      if
        String.equal r1.array r2.array
        && (if flow_only then r1.is_write <> r2.is_write else r1.is_write || r2.is_write)
        && not (i = j && not r1.is_write)
      then (
        Pperf_obs.Obs.incr c_pairs;
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
          (test i j))
    done
  done;
  List.rev !deps

let dependences_among ?env ?oracle ?flow_only refs =
  Pperf_obs.Obs.time sp_depend @@ fun () -> among ?env ?oracle ?flow_only refs

let dependences_in ?env ?oracle stmts =
  Pperf_obs.Obs.time sp_depend @@ fun () ->
  among ?env ?oracle (Array.map (fun e -> (e, 0)) (Analysis.nest_refs (Analysis.nests stmts)))

(* the dependences among the loop's references, read from the table when
   one is given *)
let loop_dependences ?env ?oracle ?nests (d : Ast.do_loop) =
  match nests with
  | Some t -> dependences_among ?env ?oracle (Analysis.loop_refs t d)
  | None -> dependences_in ?env ?oracle [ Ast.mk (Ast.Do d) ]

let carried_dependences ?env ?oracle ?nests d =
  List.filter
    (fun dep -> match dep.directions with (Lt | Gt) :: _ -> true | _ -> false)
    (loop_dependences ?env ?oracle ?nests d)

let interchange_legal ?env ?oracle ?nests d =
  let deps = loop_dependences ?env ?oracle ?nests d in
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
