open Pperf_num
open Pperf_symbolic

(* lazy so interval-only runs leave the telemetry registry untouched *)
let c_closures = lazy (Pperf_obs.Obs.counter "absint.octagon.closures")

(* ---------- extended upper bounds ---------- *)

type ub = Fin of Rat.t | Inf

let ub_add a b =
  match (a, b) with Inf, _ | _, Inf -> Inf | Fin x, Fin y -> Fin (Rat.add x y)

let ub_le a b =
  match (a, b) with
  | _, Inf -> true
  | Inf, _ -> false
  | Fin x, Fin y -> Rat.compare x y <= 0

let ub_min a b = if ub_le a b then a else b
let ub_max a b = if ub_le a b then b else a
let ub_half = function Inf -> Inf | Fin x -> Fin (Rat.mul Rat.half x)
let ub_equal a b = ub_le a b && ub_le b a

(* ---------- representation ---------- *)

(* Invariant: the matrix is strongly closed with a zero diagonal. *)
type oct = { vars : string array; m : ub array array }
type t = Bot | Oct of oct

let max_vars = 24
let top = Oct { vars = [||]; m = [||] }
let bot = Bot
let is_bot t = t = Bot

let dim o = 2 * Array.length o.vars

let idx o x =
  let n = Array.length o.vars in
  let rec go i = if i >= n then None else if o.vars.(i) = x then Some i else go (i + 1) in
  go 0

let tracked = function Bot -> [] | Oct o -> Array.to_list o.vars

let is_top = function
  | Bot -> false
  | Oct o ->
    let all = ref true in
    let n2 = dim o in
    for i = 0 to n2 - 1 do
      for j = 0 to n2 - 1 do
        match o.m.(i).(j) with Fin _ when i <> j -> all := false | _ -> ()
      done
    done;
    !all

let copy_m m = Array.map Array.copy m

(* Add missing variables (unconstrained), respecting the cap. *)
let extend o xs =
  let fresh =
    List.sort_uniq String.compare xs
    |> List.filter (fun x -> idx o x = None)
  in
  let room = max 0 (max_vars - Array.length o.vars) in
  let rec take n = function [] -> [] | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl in
  let fresh = take room fresh in
  if fresh = [] then o
  else (
    let vars = Array.append o.vars (Array.of_list fresh) in
    let old_n2 = dim o in
    let n2 = 2 * Array.length vars in
    let m =
      Array.init n2 (fun i ->
          Array.init n2 (fun j ->
              if i < old_n2 && j < old_n2 then o.m.(i).(j)
              else if i = j then Fin Rat.zero
              else Inf))
    in
    { vars; m })

(* ---------- strong closure ---------- *)

(* [close ~pivots o] is the strong closure of [o] when [o.m] came from a
   strongly closed matrix by tightening entries whose two endpoints are
   both variables in [pivots]: a shorter path must then run through those
   variables, so the Floyd–Warshall step pivots on them alone, skipping
   rows whose two pivot entries are +∞ (they cannot improve). One
   strengthening pass over the whole matrix follows; after a shortest-path
   closure that single pass gives the strong closure over ℚ (Bagnara, Hill
   & Zaffanella). Without [pivots] it pivots on every variable, which
   closes any matrix. It works in place: [o.m] must be a matrix the caller
   owns, such as the fresh copy every transfer tightens. *)
let close ?pivots o =
  Pperf_obs.Obs.incr (Lazy.force c_closures);
  let n2 = dim o in
  let m = o.m in
  let pivots =
    match pivots with Some ks -> ks | None -> List.init (Array.length o.vars) Fun.id
  in
  List.iter
    (fun k ->
      let k1 = 2 * k and k2 = (2 * k) + 1 in
      let rk1 = m.(k1) and rk2 = m.(k2) in
      for i = 0 to n2 - 1 do
        let row = m.(i) in
        match (row.(k1), row.(k2)) with
        | Inf, Inf -> ()
        | ik1, ik2 ->
          (* shortest ways from i into v_k1 and v_k2, each possibly via the
             other: the four paths of Miné's step in two additions *)
          let a = ub_min ik1 (ub_add ik2 rk2.(k1))
          and b = ub_min ik2 (ub_add ik1 rk1.(k2)) in
          for j = 0 to n2 - 1 do
            row.(j) <- ub_min row.(j) (ub_min (ub_add a rk1.(j)) (ub_add b rk2.(j)))
          done
      done)
    pivots;
  (* strengthening: m[i][j] <- min m[i][j] ((m[i][ī] + m[j̄][j]) / 2) *)
  let half = Array.init n2 (fun i -> ub_half m.(i).(i lxor 1)) in
  for i = 0 to n2 - 1 do
    match half.(i) with
    | Inf -> ()
    | d ->
      let row = m.(i) in
      for j = 0 to n2 - 1 do
        row.(j) <- ub_min row.(j) (ub_add d half.(j lxor 1))
      done
  done;
  let empty = ref false in
  for i = 0 to n2 - 1 do
    (match m.(i).(i) with
    | Fin c when Rat.sign c < 0 -> empty := true
    | _ -> ());
    m.(i).(i) <- Fin Rat.zero
  done;
  if !empty then Bot else Oct o

(* ---------- entry helpers ---------- *)

(* Index of the split variable carrying [s·x] for variable slot [a]. *)
let pos_of a s = if s > 0 then 2 * a else (2 * a) + 1

(* Upper bound of [sa·x_a + sb·x_b] straight from the matrix: the column
   holds the split variable equal to [-sb·x_b]. *)
let pair_ub o a sa b sb = o.m.(pos_of a sa).(pos_of b (-sb))

let unary_ub o a s =
  let i = pos_of a s in
  ub_half o.m.(i).(i lxor 1)

let iv_of_ubs hi_ub neg_lo_ub =
  (* x <= hi_ub and -x <= neg_lo_ub *)
  let hi = match hi_ub with Inf -> Interval.Pos_inf | Fin c -> Interval.Fin c in
  let lo = match neg_lo_ub with Inf -> Interval.Neg_inf | Fin c -> Interval.Fin (Rat.neg c) in
  try Interval.make lo hi with Invalid_argument _ -> Interval.full

let proj o x =
  match idx o x with
  | None -> Interval.full
  | Some a -> iv_of_ubs (unary_ub o a 1) (unary_ub o a (-1))

let project t x = match t with Bot -> Interval.full | Oct o -> proj o x

let imeet a b = match Interval.intersect a b with Some i -> i | None -> a

let full_ivb : string -> Interval.t = fun _ -> Interval.full

(* ---------- bounding linear forms ---------- *)

let bound_hi_of_iv a iv =
  (* upper bound of a·x given x ∈ iv *)
  if Rat.sign a >= 0 then
    match Interval.hi iv with Interval.Fin h -> Fin (Rat.mul a h) | _ -> Inf
  else
    match Interval.lo iv with Interval.Fin l -> Fin (Rat.mul a l) | _ -> Inf

(* Greedy pairing: peel [λ·(±x ± y)] sub-forms that the matrix bounds
   finitely; everything left falls back to its unary interval bound. *)
let upper o ~vb (lin : Lin.t) =
  let rec go acc = function
    | [] -> acc
    | (a, x) :: rest ->
      let sa = Rat.sign a in
      let pick =
        match idx o x with
        | None -> None
        | Some ia ->
          let rec find pre = function
            | [] -> None
            | (b, y) :: tl -> (
              match idx o y with
              | Some ib when y <> x -> (
                match pair_ub o ia sa ib (Rat.sign b) with
                | Fin c -> Some ((b, y), c, List.rev_append pre tl)
                | Inf -> find ((b, y) :: pre) tl)
              | _ -> find ((b, y) :: pre) tl)
          in
          find [] rest
      in
      (match pick with
      | Some ((b, y), c, rest') ->
        let lam = Rat.min (Rat.abs a) (Rat.abs b) in
        let leftover coeff s v =
          let r = Rat.sub (Rat.abs coeff) lam in
          if Rat.is_zero r then [] else [ (Rat.mul (Rat.of_int s) r, v) ]
        in
        go
          (ub_add acc (Fin (Rat.mul lam c)))
          (leftover a sa x @ leftover b (Rat.sign b) y @ rest')
      | None -> go (ub_add acc (bound_hi_of_iv a (vb x))) rest)
  in
  ub_add (Fin lin.const) (go (Fin Rat.zero) lin.terms)

let bound ?(ivb = full_ivb) t lin =
  match t with
  | Bot -> Interval.full
  | Oct o ->
    let vb x = imeet (ivb x) (proj o x) in
    let hi = upper o ~vb lin in
    let neg_lo = upper o ~vb (Lin.neg lin) in
    imeet (iv_of_ubs hi neg_lo) (Lin.eval_iv vb lin)

(* ---------- meets ---------- *)

let tighten m i j v = m.(i).(j) <- ub_min m.(i).(j) v

let tighten2 m i j v =
  tighten m i j v;
  tighten m (j lxor 1) (i lxor 1) v

let set_upper m a c = tighten m (2 * a) ((2 * a) + 1) (Fin (Rat.mul Rat.two c))
let set_lower m a c = tighten m ((2 * a) + 1) (2 * a) (Fin (Rat.neg (Rat.mul Rat.two c)))

let set_interval m a iv =
  (match Interval.hi iv with Interval.Fin h -> set_upper m a h | _ -> ());
  match Interval.lo iv with Interval.Fin l -> set_lower m a l | _ -> ()

let meet_le ?(ivb = full_ivb) t (lin : Lin.t) =
  match t with
  | Bot -> Bot
  | Oct o -> (
    match Lin.is_const lin with
    | Some c -> if Rat.sign c > 0 then Bot else t
    | None ->
      let o = extend o (Lin.vars lin) in
      let pre = Oct o in
      let m = copy_m o.m in
      (* unary: a·x <= -(rest lower bound) for each linear term *)
      List.iter
        (fun (a, x) ->
          match idx o x with
          | None -> ()
          | Some ia -> (
            let rest = Lin.drop_var x lin in
            match Interval.lo (bound ~ivb pre rest) with
            | Interval.Fin rl ->
              let v = Rat.div (Rat.neg rl) a in
              if Rat.sign a > 0 then set_upper m ia v else set_lower m ia v
            | _ -> ()))
        lin.terms;
      (* binary: λ·(sx·x + sy·y) <= -(residual lower bound) for each pair *)
      let rec pairs = function
        | [] -> ()
        | (a, x) :: rest ->
          (match idx o x with
          | None -> ()
          | Some ia ->
            List.iter
              (fun (b, y) ->
                match idx o y with
                | None -> ()
                | Some ib -> (
                  let sa = Rat.sign a and sb = Rat.sign b in
                  let lam = Rat.min (Rat.abs a) (Rat.abs b) in
                  let peeled =
                    Lin.of_terms
                      [ (Rat.mul (Rat.of_int sa) lam, x); (Rat.mul (Rat.of_int sb) lam, y) ]
                      Rat.zero
                  in
                  match Interval.lo (bound ~ivb pre (Lin.sub lin peeled)) with
                  | Interval.Fin rl ->
                    let c = Rat.div (Rat.neg rl) lam in
                    tighten2 m (pos_of ia sa) (pos_of ib (-sb)) (Fin c)
                  | _ -> ()))
              rest);
          pairs rest
      in
      pairs lin.terms;
      close ~pivots:(List.filter_map (idx o) (Lin.vars lin)) { o with m })

let meet_eq ?ivb t lin =
  match meet_le ?ivb t lin with
  | Bot -> Bot
  | t' -> meet_le ?ivb t' (Lin.neg lin)

(* ---------- forget / assign ---------- *)

let forget_idx m a =
  let n2 = Array.length m in
  let i1 = 2 * a and i2 = (2 * a) + 1 in
  for j = 0 to n2 - 1 do
    if j <> i1 then m.(i1).(j) <- Inf;
    if j <> i2 then m.(i2).(j) <- Inf;
    if j <> i1 then m.(j).(i1) <- Inf;
    if j <> i2 then m.(j).(i2) <- Inf
  done;
  m.(i1).(i2) <- Inf;
  m.(i2).(i1) <- Inf

let forget t x =
  match t with
  | Bot -> Bot
  | Oct o -> (
    match idx o x with
    | None -> t
    | Some a ->
      let m = copy_m o.m in
      forget_idx m a;
      (* forgetting in a closed matrix preserves closure *)
      Oct { o with m })

let shift o a c =
  (* exact transfer of x := x + c *)
  let m = copy_m o.m in
  let i1 = 2 * a and i2 = (2 * a) + 1 in
  let n2 = Array.length m in
  for j = 0 to n2 - 1 do
    if j <> i1 && j <> i2 then (
      m.(i1).(j) <- ub_add m.(i1).(j) (Fin c);
      m.(i2).(j) <- ub_add m.(i2).(j) (Fin (Rat.neg c));
      m.(j).(i1) <- ub_add m.(j).(i1) (Fin (Rat.neg c));
      m.(j).(i2) <- ub_add m.(j).(i2) (Fin c))
  done;
  let c2 = Rat.mul Rat.two c in
  m.(i1).(i2) <- ub_add m.(i1).(i2) (Fin c2);
  m.(i2).(i1) <- ub_add m.(i2).(i1) (Fin (Rat.neg c2));
  Oct { o with m }

let assign ?(ivb = full_ivb) t x rhs =
  match t with
  | Bot -> Bot
  | Oct o -> (
    match rhs with
    | None -> forget t x
    | Some (e : Lin.t) -> (
      match (e.terms, idx o x) with
      | [ (a, y) ], Some ia when y = x && Rat.equal a Rat.one ->
        shift o ia e.const
      | [ (a, y) ], _ when y <> x && Rat.equal (Rat.abs a) Rat.one ->
        (* x := ±y + c, exact *)
        let o = extend o [ x; y ] in
        (match (idx o x, idx o y) with
        | Some ia, Some ib ->
          let m = copy_m o.m in
          forget_idx m ia;
          let s = Rat.sign a in
          (* x - (±y) <= c and (±y) - x <= -c *)
          tighten2 m (pos_of ia 1) (pos_of ib s) (Fin e.const);
          tighten2 m (pos_of ia (-1)) (pos_of ib (-s)) (Fin (Rat.neg e.const));
          (* both ends: a path x -> y -> z is new too *)
          close ~pivots:[ ia; ib ] { o with m }
        | _ ->
          (* y past the cap: fall back to the interval value of e *)
          let iv = bound ~ivb (Oct o) e in
          (match idx o x with
          | None -> Oct o
          | Some ia ->
            let m = copy_m o.m in
            forget_idx m ia;
            set_interval m ia iv;
            close ~pivots:[ ia ] { o with m }))
      | _, _ ->
        (* general affine (may mention x): bound value and pairwise
           relations against the pre-state, then kill x *)
        let pre = Oct o in
        let iv = bound ~ivb pre e in
        let rels =
          Array.to_list o.vars
          |> List.filter (fun y -> y <> x)
          |> List.map (fun y ->
                 ( y,
                   bound ~ivb pre (Lin.sub e (Lin.var y)),
                   bound ~ivb pre (Lin.add e (Lin.var y)) ))
        in
        let o = extend o [ x ] in
        (match idx o x with
        | None -> Oct o
        | Some ia ->
          let m = copy_m o.m in
          forget_idx m ia;
          set_interval m ia iv;
          List.iter
            (fun (y, diff, sum) ->
              match idx o y with
              | None -> ()
              | Some ib ->
                (* x - y ∈ diff, x + y ∈ sum *)
                (match Interval.hi diff with
                | Interval.Fin h -> tighten2 m (pos_of ia 1) (pos_of ib 1) (Fin h)
                | _ -> ());
                (match Interval.lo diff with
                | Interval.Fin l ->
                  tighten2 m (pos_of ia (-1)) (pos_of ib (-1)) (Fin (Rat.neg l))
                | _ -> ());
                (match Interval.hi sum with
                | Interval.Fin h -> tighten2 m (pos_of ia 1) (pos_of ib (-1)) (Fin h)
                | _ -> ());
                match Interval.lo sum with
                | Interval.Fin l ->
                  tighten2 m (pos_of ia (-1)) (pos_of ib 1) (Fin (Rat.neg l))
                | _ -> ())
            rels;
          (* pivots: x and every y given a finite bound against it *)
          let linked =
            List.filter_map
              (fun (y, diff, sum) ->
                if Interval.is_full diff && Interval.is_full sum then None else idx o y)
              rels
          in
          close ~pivots:(ia :: linked) { o with m })))

(* ---------- lattice operations ---------- *)

(* Rebuild o's matrix in the variable order of [vars]. *)
let conform o vars =
  let map = Array.map (fun x -> idx o x) vars in
  let n2 = 2 * Array.length vars in
  Array.init n2 (fun i ->
      Array.init n2 (fun j ->
          if i = j then Fin Rat.zero
          else
            match (map.(i / 2), map.(j / 2)) with
            | Some oi, Some oj -> o.m.((2 * oi) + (i mod 2)).((2 * oj) + (j mod 2))
            | _ -> Inf))

let union_vars oa ob =
  let all =
    List.sort_uniq String.compare (Array.to_list oa.vars @ Array.to_list ob.vars)
  in
  let rec take n = function [] -> [] | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl in
  Array.of_list (take max_vars all)

(* Both matrices in the order of the union variables; an operand already in
   that order is used as it is, not copied. *)
let aligned oa ob =
  let vars = union_vars oa ob in
  let in_order o = if o.vars = vars then o.m else conform o vars in
  (vars, in_order oa, in_order ob)

let pointwise f ma mb = Array.map2 (Array.map2 f) ma mb

let lift2 f a b =
  match (a, b) with
  | Bot, t | t, Bot -> t
  | Oct oa, Oct ob ->
    let vars, ma, mb = aligned oa ob in
    Oct { vars; m = pointwise f ma mb }

let for_all2 p ma mb = Array.for_all2 (Array.for_all2 p) ma mb

(* the entries of [widen] and [narrow] *)
let widen_entry ths ea eb =
  if ub_le eb ea then ea
  else
    match List.find_opt (fun th -> ub_le eb (Fin th)) ths with
    | Some th -> Fin th
    | None -> Inf

let narrow_entry ea eb = match ea with Inf -> eb | _ -> ea

(* pointwise max of strongly closed matrices is strongly closed *)
let join a b = lift2 ub_max a b

let widen ?(thresholds = []) a b =
  match (a, b) with
  | Bot, t | t, Bot -> t
  | Oct _, Oct _ -> (
    let ths = List.sort_uniq Rat.compare thresholds in
    match lift2 (widen_entry ths) a b with Bot -> Bot | Oct o -> close o)

let narrow a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Oct oa, Oct ob ->
    let vars, ma, mb = aligned oa ob in
    (* when [a] is in the union order and [b] is finite nowhere [a] is +∞,
       the narrowing is [a] itself, strongly closed already *)
    let unrefined ea eb = match (ea, eb) with Inf, Fin _ -> false | _ -> true in
    if ma == oa.m && for_all2 unrefined ma mb then a
    else close { vars; m = pointwise narrow_entry ma mb }

let equal a b =
  a == b
  ||
  match (a, b) with
  | Bot, Bot -> true
  | Bot, _ | _, Bot -> false
  | Oct oa, Oct ob ->
    let _, ma, mb = aligned oa ob in
    for_all2 ub_equal ma mb

(* ---------- inspection ---------- *)

let signs = [ (1, 1); (1, -1); (-1, 1); (-1, -1) ]

let binary_cons o a sa b sb c : Lin.cons =
  {
    lhs =
      Lin.of_terms
        [ (Rat.of_int sa, o.vars.(a)); (Rat.of_int sb, o.vars.(b)) ]
        (Rat.neg c);
    is_eq = false;
  }

let constraints t =
  match t with
  | Bot -> []
  | Oct o ->
    let nv = Array.length o.vars in
    let out = ref [] in
    for a = 0 to nv - 1 do
      for b = a + 1 to nv - 1 do
        (* fuse opposite-sign pairs into equalities where exact *)
        let entry (sa, sb) = pair_ub o a sa b sb in
        let emitted_eq = ref [] in
        List.iter
          (fun (sa, sb) ->
            if sa > 0 then (
              match (entry (sa, sb), entry (-sa, -sb)) with
              | Fin c, Fin c' when Rat.equal c' (Rat.neg c) ->
                emitted_eq := (sa, sb) :: (-sa, -sb) :: !emitted_eq;
                let cons = binary_cons o a sa b sb c in
                out := { cons with Lin.is_eq = true } :: !out
              | _ -> ()))
          signs;
        List.iter
          (fun (sa, sb) ->
            if not (List.mem (sa, sb) !emitted_eq) then
              match entry (sa, sb) with
              | Inf -> ()
              | Fin c ->
                (* only worth reporting when tighter than the unary bounds *)
                let implied = ub_add (unary_ub o a sa) (unary_ub o b sb) in
                if not (ub_le implied (Fin c)) then
                  out := binary_cons o a sa b sb c :: !out)
          signs
      done
    done;
    List.rev !out

let entails t (c : Lin.cons) =
  match t with
  | Bot -> true
  | Oct _ -> (
    let hi_le_zero l =
      match Interval.hi (bound t l) with
      | Interval.Fin h -> Rat.sign h <= 0
      | _ -> false
    in
    hi_le_zero c.lhs && ((not c.is_eq) || hi_le_zero (Lin.neg c.lhs)))

let unconstrained t x =
  match t with
  | Bot -> false
  | Oct o -> (
    match idx o x with
    | None -> true
    | Some a ->
      let n2 = dim o in
      let i1 = 2 * a and i2 = (2 * a) + 1 in
      let free = ref true in
      let fin = function Fin _ -> true | Inf -> false in
      for j = 0 to n2 - 1 do
        if j <> i1 && (fin o.m.(i1).(j) || fin o.m.(j).(i1)) then free := false;
        if j <> i2 && (fin o.m.(i2).(j) || fin o.m.(j).(i2)) then free := false
      done;
      !free)

let satisfies f t =
  match t with
  | Bot -> false
  | Oct o ->
    let n2 = dim o in
    let value i =
      let v = f o.vars.(i / 2) in
      if i mod 2 = 0 then v else Rat.neg v
    in
    let ok = ref true in
    for i = 0 to n2 - 1 do
      for j = 0 to n2 - 1 do
        match o.m.(i).(j) with
        | Inf -> ()
        | Fin c -> if Rat.compare (Rat.sub (value i) (value j)) c > 0 then ok := false
      done
    done;
    !ok

let reclose = function Bot -> Bot | Oct o -> close { o with m = copy_m o.m }

module Reference = struct
  let lift2 f a b =
    match (a, b) with
    | Bot, t | t, Bot -> t
    | Oct oa, Oct ob ->
      let vars = union_vars oa ob in
      Oct { vars; m = pointwise f (conform oa vars) (conform ob vars) }

  let join a b = reclose (lift2 ub_max a b)

  let widen ?(thresholds = []) a b =
    reclose (lift2 (widen_entry (List.sort_uniq Rat.compare thresholds)) a b)

  let narrow a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Oct _, Oct _ -> reclose (lift2 narrow_entry a b)

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Bot, _ | _, Bot -> false
    | Oct oa, Oct ob ->
      let vars = union_vars oa ob in
      for_all2 ub_equal (conform oa vars) (conform ob vars)
end
