open Pperf_num
open Pperf_symbolic

(* lazy so interval-only runs leave the telemetry registry untouched *)
let c_closures = lazy (Pperf_obs.Obs.counter "absint.octagon.closures")

(* rows a closure relaxes through a pivot: the work the closure does *)
let c_pivot_rows = lazy (Pperf_obs.Obs.counter "absint.octagon.pivot_rows")

(* ---------- entries ---------- *)

(* An entry is an int: a finite bound held natively, [inf] for +∞, or [esc]
   for a finite bound held exactly in the octagon's side table. The split
   is canonical, like [Bigint]'s small/big one: a bound is native exactly
   when it is an integer of magnitude under [lim], so equal bounds have
   equal entries, and a sum of two native bounds (under 2^62 in magnitude)
   can neither overflow nor collide with [inf] or [esc]. *)
let inf = max_int
let esc = min_int
let lim = 1 lsl 61
let native v = v > -lim && v < lim

(* The exact view of an entry, for the paths that meet an escaped bound and
   for inspection. *)
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

(* Invariant: the matrix is strongly closed with a zero diagonal. [m] is
   row-major, [m.(i * n2 + j)] bounding [vᵢ - vⱼ]; [q.(p)] is the bound
   where [m.(p) = esc] (stale elsewhere), and [q] stays empty until an
   entry escapes. *)
type oct = { vars : string array; n2 : int; m : int array; mutable q : Rat.t array }
type t = Bot | Oct of oct

let max_vars = 24
let top = Oct { vars = [||]; n2 = 0; m = [||]; q = [||] }
let bot = Bot
let is_bot = function Bot -> true | Oct _ -> false

let idx o x =
  let n = Array.length o.vars in
  let rec go i = if i >= n then None else if o.vars.(i) = x then Some i else go (i + 1) in
  go 0

let tracked = function Bot -> [] | Oct o -> Array.to_list o.vars
let at o i j = (i * o.n2) + j

(* the bound of the finite entry at [p] *)
let exact o p =
  let c = o.m.(p) in
  if c = esc then o.q.(p) else Rat.of_int c

let get o p = if o.m.(p) = inf then Inf else Fin (exact o p)

(* store a finite bound at [p] in its canonical form *)
let set_exact o p r =
  match Rat.to_int r with
  | Some v when native v -> o.m.(p) <- v
  | _ ->
    if Array.length o.q = 0 then o.q <- Array.make (Array.length o.m) Rat.zero;
    o.m.(p) <- esc;
    o.q.(p) <- r

let set o p = function Inf -> o.m.(p) <- inf | Fin r -> set_exact o p r

(* m[p] <- min m[p] r *)
let tighten_exact o p r =
  if o.m.(p) = inf || Rat.compare r (exact o p) < 0 then set_exact o p r

let tighten o p = function Inf -> () | Fin r -> tighten_exact o p r

(* m[p] <- min m[p] s, for [s] a native bound or a sum of two *)
let tighten_int o p s =
  let c = o.m.(p) in
  if c = esc then tighten_exact o p (Rat.of_int s)
  else if s < c then if native s then o.m.(p) <- s else set_exact o p (Rat.of_int s)

let is_top = function
  | Bot -> false
  | Oct o ->
    let all = ref true in
    for i = 0 to o.n2 - 1 do
      for j = 0 to o.n2 - 1 do
        if i <> j && o.m.(at o i j) <> inf then all := false
      done
    done;
    !all

(* a matrix the caller owns: one array copy, two when an entry escaped *)
let copy o =
  { o with m = Array.copy o.m; q = (if Array.length o.q = 0 then [||] else Array.copy o.q) }

(* [o'] to tighten in place: the fresh matrix [extend] built, or a copy *)
let owned ~before o' = if o' == before then copy o' else o'

(* Add missing variables (unconstrained), respecting the cap. *)
let extend o xs =
  let room = max 0 (max_vars - Array.length o.vars) in
  let rec take n = function [] -> [] | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl in
  match take room (List.sort_uniq String.compare (List.filter (fun x -> idx o x = None) xs)) with
  | [] -> o
  | fresh -> (
    let vars = Array.append o.vars (Array.of_list fresh) in
    let n2 = 2 * Array.length vars in
    let grow src fill =
      let dst = Array.make (n2 * n2) fill in
      for i = 0 to o.n2 - 1 do
        Array.blit src (i * o.n2) dst (i * n2) o.n2
      done;
      dst
    in
    let m = grow o.m inf in
    for i = 0 to n2 - 1 do
      m.((i * n2) + i) <- 0
    done;
    { vars; n2; m; q = (if Array.length o.q = 0 then [||] else grow o.q Rat.zero) })

(* ---------- strong closure ---------- *)

(* [min x (y + z)] on entries, or [esc] when an operand escaped; a finite
   result may lie outside the native range *)
let via x y z =
  if x = esc || y = esc || z = esc then esc
  else (
    let s = if y = inf || z = inf then inf else y + z in
    if s < x then s else x)

let ub_of_int v = if v = inf then Inf else Fin (Rat.of_int v)

(* Row [i] (at offset [ri]) relaxed through the rows of v_k1 and v_k2 (at
   [r1], [r2]): m[i][j] <- min m[i][j] (a + m[k1][j]) (b + m[k2][j]), with
   [a] and [b] native or +∞. An escaped operand takes the exact path. *)
let relax_row o ri r1 r2 a b =
  let m = o.m in
  for j = 0 to o.n2 - 1 do
    let x = m.(r1 + j) and y = m.(r2 + j) in
    if x <> esc && y <> esc then (
      let ca = if a = inf || x = inf then inf else a + x
      and cb = if b = inf || y = inf then inf else b + y in
      let c = if ca < cb then ca else cb in
      if c <> inf then (
        let p = ri + j in
        let cur = m.(p) in
        if c < cur || cur = esc then tighten_int o p c))
    else
      tighten o (ri + j)
        (ub_min (ub_add (ub_of_int a) (get o (r1 + j))) (ub_add (ub_of_int b) (get o (r2 + j))))
  done

(* the same step over exact bounds, for rows whose [a] or [b] escapes *)
let relax_row_exact o ri r1 r2 k1 k2 =
  let ik1 = get o (ri + k1) and ik2 = get o (ri + k2) in
  let a = ub_min ik1 (ub_add ik2 (get o (r2 + k1)))
  and b = ub_min ik2 (ub_add ik1 (get o (r1 + k2))) in
  for j = 0 to o.n2 - 1 do
    tighten o (ri + j) (ub_min (ub_add a (get o (r1 + j))) (ub_add b (get o (r2 + j))))
  done

(* [close ~pivots o] is the strong closure of [o] when [o.m] came from a
   strongly closed matrix by tightening entries whose two endpoints are
   both variables in [pivots]: a shorter path must then run through those
   variables, so the Floyd–Warshall step pivots on them alone, skipping
   rows whose two pivot entries are +∞ (they cannot improve). One
   strengthening pass over the whole matrix follows; after a shortest-path
   closure that single pass gives the strong closure over ℚ (Bagnara, Hill
   & Zaffanella). Without [pivots] it pivots on every variable, which
   closes any matrix. It works in place: [o] must be a matrix the caller
   owns, such as the fresh copy every transfer tightens. Native entries
   are relaxed and compared as ints; only an entry that tightens to a
   bound outside the native range allocates. *)
let close ?pivots o =
  Pperf_obs.Obs.incr (Lazy.force c_closures);
  let n2 = o.n2 and m = o.m in
  let pivots =
    match pivots with Some ks -> ks | None -> List.init (Array.length o.vars) Fun.id
  in
  let relaxed = ref 0 in
  List.iter
    (fun k ->
      let k1 = 2 * k and k2 = (2 * k) + 1 in
      let r1 = k1 * n2 and r2 = k2 * n2 in
      for i = 0 to n2 - 1 do
        let ri = i * n2 in
        let ik1 = m.(ri + k1) and ik2 = m.(ri + k2) in
        if ik1 <> inf || ik2 <> inf then (
          incr relaxed;
          (* shortest ways from i into v_k1 and v_k2, each possibly via the
             other: the four paths of Miné's step in two additions *)
          let a = via ik1 ik2 m.(r2 + k1) and b = via ik2 ik1 m.(r1 + k2) in
          if (a = inf || native a) && (b = inf || native b) then relax_row o ri r1 r2 a b
          else relax_row_exact o ri r1 r2 k1 k2)
      done)
    pivots;
  Pperf_obs.Obs.add (Lazy.force c_pivot_rows) !relaxed;
  (* u.(j) = m[j̄][j], the unary entry of split variable j̄ (v_j̄ - v_j) *)
  let u = Array.make n2 inf in
  for j = 0 to n2 - 1 do
    u.(j) <- m.(((j lxor 1) * n2) + j)
  done;
  (* strengthening: m[i][j] <- min m[i][j] ((u.(ī) + u.(j)) / 2); the pass
     never tightens the entries it reads *)
  for i = 0 to n2 - 1 do
    let ri = i * n2 in
    let ui = u.(i lxor 1) in
    if ui <> inf then
      for j = 0 to n2 - 1 do
        let uj = u.(j) in
        if uj <> inf then (
          let p = ri + j in
          let cur = m.(p) in
          if ui <> esc && uj <> esc && cur <> esc then (
            let s = ui + uj in
            if cur = inf || s < 2 * cur then
              if s land 1 = 0 then m.(p) <- s asr 1 else set_exact o p (Rat.of_ints s 2))
          else
            tighten_exact o p
              (Rat.mul Rat.half
                 (Rat.add (exact o (ri + (i lxor 1))) (exact o (((j lxor 1) * n2) + j)))))
      done
  done;
  let empty = ref false in
  for i = 0 to n2 - 1 do
    let p = (i * n2) + i in
    let c = m.(p) in
    if (c = esc && Rat.sign o.q.(p) < 0) || (c <> esc && c < 0) then empty := true;
    m.(p) <- 0
  done;
  if !empty then Bot else Oct o

(* ---------- entry helpers ---------- *)

(* Index of the split variable carrying [s·x] for variable slot [a]. *)
let pos_of a s = if s > 0 then 2 * a else (2 * a) + 1

(* Upper bound of [sa·x_a + sb·x_b] straight from the matrix: the column
   holds the split variable equal to [-sb·x_b]. *)
let pair_ub o a sa b sb = get o (at o (pos_of a sa) (pos_of b (-sb)))

let unary_ub o a s =
  let i = pos_of a s in
  ub_half (get o (at o i (i lxor 1)))

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

let tighten2 o i j v =
  tighten o (at o i j) v;
  tighten o (at o (j lxor 1) (i lxor 1)) v

let set_upper o a c = tighten_exact o (at o (2 * a) ((2 * a) + 1)) (Rat.mul Rat.two c)
let set_lower o a c = tighten_exact o (at o ((2 * a) + 1) (2 * a)) (Rat.neg (Rat.mul Rat.two c))

let set_interval o a iv =
  (match Interval.hi iv with Interval.Fin h -> set_upper o a h | _ -> ());
  match Interval.lo iv with Interval.Fin l -> set_lower o a l | _ -> ()

(* ints under 2^59 in magnitude: doubled, plus a native bound, they stay
   under 2^62 *)
let small v = v > -(1 lsl 59) && v < 1 lsl 59

(* [2·b] for a finite interval bound [b] that is a small integer, else [esc] *)
let doubled = function
  | Interval.Fin r -> ( match Rat.to_int r with Some v when small v -> 2 * v | _ -> esc)
  | _ -> esc

(* -2·lo(s·v) in int units, for [v] over the general path's interval of it:
   [ivb v] met with the octagon's projection (or [ivb v] alone when they
   are disjoint). +∞ is [inf]; [esc] when a bound is not a small integer or
   native, or the projection is empty. *)
let neg_lo2 o ivb v slot s =
  let iv = ivb v in
  let ah = match Interval.hi iv with Interval.Pos_inf -> inf | b -> doubled b
  and an =
    match Interval.lo iv with
    | Interval.Neg_inf -> inf
    | b ->
      let d = doubled b in
      if d = esc then esc else -d
  in
  let bh = match slot with Some b -> o.m.(at o (2 * b) ((2 * b) + 1)) | None -> inf
  and bn = match slot with Some b -> o.m.(at o ((2 * b) + 1) (2 * b)) | None -> inf in
  if ah = esc || an = esc || bh = esc || bn = esc || (bh <> inf && bn <> inf && bh + bn < 0) then esc
  else (
    let h = if ah < bh then ah else bh and n = if an < bn then an else bn in
    let meets = h = inf || n = inf || h + n >= 0 in
    if s > 0 then if meets then n else an else if meets then h else ah)

(* Any form: each term's unary bound from the lower bound of the rest, each
   pair's entry from that of the residual, both bounded against the
   pre-state. *)
let meet_general ~ivb o0 (lin : Lin.t) =
  let o = extend o0 (Lin.vars lin) in
  let pre = Oct o in
  let o' = copy o in
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
          if Rat.sign a > 0 then set_upper o' ia v else set_lower o' ia v
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
                tighten2 o' (pos_of ia sa) (pos_of ib (-sb)) (Fin c)
              | _ -> ()))
          rest);
      pairs rest
  in
  pairs lin.terms;
  close ~pivots:(List.filter_map (idx o) (Lin.vars lin)) o'

(* [sa·x + sb·y + c <= 0] with unit coefficients and [y] absent for a
   unary form, read off in int units: what the general path derives from
   it, each variable's unary bound from the other's interval (the [ivb]
   bound met with the octagon's projection) and the pair entry from [c].
   [None] when [c] or those bounds are not small integers. *)
let meet_octagonal ~ivb o0 (lin : Lin.t) =
  let unit (a, _) = Rat.equal a Rat.one || Rat.equal a Rat.minus_one in
  let ci = match Rat.to_int lin.const with Some v when small v -> v | _ -> esc in
  match lin.terms with
  | (sa, x) :: ([] | [ _ ]) when ci <> esc && List.for_all unit lin.terms -> (
    let o = extend o0 (Lin.vars lin) in
    let y = match lin.terms with [ _; (b, y) ] -> Some (Rat.sign b, y) | _ -> None in
    let ia = idx o x and sa = Rat.sign sa in
    let ib = Option.bind y (fun (_, y) -> idx o y) and sb = Option.fold ~none:0 ~some:fst y in
    (* -2·lo of the rest, for x and for y *)
    let rx, ry =
      match y with
      | Some (sb, y) -> (neg_lo2 o ivb y ib sb, neg_lo2 o ivb x ia sa)
      | None -> (0, inf)
    in
    if rx = esc || ry = esc then None
    else (
      (* s·v <= -(c + lo of the rest), doubled on the unary entry *)
      let o' = owned ~before:o0 o in
      let unary_at a s = at o (pos_of a s) (pos_of a (-s)) in
      (match ia with Some a when rx <> inf -> tighten_int o' (unary_at a sa) (rx - (2 * ci)) | _ -> ());
      (match ib with Some b when ry <> inf -> tighten_int o' (unary_at b sb) (ry - (2 * ci)) | _ -> ());
      (match (ia, ib) with
      | Some a, Some b ->
        let i = pos_of a sa and j = pos_of b (-sb) in
        tighten_int o' (at o' i j) (-ci);
        tighten_int o' (at o' (j lxor 1) (i lxor 1)) (-ci)
      | _ -> ());
      Some (close ~pivots:(List.filter_map Fun.id [ ia; ib ]) o')))
  | _ -> None

let meet_le ?(ivb = full_ivb) t (lin : Lin.t) =
  match t with
  | Bot -> Bot
  | Oct o0 -> (
    match Lin.is_const lin with
    | Some c -> if Rat.sign c > 0 then Bot else t
    | None -> (
      match meet_octagonal ~ivb o0 lin with Some t' -> t' | None -> meet_general ~ivb o0 lin))

let meet_eq ?ivb t lin =
  match meet_le ?ivb t lin with
  | Bot -> Bot
  | t' -> meet_le ?ivb t' (Lin.neg lin)

(* ---------- forget / assign ---------- *)

let forget_idx o a =
  let n2 = o.n2 and m = o.m in
  let i1 = 2 * a and i2 = (2 * a) + 1 in
  for j = 0 to n2 - 1 do
    if j <> i1 then m.((i1 * n2) + j) <- inf;
    if j <> i2 then m.((i2 * n2) + j) <- inf;
    if j <> i1 then m.((j * n2) + i1) <- inf;
    if j <> i2 then m.((j * n2) + i2) <- inf
  done;
  m.((i1 * n2) + i2) <- inf;
  m.((i2 * n2) + i1) <- inf

let forget t x =
  match t with
  | Bot -> Bot
  | Oct o -> (
    match idx o x with
    | None -> t
    | Some a ->
      let o = copy o in
      forget_idx o a;
      (* forgetting in a closed matrix preserves closure *)
      Oct o)

let shift o a c =
  (* exact transfer of x := x + c *)
  let o = copy o in
  let m = o.m in
  let add =
    match Rat.to_int c with
    | Some v when native v && native (2 * v) ->
      fun p d ->
        (* d is ±c or ±2c, native *)
        let e = m.(p) in
        if e = esc then set_exact o p (Rat.add o.q.(p) (Rat.of_int (d * v)))
        else if e <> inf then (
          let s = e + (d * v) in
          if native s then m.(p) <- s else set_exact o p (Rat.of_int s))
    | _ ->
      fun p d -> if m.(p) <> inf then set_exact o p (Rat.add (exact o p) (Rat.mul (Rat.of_int d) c))
  in
  let i1 = 2 * a and i2 = (2 * a) + 1 in
  for j = 0 to o.n2 - 1 do
    if j <> i1 && j <> i2 then (
      add (at o i1 j) 1;
      add (at o i2 j) (-1);
      add (at o j i1) (-1);
      add (at o j i2) 1)
  done;
  add (at o i1 i2) 2;
  add (at o i2 i1) (-2);
  Oct o

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
        let o0 = o in
        let o = extend o0 [ x; y ] in
        (match (idx o x, idx o y) with
        | Some ia, Some ib ->
          let o' = owned ~before:o0 o in
          forget_idx o' ia;
          let s = Rat.sign a in
          (* x - (±y) <= c and (±y) - x <= -c *)
          tighten2 o' (pos_of ia 1) (pos_of ib s) (Fin e.const);
          tighten2 o' (pos_of ia (-1)) (pos_of ib (-s)) (Fin (Rat.neg e.const));
          (* both ends: a path x -> y -> z is new too *)
          close ~pivots:[ ia; ib ] o'
        | _ ->
          (* y past the cap: fall back to the interval value of e *)
          let iv = bound ~ivb (Oct o) e in
          (match idx o x with
          | None -> Oct o
          | Some ia ->
            let o' = copy o in
            forget_idx o' ia;
            set_interval o' ia iv;
            close ~pivots:[ ia ] o'))
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
        let o0 = o in
        let o = extend o0 [ x ] in
        (match idx o x with
        | None -> Oct o
        | Some ia ->
          let o' = owned ~before:o0 o in
          forget_idx o' ia;
          set_interval o' ia iv;
          List.iter
            (fun (y, diff, sum) ->
              match idx o y with
              | None -> ()
              | Some ib ->
                (* x - y ∈ diff, x + y ∈ sum *)
                (match Interval.hi diff with
                | Interval.Fin h -> tighten2 o' (pos_of ia 1) (pos_of ib 1) (Fin h)
                | _ -> ());
                (match Interval.lo diff with
                | Interval.Fin l ->
                  tighten2 o' (pos_of ia (-1)) (pos_of ib (-1)) (Fin (Rat.neg l))
                | _ -> ());
                (match Interval.hi sum with
                | Interval.Fin h -> tighten2 o' (pos_of ia 1) (pos_of ib (-1)) (Fin h)
                | _ -> ());
                match Interval.lo sum with
                | Interval.Fin l ->
                  tighten2 o' (pos_of ia (-1)) (pos_of ib 1) (Fin (Rat.neg l))
                | _ -> ())
            rels;
          (* pivots: x and every y given a finite bound against it *)
          let linked =
            List.filter_map
              (fun (y, diff, sum) ->
                if Interval.is_full diff && Interval.is_full sum then None else idx o y)
              rels
          in
          close ~pivots:(ia :: linked) o')))

(* ---------- lattice operations ---------- *)

(* Rebuild o's matrix in the variable order of [vars]. *)
let conform o vars =
  let map = Array.map (fun x -> idx o x) vars in
  let n2 = 2 * Array.length vars in
  let r = { vars; n2; m = Array.make (n2 * n2) inf; q = [||] } in
  for i = 0 to n2 - 1 do
    match map.(i / 2) with
    | None -> ()
    | Some oi ->
      let src = ((2 * oi) + (i land 1)) * o.n2 in
      for j = 0 to n2 - 1 do
        match map.(j / 2) with
        | None -> ()
        | Some oj ->
          let sp = src + (2 * oj) + (j land 1) in
          let c = o.m.(sp) in
          if c = esc then set_exact r ((i * n2) + j) o.q.(sp) else r.m.((i * n2) + j) <- c
      done
  done;
  for i = 0 to n2 - 1 do
    r.m.((i * n2) + i) <- 0
  done;
  r

let union_vars oa ob =
  let all =
    List.sort_uniq String.compare (Array.to_list oa.vars @ Array.to_list ob.vars)
  in
  let rec take n = function [] -> [] | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl in
  Array.of_list (take max_vars all)

let rec sorted_from vars i =
  i + 1 >= Array.length vars
  || (String.compare vars.(i) vars.(i + 1) < 0 && sorted_from vars (i + 1))

(* Both operands in the order of the union variables; an operand already in
   that order is used as it is, not copied. Operands over the same sorted
   variables are that order already. *)
let aligned oa ob =
  let vars =
    if (oa.vars == ob.vars || oa.vars = ob.vars) && sorted_from oa.vars 0 then oa.vars
    else union_vars oa ob
  in
  let in_order o = if o.vars == vars || o.vars = vars then o else conform o vars in
  (vars, in_order oa, in_order ob)

(* a matrix over [vars] the size of [a]'s, every entry +∞ *)
let fresh_like vars a = { vars; n2 = a.n2; m = Array.make (Array.length a.m) inf; q = [||] }

(* A fresh octagon over [vars] whose entry [p] is [f r p a b]'s write. *)
let pointwise f vars a b =
  let r = fresh_like vars a in
  for p = 0 to Array.length a.m - 1 do
    f r p a b
  done;
  r

let lift2 f a b =
  match (a, b) with
  | Bot, t | t, Bot -> t
  | Oct oa, Oct ob ->
    let vars, ca, cb = aligned oa ob in
    Oct (pointwise f vars ca cb)

let for_all_entries p a b =
  let ok = ref true and i = ref 0 and n = Array.length a.m in
  while !ok && !i < n do
    ok := p a b !i;
    incr i
  done;
  !ok

let copy_entry r p s =
  let c = s.m.(p) in
  if c = esc then set_exact r p s.q.(p) else r.m.(p) <- c

let widen_ub ths ea eb =
  if ub_le eb ea then ea
  else
    match List.find_opt (fun th -> ub_le eb (Fin th)) ths with
    | Some th -> Fin th
    | None -> Inf

let widen_entry ths r p a b =
  let x = a.m.(p) and y = b.m.(p) in
  if x <> esc && y <> esc && y <= x then r.m.(p) <- x
  else set r p (widen_ub ths (get a p) (get b p))

let entry_equal a b p =
  let x = a.m.(p) in
  x = b.m.(p) && (x <> esc || Rat.equal a.q.(p) b.q.(p))

(* pointwise max of strongly closed matrices is strongly closed *)
let join a b =
  match (a, b) with
  | Bot, t | t, Bot -> t
  | Oct oa, Oct ob ->
    let vars, ca, cb = aligned oa ob in
    let r = fresh_like vars ca in
    for p = 0 to Array.length r.m - 1 do
      let x = ca.m.(p) and y = cb.m.(p) in
      if x <> esc && y <> esc then r.m.(p) <- (if x < y then y else x)
      else set r p (ub_max (get ca p) (get cb p))
    done;
    Oct r

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
    let vars, ca, cb = aligned oa ob in
    (* when [a] is in the union order and [b] is finite nowhere [a] is +∞,
       the narrowing is [a] itself, strongly closed already *)
    let unrefined a b p = a.m.(p) <> inf || b.m.(p) = inf in
    if ca == oa && for_all_entries unrefined ca cb then a
    else (
      let r = fresh_like vars ca in
      for p = 0 to Array.length r.m - 1 do
        copy_entry r p (if ca.m.(p) = inf then cb else ca)
      done;
      close r)

let equal a b =
  a == b
  ||
  match (a, b) with
  | Bot, Bot -> true
  | Bot, _ | _, Bot -> false
  | Oct oa, Oct ob ->
    let _, ca, cb = aligned oa ob in
    for_all_entries entry_equal ca cb

(* ---------- inspection ---------- *)

let signs = [| (1, 1); (1, -1); (-1, 1); (-1, -1) |]

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
    let pair a sa b sb = at o (pos_of a sa) (pos_of b (-sb)) in
    let unary a s = at o (pos_of a s) (pos_of a (-s)) in
    (* finite entries with m[p'] = -m[p] *)
    let opposite p p' =
      let c = o.m.(p) and c' = o.m.(p') in
      c <> inf && c' <> inf
      && if c <> esc && c' <> esc then c' = -c
         else c = esc && c' = esc && Rat.equal o.q.(p') (Rat.neg o.q.(p))
    in
    (* the finite pair entry at [p] is tighter than the unary bounds imply *)
    let tighter p a sa b sb =
      let c = o.m.(p) and ua = o.m.(unary a sa) and ub = o.m.(unary b sb) in
      if c <> esc && ua <> esc && ub <> esc then ua = inf || ub = inf || ua + ub > 2 * c
      else
        not
          (ub_le
             (ub_add (ub_half (get o (unary a sa))) (ub_half (get o (unary b sb))))
             (get o p))
    in
    for a = 0 to nv - 1 do
      for b = a + 1 to nv - 1 do
        (* fuse opposite-sign pairs into equalities where exact *)
        let emitted = ref 0 in
        for k = 0 to 1 do
          let sa, sb = signs.(k) in
          let p = pair a sa b sb in
          if opposite p (pair a (-sa) b (-sb)) then (
            emitted := !emitted lor (1 lsl k) lor (1 lsl (3 - k));
            let cons = binary_cons o a sa b sb (exact o p) in
            out := { cons with Lin.is_eq = true } :: !out)
        done;
        (* only worth reporting when tighter than the unary bounds *)
        for k = 0 to 3 do
          let sa, sb = signs.(k) in
          let p = pair a sa b sb in
          if !emitted land (1 lsl k) = 0 && o.m.(p) <> inf && tighter p a sa b sb then
            out := binary_cons o a sa b sb (exact o p) :: !out
        done
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
      let i1 = 2 * a and i2 = (2 * a) + 1 in
      let free = ref true in
      let fin i j = o.m.(at o i j) <> inf in
      for j = 0 to o.n2 - 1 do
        if j <> i1 && (fin i1 j || fin j i1) then free := false;
        if j <> i2 && (fin i2 j || fin j i2) then free := false
      done;
      !free)

let satisfies f t =
  match t with
  | Bot -> false
  | Oct o ->
    let value i =
      let v = f o.vars.(i / 2) in
      if i mod 2 = 0 then v else Rat.neg v
    in
    let ok = ref true in
    for i = 0 to o.n2 - 1 do
      for j = 0 to o.n2 - 1 do
        match get o (at o i j) with
        | Inf -> ()
        | Fin c -> if Rat.compare (Rat.sub (value i) (value j)) c > 0 then ok := false
      done
    done;
    !ok

let reclose = function Bot -> Bot | Oct o -> close (copy o)

(* Entry by entry on the exact view, both operands re-indexed: no native
   shortcut shared with the operations it checks. *)
module Reference = struct
  let lift2 f a b =
    match (a, b) with
    | Bot, t | t, Bot -> t
    | Oct oa, Oct ob ->
      let vars = union_vars oa ob in
      Oct
        (pointwise
           (fun r p a b -> set r p (f (get a p) (get b p)))
           vars (conform oa vars) (conform ob vars))

  let join a b = reclose (lift2 ub_max a b)

  let widen ?(thresholds = []) a b =
    reclose (lift2 (widen_ub (List.sort_uniq Rat.compare thresholds)) a b)

  let narrow a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Oct _, Oct _ -> reclose (lift2 (fun ea eb -> match ea with Inf -> eb | _ -> ea) a b)

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Bot, _ | _, Bot -> false
    | Oct oa, Oct ob ->
      let vars = union_vars oa ob in
      for_all_entries
        (fun a b p -> ub_equal (get a p) (get b p))
        (conform oa vars) (conform ob vars)
end
