open Pperf_num
module B = Bigint
module Obs = Pperf_obs.Obs
module Memo = Pperf_obs.Memo

let c_chain_builds = Obs.counter "roots.chain_builds"
let c_chain_hits = Obs.counter "roots.chain_cache_hits"
let c_variations = Obs.counter "roots.variations"
let sp_sturm = Obs.span "sturm"

(* ---- dense univariate utilities (internal) ---- *)

(* coefficient arrays, low-to-high, trimmed: last element nonzero (or empty = zero poly) *)

let trim (a : Rat.t array) =
  let n = ref (Array.length a) in
  while !n > 0 && Rat.is_zero a.(!n - 1) do decr n done;
  Array.sub a 0 !n

let degree a = Array.length a - 1 (* -1 for zero poly *)

(* ---- integer dense polynomials (the Sturm-chain representation) ----

   The remainder sequence is computed over primitive integer polynomials:
   coefficient denominators are cleared once up front, every
   pseudo-remainder is divided by its content, and the pseudo-remainder
   multiplier is kept positive so each chain element is a positive
   rational multiple of the classical Sturm chain element — same signs
   everywhere, hence the same variation counts — while coefficient digit
   counts grow linearly instead of doubling per step as they do under the
   naive Euclidean sequence over {!Rat}. *)

let btrim (a : B.t array) =
  let n = ref (Array.length a) in
  while !n > 0 && B.is_zero a.(!n - 1) do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* clear denominators: lcm of the denominators times the array, giving a
   primitive-up-to-content integer polynomial with the same roots/signs *)
let bigint_of_rat_dense (a : Rat.t array) : B.t array =
  let l = Array.fold_left (fun acc r -> B.lcm acc (Rat.den r)) B.one a in
  Array.map (fun r -> B.mul (Rat.num r) (B.div l (Rat.den r))) a

let content a = Array.fold_left (fun g c -> B.gcd g c) B.zero a

let primitive a =
  let g = content a in
  if B.is_zero g || B.is_one g then a else Array.map (fun c -> B.div c g) a

let bderiv a =
  if Array.length a <= 1 then [||]
  else Array.init (Array.length a - 1) (fun i -> B.mul_int a.(i + 1) (i + 1))

(* sign-preserving pseudo-remainder: repeatedly
     r <- |lc(b)| * r - sign(lc(b)) * lead(r) * x^(deg r - deg b) * b
   so each step scales r by the positive |lc(b)| and cancels the leading
   term exactly; the result is a positive multiple of (a mod b) *)
let sprem (a : B.t array) (b : B.t array) : B.t array =
  let db = Array.length b - 1 in
  let lc = b.(db) in
  let alc = B.abs lc in
  let neg_lead = B.sign lc < 0 in
  let r = Array.copy a in
  let dr = ref (Array.length r - 1) in
  while !dr >= db do
    let top = r.(!dr) in
    if B.is_zero top then decr dr
    else (
      let top = if neg_lead then B.neg top else top in
      for i = 0 to !dr - 1 do
        r.(i) <- B.mul alc r.(i)
      done;
      let shift = !dr - db in
      for i = 0 to db - 1 do
        r.(shift + i) <- B.sub r.(shift + i) (B.mul top b.(i))
      done;
      (* the leading term cancels exactly: |lc|*lead(r) - sign(lc)*lead(r)*lc = 0 *)
      r.(!dr) <- B.zero;
      decr dr)
  done;
  btrim r

(* Sturm chain over primitive integer polynomials: p, p', then negated
   primitive pseudo-remainders *)
let sturm_chain_int (p : B.t array) =
  if Array.length p <= 1 then [ p ]
  else (
    let rec go acc p0 p1 =
      if Array.length p1 = 0 then List.rev (p0 :: acc)
      else (
        let r = sprem p0 p1 in
        go (p0 :: acc) p1 (Array.map B.neg (primitive r)))
    in
    go [] (primitive p) (primitive (btrim (bderiv p))))

(* sign of a(n/d) for d > 0: sum a_i n^i d^(deg-i), pure integer Horner *)
let beval_sign (a : B.t array) ~num ~den =
  let deg = Array.length a - 1 in
  if deg < 0 then 0
  else (
    let acc = ref a.(deg) in
    let dp = ref B.one in
    for i = deg - 1 downto 0 do
      dp := B.mul !dp den;
      acc := B.add (B.mul !acc num) (B.mul a.(i) !dp)
    done;
    B.sign !acc)

(* ---- cached chains ----

   A chain is built once per distinct dense polynomial and kept in a
   per-domain memo. Endpoint variation counts are memoized inside the
   chain, because bisection in [isolate] and the region walk in
   [Signs.regions] re-query the full chain at every shared midpoint. *)

type chain = {
  polys : B.t array list;  (* primitive Sturm chain, first element = p *)
  bound : Rat.t;  (* Cauchy root bound of p *)
  endpoints : (Rat.t, int) Memo.t;  (* endpoint -> variation count *)
}

let variations ch x =
  Memo.find_or_add ch.endpoints x (fun () ->
      Obs.incr c_variations;
      let num = Rat.num x and den = Rat.den x in
      let signs =
        List.filter_map
          (fun p ->
            let s = beval_sign p ~num ~den in
            if s = 0 then None else Some s)
          ch.polys
      in
      let rec count = function
        | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + count rest
        | _ -> 0
      in
      count signs)

(* distinct roots in (a, b] by Sturm *)
let count_half_open ch a b = variations ch a - variations ch b

(* sign of p at a rational point, via the chain's primitive first element:
   pure-Bigint Horner, no Rat normalization — this is the bisection's
   zero-check hot path (a dense Rat eval at a depth-k dyadic midpoint costs
   ~0.3ms in gcd work; this is microseconds) *)
let point_sign ch x = beval_sign (List.hd ch.polys) ~num:(Rat.num x) ~den:(Rat.den x)
let is_root ch x = point_sign ch x = 0

(* Cauchy root bound: all roots have |x| <= 1 + max|a_i|/|a_n| *)
let cauchy_bound p =
  let d = degree p in
  if d <= 0 then Rat.one
  else (
    let lead = Rat.abs p.(d) in
    let m = ref Rat.zero in
    for i = 0 to d - 1 do
      m := Rat.max !m (Rat.abs p.(i))
    done;
    Rat.add Rat.one (Rat.div !m lead))

(* per-domain chain memo, keyed on the dense coefficient array (canonical:
   trimmed, exact rationals), so the same difference polynomial queried in
   different variables or re-derived from different sources still shares
   one chain. An evicted chain takes its endpoint memo with it. *)
let chains =
  Memo.create ~on_drop:(fun ch -> Memo.clear ch.endpoints) Memo.Per_domain "roots.chains"
    ~capacity:128

let build_chain (d : Rat.t array) =
  Obs.incr c_chain_builds;
  Obs.time sp_sturm @@ fun () ->
  { polys = sturm_chain_int (bigint_of_rat_dense d);
    bound = cauchy_bound d;
    endpoints =
      Memo.create ~hash:Rat.hash ~equal:Rat.equal Memo.Local "roots.endpoints" ~capacity:8192 }

let chain_for (d : Rat.t array) =
  match Memo.find chains d with
  | Some ch -> Obs.incr c_chain_hits; ch
  | None -> Memo.add chains d (build_chain d)

(* ---- public interface over Poly ---- *)

type enclosure = { lo : Rat.t; hi : Rat.t }

let dense_of_poly p x =
  let p = Poly.clear_denominators x p in
  (match Poly.vars p with
   | [] -> ()
   | [ v ] when String.equal v x -> ()
   | _ -> invalid_arg "Roots: polynomial is not univariate in the given variable");
  trim (Poly.univariate_coeffs x p)

let eval_at p x v =
  (* evaluate the original (possibly Laurent) polynomial *)
  Poly.eval (fun y -> if String.equal y x then v else invalid_arg "Roots.eval_at: extra variable") p

let interval_points (iv : Interval.t) bound_hint =
  (* produce finite endpoints for Sturm queries, clipping infinities at the
     Cauchy bound (no roots beyond it) *)
  let lo =
    match Interval.lo iv with
    | Interval.Neg_inf -> Rat.neg bound_hint
    | Interval.Fin x -> x
    | Interval.Pos_inf -> bound_hint
  in
  let hi =
    match Interval.hi iv with
    | Interval.Pos_inf -> bound_hint
    | Interval.Fin x -> x
    | Interval.Neg_inf -> Rat.neg bound_hint
  in
  (lo, hi)

let count_in p x iv =
  let d = dense_of_poly p x in
  if degree d <= 0 then 0
  else (
    let chain = chain_for d in
    let b = chain.bound in
    let lo, hi = interval_points iv b in
    if Rat.compare lo hi >= 0 then (if Interval.contains iv lo && is_root chain lo then 1 else 0)
    else (
      let n = count_half_open chain lo hi in
      (* (lo, hi] -> adjust for lo itself being a root *)
      let n = if is_root chain lo then n + 1 else n in
      n))

(* the width an inexact root enclosure is narrowed to *)
let eps = Rat.make Pperf_num.Bigint.one (Pperf_num.Bigint.shift_left Pperf_num.Bigint.one 20)

(* simplest rational in the closed interval [a, b] (a <= b), by the
   continued-fraction construction; used to recognize exact rational roots
   inside a narrow enclosure *)
let rec simplest_in a b =
  if Rat.compare a b > 0 then invalid_arg "simplest_in";
  if Rat.sign a <= 0 && Rat.sign b >= 0 then Rat.zero
  else if Rat.sign b < 0 then Rat.neg (simplest_in (Rat.neg b) (Rat.neg a))
  else (
    (* 0 < a <= b *)
    let fa = Rat.floor a in
    let fb = Rat.floor b in
    if Pperf_num.Bigint.compare fa fb < 0 || Rat.is_integer a then
      (* an integer lies within *)
      Rat.of_bigint (Rat.ceil a)
    else (
      let fa_r = Rat.of_bigint fa in
      let a' = Rat.sub a fa_r and b' = Rat.sub b fa_r in
      (* recurse on reciprocals: simplest in [1/b', 1/a'] *)
      let inner = simplest_in (Rat.inv b') (Rat.inv a') in
      Rat.add fa_r (Rat.inv inner)))

let isolate p x iv =
  let d = dense_of_poly p x in
  if degree d <= 0 then []
  else (
    let chain = chain_for d in
    let b = chain.bound in
    let lo, hi = interval_points iv b in
    if Rat.compare lo hi > 0 then []
    else (
      let roots_in a b = count_half_open chain a b in
      (* recursively split [a, b] (treating roots in (a,b]; root at global lo
         handled separately) until each piece holds exactly one root, then
         bisect to eps *)
      let acc = ref [] in
      let rec refine a b n =
        if n = 0 then ()
        else if n = 1 then (
          (* single root in (a, b]: bisect until narrow or exact *)
          let rec go a b =
            if Rat.compare (Rat.sub b a) eps <= 0 then (
              (* recognize exact rational roots: endpoints, then the
                 simplest rational inside the enclosure *)
              if is_root chain b then acc := { lo = b; hi = b } :: !acc
              else (
                let cand = simplest_in a b in
                if is_root chain cand then acc := { lo = cand; hi = cand } :: !acc
                else acc := { lo = a; hi = b } :: !acc))
            else (
              let m = Rat.mul Rat.half (Rat.add a b) in
              if is_root chain m then acc := { lo = m; hi = m } :: !acc
              else if roots_in a m = 1 then go a m
              else go m b)
          in
          go a b)
        else (
          let m = Rat.mul Rat.half (Rat.add a b) in
          let nl = roots_in a m in
          refine a m nl;
          refine m b (n - nl))
      in
      (if is_root chain lo && Interval.contains iv lo then
         acc := { lo; hi = lo } :: !acc);
      if Rat.compare lo hi < 0 then refine lo hi (roots_in lo hi);
      List.sort (fun e1 e2 -> Rat.compare e1.lo e2.lo) !acc))

(* ---- closed-form float solvers ---- *)

module Closed_form = struct
  let dedup_sorted xs =
    let tol = 1e-9 in
    let rec go = function
      | a :: b :: rest when Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a) -> go (a :: rest)
      | a :: rest -> a :: go rest
      | [] -> []
    in
    go (List.sort Float.compare xs)

  let linear c =
    if Float.abs c.(1) = 0.0 then []
    else [ -.c.(0) /. c.(1) ]

  let quadratic c =
    let a = c.(2) and b = c.(1) and k = c.(0) in
    if a = 0.0 then linear [| k; b |]
    else (
      let disc = (b *. b) -. (4.0 *. a *. k) in
      if disc < 0.0 then []
      else if disc = 0.0 then [ -.b /. (2.0 *. a) ]
      else (
        let sq = sqrt disc in
        (* numerically stable form *)
        let q = -0.5 *. (b +. (Float.of_int (compare b 0.0) |> fun s -> if s = 0. then 1. else s) *. sq) in
        let r1 = q /. a in
        let r2 = if q = 0.0 then -.b /. (2. *. a) else k /. q in
        dedup_sorted [ r1; r2 ]))

  let cubic c =
    let a = c.(3) in
    if a = 0.0 then quadratic [| c.(0); c.(1); c.(2) |]
    else (
      (* normalize to x^3 + px + q via depressed cubic *)
      let b = c.(2) /. a and cc = c.(1) /. a and d = c.(0) /. a in
      let p = cc -. (b *. b /. 3.0) in
      let q = ((2.0 *. b *. b *. b) -. (9.0 *. b *. cc)) /. 27.0 +. d in
      let shift = b /. 3.0 in
      let disc = ((q *. q) /. 4.0) +. ((p *. p *. p) /. 27.0) in
      (* all multiplicity tests are against magnitude-normalized
         tolerances: an absolute cutoff like [disc > 1e-13] flips the
         classification when the coefficients are uniformly scaled (the
         discriminant of (x-λ)(x-2λ)(x-3λ) scales as λ^6) *)
      let eps = 1e-12 in
      let disc_scale = ((q *. q) /. 4.0) +. (Float.abs (p *. p *. p) /. 27.0) in
      let p_scale = Float.abs cc +. (b *. b /. 3.0) in
      let q_scale =
        ((2.0 *. Float.abs (b *. b *. b)) +. (9.0 *. Float.abs (b *. cc))) /. 27.0
        +. Float.abs d
      in
      let roots =
        if disc > eps *. disc_scale then (
          let sq = sqrt disc in
          let cbrt v = if v >= 0.0 then v ** (1.0 /. 3.0) else -.((-.v) ** (1.0 /. 3.0)) in
          [ cbrt ((-.q /. 2.0) +. sq) +. cbrt ((-.q /. 2.0) -. sq) ])
        else if Float.abs disc <= eps *. disc_scale then
          if Float.abs q <= eps *. q_scale && Float.abs p <= eps *. p_scale then [ 0.0 ]
          else dedup_sorted [ 3.0 *. q /. p; -3.0 *. q /. (2.0 *. p) ]
        else (
          (* three real roots: trigonometric method *)
          let r = sqrt (-.p *. p *. p /. 27.0) in
          let phi = acos (Float.max (-1.0) (Float.min 1.0 (-.q /. (2.0 *. r)))) in
          let m = 2.0 *. sqrt (-.p /. 3.0) in
          [ m *. cos (phi /. 3.0);
            m *. cos ((phi +. (2.0 *. Float.pi)) /. 3.0);
            m *. cos ((phi +. (4.0 *. Float.pi)) /. 3.0) ])
      in
      dedup_sorted (List.map (fun x -> x -. shift) roots))

  let quartic c =
    let a = c.(4) in
    if a = 0.0 then cubic [| c.(0); c.(1); c.(2); c.(3) |]
    else (
      (* Ferrari: depressed quartic y^4 + p y^2 + q y + r *)
      let b = c.(3) /. a and cc = c.(2) /. a and d = c.(1) /. a and e = c.(0) /. a in
      let p = cc -. (3.0 *. b *. b /. 8.0) in
      let q = d -. (b *. cc /. 2.0) +. (b *. b *. b /. 8.0) in
      let r =
        e -. (b *. d /. 4.0) +. (b *. b *. cc /. 16.0) -. (3.0 *. b *. b *. b *. b /. 256.0)
      in
      let shift = b /. 4.0 in
      (* same scale-normalization story as [cubic]: q and the resolvent
         roots are compared against the magnitudes of their formation
         terms, not absolute cutoffs *)
      let q_scale =
        Float.abs d +. (Float.abs (b *. cc) /. 2.0) +. (Float.abs (b *. b *. b) /. 8.0)
      in
      let z_scale =
        Float.max (Float.abs p) (Float.max (sqrt (Float.abs r)) ((q *. q) ** (1.0 /. 3.0)))
      in
      let ys =
        if Float.abs q <= 1e-12 *. q_scale then (
          (* biquadratic *)
          let zs = quadratic [| r; p; 1.0 |] in
          List.concat_map (fun z -> if z > 0.0 then [ sqrt z; -.sqrt z ] else if z = 0.0 then [ 0.0 ] else []) zs)
        else (
          (* resolvent cubic: z^3 + 2p z^2 + (p^2 - 4r) z - q^2 = 0, pick a positive root *)
          let res = cubic [| -.(q *. q); (p *. p) -. (4.0 *. r); 2.0 *. p; 1.0 |] in
          match List.filter (fun z -> z > 1e-12 *. z_scale) res with
          | [] -> []
          | z :: _ ->
            let w = sqrt z in
            let half1 = quadratic [| (p +. z) /. 2.0 -. (q /. (2.0 *. w)); w; 1.0 |] in
            let half2 = quadratic [| (p +. z) /. 2.0 +. (q /. (2.0 *. w)); -.w; 1.0 |] in
            half1 @ half2)
      in
      dedup_sorted (List.map (fun y -> y -. shift) ys))

  let solve c =
    let c = Array.copy c in
    let n = ref (Array.length c) in
    while !n > 0 && c.(!n - 1) = 0.0 do decr n done;
    let c = Array.sub c 0 !n in
    match Array.length c with
    | 0 | 1 -> Some []
    | 2 -> Some (linear c)
    | 3 -> Some (quadratic c)
    | 4 -> Some (cubic c)
    | 5 -> Some (quartic c)
    | _ -> None
end
