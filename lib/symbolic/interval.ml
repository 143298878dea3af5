open Pperf_num

type bound = Neg_inf | Fin of Rat.t | Pos_inf

let bound_compare a b =
  match (a, b) with
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Fin x, Fin y -> Rat.compare x y

let bound_min a b = if bound_compare a b <= 0 then a else b
let bound_max a b = if bound_compare a b >= 0 then a else b

let bound_neg = function Neg_inf -> Pos_inf | Pos_inf -> Neg_inf | Fin x -> Fin (Rat.neg x)

let bound_add a b =
  match (a, b) with
  | Neg_inf, Pos_inf | Pos_inf, Neg_inf -> invalid_arg "Interval: inf - inf"
  | Neg_inf, _ | _, Neg_inf -> Neg_inf
  | Pos_inf, _ | _, Pos_inf -> Pos_inf
  | Fin x, Fin y -> Fin (Rat.add x y)

(* sign of a bound: -1, 0, 1 *)
let bound_sign = function
  | Neg_inf -> -1
  | Pos_inf -> 1
  | Fin x -> Rat.sign x

let bound_mul a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (Rat.mul x y)
  | _ ->
    let s = bound_sign a * bound_sign b in
    if s > 0 then Pos_inf else if s < 0 then Neg_inf else Fin Rat.zero

type t = { lo : bound; hi : bound }

let make lo hi =
  if bound_compare lo hi > 0 then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let of_rats a b = make (Fin a) (Fin b)
let of_ints a b = of_rats (Rat.of_int a) (Rat.of_int b)
let point r = { lo = Fin r; hi = Fin r }
let of_int i = point (Rat.of_int i)
let full = { lo = Neg_inf; hi = Pos_inf }
let nonneg = { lo = Fin Rat.zero; hi = Pos_inf }
let pos_ge r = { lo = Fin r; hi = Pos_inf }
let unit_prob = of_ints 0 1

let lo t = t.lo
let hi t = t.hi

let is_point t = match (t.lo, t.hi) with Fin a, Fin b when Rat.equal a b -> Some a | _ -> None

let equal a b = bound_compare a.lo b.lo = 0 && bound_compare a.hi b.hi = 0
let is_full t = t.lo = Neg_inf && t.hi = Pos_inf

let contains t r = bound_compare t.lo (Fin r) <= 0 && bound_compare (Fin r) t.hi <= 0
let subset a b = bound_compare b.lo a.lo <= 0 && bound_compare a.hi b.hi <= 0

let intersect a b =
  let lo = bound_max a.lo b.lo and hi = bound_min a.hi b.hi in
  if bound_compare lo hi <= 0 then Some { lo; hi } else None

let union a b = { lo = bound_min a.lo b.lo; hi = bound_max a.hi b.hi }

(* widening: any bound that moved outward jumps to infinity, so ascending
   chains in a fixpoint stabilize after one widening step per bound *)
let widen a b =
  {
    lo = (if bound_compare b.lo a.lo < 0 then Neg_inf else a.lo);
    hi = (if bound_compare b.hi a.hi > 0 then Pos_inf else a.hi);
  }

(* narrowing: recover a finite bound that widening threw away, but never
   move a finite bound (so a descending chain also stabilizes) *)
let narrow a b =
  {
    lo = (match a.lo with Neg_inf -> b.lo | _ -> a.lo);
    hi = (match a.hi with Pos_inf -> b.hi | _ -> a.hi);
  }

let width t =
  match (t.lo, t.hi) with Fin a, Fin b -> Some (Rat.sub b a) | _ -> None

let midpoint t =
  match (t.lo, t.hi) with
  | Fin a, Fin b -> Rat.mul Rat.half (Rat.add a b)
  | Fin a, Pos_inf -> Rat.add a Rat.one
  | Neg_inf, Fin b -> Rat.sub b Rat.one
  | _ -> Rat.zero

let sample t n =
  if n <= 0 then []
  else
    match (t.lo, t.hi) with
    | Fin a, Fin b ->
      if n = 1 then [ midpoint t ]
      else (
        let w = Rat.sub b a in
        List.init n (fun i ->
            Rat.add a (Rat.mul w (Rat.of_ints i (n - 1)))))
    | _ -> [ midpoint t ]

let neg t = { lo = bound_neg t.hi; hi = bound_neg t.lo }

let add a b = { lo = bound_add a.lo b.lo; hi = bound_add a.hi b.hi }
let sub a b = add a (neg b)

let mul a b =
  let cands = [ bound_mul a.lo b.lo; bound_mul a.lo b.hi; bound_mul a.hi b.lo; bound_mul a.hi b.hi ] in
  {
    lo = List.fold_left bound_min Pos_inf cands;
    hi = List.fold_left bound_max Neg_inf cands;
  }

let scale r t =
  if Rat.sign r >= 0 then
    { lo = bound_mul (Fin r) t.lo; hi = bound_mul (Fin r) t.hi }
  else { lo = bound_mul (Fin r) t.hi; hi = bound_mul (Fin r) t.lo }

type sign = Neg | Zero | Pos | Mixed

let sign t =
  let ls = bound_sign t.lo and hs = bound_sign t.hi in
  if ls > 0 then Pos
  else if hs < 0 then Neg
  else if ls = 0 && hs = 0 then Zero
  else if ls = 0 && bound_compare t.lo t.hi = 0 then Zero
  else Mixed

let inv t =
  (* 1/t for t not containing 0 *)
  match sign t with
  | Zero -> raise Division_by_zero
  | Mixed ->
    if contains t Rat.zero then raise Division_by_zero
    else full (* unreachable: Mixed implies contains 0 for closed intervals *)
  | Pos | Neg ->
    let binv = function
      | Neg_inf | Pos_inf -> Fin Rat.zero
      | Fin x -> Fin (Rat.inv x)
    in
    { lo = binv t.hi; hi = binv t.lo }

(* Powers past this exponent are not computed exactly: a bound's exact power
   can take more digits than any analysis affords. *)
let max_exact_pow = 64

(* a lower bound on [x ** n] over [x >= b], for [n] past [max_exact_pow]
   and odd or [b >= 0]: zero for [b] in [0, 1), minus infinity below -1,
   else [b] itself, as [b ** n] then lies between [b] and zero or beyond
   [b] away from zero *)
let far_pow_lo = function
  | Fin x as b ->
    if Rat.sign x >= 0 && Rat.compare x Rat.one < 0 then Fin Rat.zero
    else if Rat.compare x Rat.minus_one < 0 then Neg_inf
    else b
  | b -> b

(* [b ** n] when [n] is small, else a bound on the side [lower] names *)
let pow_bound ~lower n b =
  if n <= max_exact_pow then match b with Fin x -> Fin (Rat.pow x n) | b -> b
  else if lower then far_pow_lo b
  else bound_neg (far_pow_lo (bound_neg b))

let rec pow t n =
  if n = 0 then point Rat.one
  else if n < 0 then inv (pow t (-n))
  else if n = 1 then t
  else if n land 1 = 0 then (
    (* even power: range of x^n is [min|x|^n or 0, max(|lo|,|hi|)^n] *)
    let abs_lo = bound_neg t.lo in
    let hi' = pow_bound ~lower:false n (bound_max abs_lo t.hi) in
    let lo' =
      if contains t Rat.zero then Fin Rat.zero
      else
        pow_bound ~lower:true n
          (bound_min (bound_max abs_lo t.lo) (bound_max (bound_neg t.hi) t.hi))
    in
    { lo = lo'; hi = hi' })
  else { lo = pow_bound ~lower:true n t.lo; hi = pow_bound ~lower:false n t.hi }

let pp_bound fmt = function
  | Neg_inf -> Format.pp_print_string fmt "-inf"
  | Pos_inf -> Format.pp_print_string fmt "+inf"
  | Fin x -> Rat.pp fmt x

let pp fmt t = Format.fprintf fmt "[%a, %a]" pp_bound t.lo pp_bound t.hi
let to_string t = Format.asprintf "%a" pp t

module Env = struct
  module SMap = Map.Make (String)

  type nonrec t = t SMap.t

  let empty = SMap.empty
  let add = SMap.add
  let of_list l = List.fold_left (fun acc (x, iv) -> SMap.add x iv acc) empty l
  let find x t = match SMap.find_opt x t with Some iv -> iv | None -> full
  let find_opt = SMap.find_opt
  let bindings = SMap.bindings
  let midpoint_valuation t x = midpoint (find x t)

  let pp fmt t =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      (fun fmt (x, iv) -> Format.fprintf fmt "%s in %s" x (to_string iv))
      fmt (bindings t)
end

let eval_poly env p =
  List.fold_left
    (fun acc (c, m) ->
      let mi =
        List.fold_left
          (fun acc (x, k) -> mul acc (pow (Env.find x env) k))
          (point Rat.one) (Monomial.to_list m)
      in
      add acc (scale c mi))
    (point Rat.zero) (Poly.terms p)

let sign_of_poly env p = sign (eval_poly env p)
