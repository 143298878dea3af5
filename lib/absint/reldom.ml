open Pperf_num
open Pperf_symbolic

type domain = Box | Octagon | Affine | Product

let domain_of_string = function
  | "interval" | "box" -> Some Box
  | "octagon" -> Some Octagon
  | "affine" -> Some Affine
  | "product" -> Some Product
  | _ -> None

let domain_to_string = function
  | Box -> "interval"
  | Octagon -> "octagon"
  | Affine -> "affine"
  | Product -> "product"

let all_domains = [ "interval"; "octagon"; "affine"; "product" ]

type t = { dom : domain; oct : Oct.t; aff : Affine.t }

(* lazy so interval-only runs leave the telemetry registry untouched *)
let sp_relational = lazy (Pperf_obs.Obs.span "absint.relational")
let c_widenings = lazy (Pperf_obs.Obs.counter "absint.relational.widenings")

let has_oct d = d = Octagon || d = Product
let has_aff d = d = Affine || d = Product

let top dom = { dom; oct = Oct.top; aff = Affine.top }
let domain t = t.dom
let is_bot t = Oct.is_bot t.oct || Affine.is_bot t.aff
let is_top t = Oct.is_top t.oct && Affine.is_top t.aff
let equal a b = Oct.equal a.oct b.oct && Affine.equal a.aff b.aff

let join a b =
  if a.dom = Box then a
  else { a with oct = Oct.join a.oct b.oct; aff = Affine.join a.aff b.aff }

let widen ?thresholds a b =
  if a.dom = Box then a
  else (
    Pperf_obs.Obs.incr (Lazy.force c_widenings);
    { a with oct = Oct.widen ?thresholds a.oct b.oct; aff = Affine.widen a.aff b.aff })

let narrow a b =
  if a.dom = Box then a
  else (
    let oct = Oct.narrow a.oct b.oct and aff = Affine.narrow a.aff b.aff in
    if oct == a.oct && aff == a.aff then a else { a with oct; aff })

let forget t x =
  if t.dom = Box then t
  else { t with oct = Oct.forget t.oct x; aff = Affine.forget t.aff x }

(* light reduction: exchange the facts each component can express *)
let reduce t =
  if t.dom <> Product || is_bot t then t
  else (
    (* affine x = ±y + c and x = c rows sharpen the octagon *)
    let oct =
      List.fold_left
        (fun oct (f : Lin.t) ->
          match f.terms with
          | [ _ ] | [ _; _ ] -> Oct.meet_eq oct f
          | _ -> oct)
        t.oct (Affine.rows t.aff)
    in
    (* octagon point values become rows *)
    let aff =
      List.fold_left
        (fun aff x ->
          match Interval.is_point (Oct.project oct x) with
          | Some c -> Affine.add_eq aff (Lin.add_const (Rat.neg c) (Lin.var x))
          | None -> aff)
        t.aff (Oct.tracked oct)
    in
    { t with oct; aff })

let lin_of ~aff p = Lin.of_poly (Affine.reduce_poly aff p)

let assign ~ivb t x p =
  if t.dom = Box then t
  else (
    let rhs = Option.bind p (lin_of ~aff:t.aff) in
    let rhs_oct = if has_oct t.dom then rhs else None in
    let rhs_aff = if has_aff t.dom then rhs else None in
    reduce
      {
        t with
        oct = Oct.assign ~ivb t.oct x rhs_oct;
        aff = Affine.assign t.aff x rhs_aff;
      })

let assume_le ~ivb t p =
  if t.dom = Box then t
  else
    match lin_of ~aff:t.aff p with
    | None -> t
    | Some l ->
      let t' = if has_oct t.dom then { t with oct = Oct.meet_le ~ivb t.oct l } else t in
      (match Lin.is_const (Affine.reduce_lin t'.aff l) with
      | Some c when Rat.sign c > 0 -> { t' with aff = Affine.bot }
      | _ -> t')

let assume_eq ~ivb t p =
  if t.dom = Box then t
  else
    match lin_of ~aff:t.aff p with
    | None -> t
    | Some l ->
      reduce
        {
          t with
          oct = (if has_oct t.dom then Oct.meet_eq ~ivb t.oct l else t.oct);
          aff = (if has_aff t.dom then Affine.add_eq t.aff l else t.aff);
        }

let assume_cons t (c : Lin.cons) =
  if t.dom = Box then t
  else if c.is_eq then
    reduce
      {
        t with
        oct = (if has_oct t.dom then Oct.meet_eq t.oct c.lhs else t.oct);
        aff = (if has_aff t.dom then Affine.add_eq t.aff c.lhs else t.aff);
      }
  else if has_oct t.dom then { t with oct = Oct.meet_le t.oct c.lhs }
  else t

let imeet a b = match Interval.intersect a b with Some i -> i | None -> a

let bound ~ivb t p =
  if t.dom = Box then Interval.full
  else (
    let reduced = Affine.reduce_poly t.aff p in
    let env =
      List.fold_left (fun e x -> Interval.Env.add x (ivb x) e) Interval.Env.empty
        (Poly.vars reduced)
    in
    let iv = Interval.eval_poly env reduced in
    match Lin.of_poly reduced with
    | Some l when has_oct t.dom -> imeet (Oct.bound ~ivb t.oct l) iv
    | _ -> iv)

let project t x = imeet (Oct.project t.oct x) (Affine.project t.aff x)
let rewrites t = Affine.rewrites t.aff
let reduce_poly t p = Affine.reduce_poly t.aff p
let constraints t =
  (* under Product an equality can surface from both components (an affine
     row and a fused octagon pair); keep the first rendering *)
  let same (a : Lin.cons) (b : Lin.cons) =
    Lin.cons_equal a b
    || (a.is_eq && b.is_eq && Lin.equal a.lhs (Lin.neg b.lhs))
  in
  List.fold_left
    (fun acc c -> if List.exists (same c) acc then acc else c :: acc)
    []
    (Affine.constraints t.aff @ Oct.constraints t.oct)
  |> List.rev
let entails t c = Oct.entails t.oct c || Affine.entails t.aff c

let unconstrained t x =
  (not (has_oct t.dom) || Oct.unconstrained t.oct x)
  && ((not (has_aff t.dom)) || Affine.unconstrained t.aff x)

let satisfies f t = Oct.satisfies f t.oct && Affine.satisfies f t.aff
