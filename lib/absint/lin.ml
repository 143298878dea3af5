open Pperf_num
open Pperf_symbolic

type t = { terms : (Rat.t * string) list; const : Rat.t }

(* sorted by variable, each variable's coefficients summed, zeros dropped *)
let norm terms =
  let rec merge = function
    | (a, x) :: (b, y) :: rest when String.equal x y -> merge ((Rat.add a b, x) :: rest)
    | (a, x) :: rest -> if Rat.is_zero a then merge rest else (a, x) :: merge rest
    | [] -> []
  in
  merge (List.stable_sort (fun (_, x) (_, y) -> String.compare x y) terms)

let of_terms terms const = { terms = norm terms; const }
let zero = { terms = []; const = Rat.zero }
let const c = { terms = []; const = c }
let var x = { terms = [ (Rat.one, x) ]; const = Rat.zero }
let is_const l = match l.terms with [] -> Some l.const | _ -> None
let coeff x l =
  match List.find_opt (fun (_, y) -> y = x) l.terms with
  | Some (a, _) -> a
  | None -> Rat.zero

let vars l = List.map snd l.terms
let mem_var x l = List.exists (fun (_, y) -> y = x) l.terms
let neg l = { terms = List.map (fun (a, x) -> (Rat.neg a, x)) l.terms; const = Rat.neg l.const }
let add a b = of_terms (a.terms @ b.terms) (Rat.add a.const b.const)
let sub a b = add a (neg b)

let scale k l =
  if Rat.is_zero k then zero
  else { terms = List.map (fun (a, x) -> (Rat.mul k a, x)) l.terms; const = Rat.mul k l.const }

let add_const c l = { l with const = Rat.add l.const c }
let drop_var x l = { l with terms = List.filter (fun (_, y) -> y <> x) l.terms }

let rename x y l =
  of_terms (List.map (fun (a, v) -> (a, if v = x then y else v)) l.terms) l.const

let of_poly p =
  let exception Not_affine in
  try
    let terms, const =
      List.fold_left
        (fun (ts, c) (a, m) ->
          match Monomial.to_list m with
          | [] -> (ts, Rat.add c a)
          | [ (x, 1) ] -> ((a, x) :: ts, c)
          | _ -> raise Not_affine)
        ([], Rat.zero) (Poly.terms p)
    in
    Some (of_terms terms const)
  with Not_affine -> None

let to_poly l =
  List.fold_left
    (fun acc (a, x) -> Poly.add acc (Poly.scale a (Poly.var x)))
    (Poly.const l.const) l.terms

let eval f l =
  List.fold_left (fun acc (a, x) -> Rat.add acc (Rat.mul a (f x))) l.const l.terms

let eval_iv f l =
  List.fold_left
    (fun acc (a, x) -> Interval.add acc (Interval.scale a (f x)))
    (Interval.point l.const) l.terms

let equal a b =
  Rat.equal a.const b.const
  && List.length a.terms = List.length b.terms
  && List.for_all2 (fun (c, x) (d, y) -> x = y && Rat.equal c d) a.terms b.terms

type cons = { lhs : t; is_eq : bool }

let cons_equal a b = a.is_eq = b.is_eq && equal a.lhs b.lhs

let to_string l =
  let term_str first a x =
    let sign = if Rat.sign a < 0 then "- " else if first then "" else "+ " in
    let mag = Rat.abs a in
    if Rat.equal mag Rat.one then Printf.sprintf "%s%s" sign x
    else Printf.sprintf "%s%s*%s" sign (Rat.to_string mag) x
  in
  match l.terms with
  | [] -> Rat.to_string l.const
  | (a0, x0) :: rest ->
    let buf = Buffer.create 32 in
    Buffer.add_string buf (term_str true a0 x0);
    List.iter
      (fun (a, x) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (term_str false a x))
      rest;
    if not (Rat.is_zero l.const) then (
      Buffer.add_string buf (if Rat.sign l.const < 0 then " - " else " + ");
      Buffer.add_string buf (Rat.to_string (Rat.abs l.const)));
    Buffer.contents buf

let cons_to_string c =
  if c.is_eq then (
    match c.lhs.terms with
    | (a, x) :: _ ->
      (* solve for the leading variable: a*x + rest = 0  =>  x = -rest/a *)
      let rhs = scale (Rat.neg (Rat.inv a)) (drop_var x c.lhs) in
      Printf.sprintf "%s = %s" x (to_string rhs)
    | [] -> Printf.sprintf "%s = 0" (Rat.to_string c.lhs.const))
  else
    Printf.sprintf "%s <= %s"
      (to_string { c.lhs with const = Rat.zero })
      (Rat.to_string (Rat.neg c.lhs.const))
