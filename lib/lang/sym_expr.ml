(** Conversion of PF integer expressions to symbolic polynomials.

    This is the bridge the paper's aggregation model relies on: "unknowns in
    control statements and array subscripts are treated as variables in the
    performance expressions" (§2). Program variables become polynomial
    variables of the same name. *)

open Pperf_num
open Pperf_symbolic

(** [to_poly e] is [Some p] when [e] is a polynomial expression over program
    variables: literals, variables, [+], [-], [*], integer [**], and
    division by a nonzero constant (yielding rational coefficients, as in a
    trip count [(n-1)/2]). [None] otherwise (calls, array elements,
    logicals, symbolic divisors, a sum raised past
    {!Interval.max_exact_pow}). *)
let rec to_poly (e : Ast.expr) : Poly.t option =
  match e with
  | Ast.Int i -> Some (Poly.of_int i)
  | Ast.Real (f, _) -> if Float.is_integer f then Some (Poly.of_int (int_of_float f)) else None
  | Ast.Logical _ -> None
  | Ast.Var x -> Some (Poly.var x)
  | Ast.Index _ | Ast.Call _ -> None
  | Ast.Unop (Ast.Neg, a) -> Option.map Poly.neg (to_poly a)
  | Ast.Unop (Ast.Not, _) -> None
  | Ast.Binop (op, a, b) -> (
    match (to_poly a, to_poly b) with
    | Some pa, Some pb -> (
      match op with
      | Ast.Add -> Some (Poly.add pa pb)
      | Ast.Sub -> Some (Poly.sub pa pb)
      | Ast.Mul -> Some (Poly.mul pa pb)
      | Ast.Div -> (
        match Poly.to_const pb with
        | Some c when not (Rat.is_zero c) -> Some (Poly.scale (Rat.inv c) pa)
        | _ -> None)
      | Ast.Pow -> (
        match Poly.to_const pb with
        | Some c when Rat.is_integer c && Rat.sign c >= 0 -> (
          match Rat.to_int c with
          | Some k when k > Interval.max_exact_pow && Poly.num_terms pa > 1 ->
            (* the expansion of a sum's power grows with the exponent in
               terms and in binomial digits; past the cap interval powers
               use, the expression is left non-polynomial *)
            None
          | Some k -> Some (Poly.pow pa k)
          | None -> None)
        | _ -> None)
      | _ -> None)
    | _ -> None)

(** Affine view of a polynomial w.r.t. given index variables:
    [Some (coeffs, rest)] where the polynomial equals
    [sum_i coeffs_i * var_i + rest] and [rest] does not mention the index
    variables. Coefficients must be integer constants. *)
let affine_of_poly (vars : string list) (p : Poly.t) : (int list * Poly.t) option =
  let vars = Array.of_list vars in
  let n = Array.length vars in
  (* a repeated variable takes its coefficient at its first position and
     0 at the later ones *)
  let first = Array.init n (fun k -> not (Array.exists (String.equal vars.(k)) (Array.sub vars 0 k))) in
  let coeffs = Array.make n 0 in
  let exception Not_affine in
  (* the term's index variable, when it is one to the first power alone;
     -1 when it holds none *)
  let index_of m =
    let found = ref (-1) in
    for k = 0 to n - 1 do
      if first.(k) then (
        let e = Monomial.exponent vars.(k) m in
        if e <> 0 then
          if e <> 1 || !found >= 0 || Monomial.num_vars m <> 1 then raise Not_affine
          else found := k)
    done;
    !found
  in
  match
    Poly.filter
      (fun c m ->
        match index_of m with
        | -1 -> true
        | k -> (
          match if Rat.is_integer c then Rat.to_int c else None with
          | Some ci ->
            coeffs.(k) <- ci;
            false
          | None -> raise Not_affine))
      p
  with
  | rest -> Some (Array.to_list coeffs, rest)
  | exception Not_affine -> None

(** [affine_of_poly] of the subscript's polynomial. *)
let affine_in (vars : string list) (e : Ast.expr) : (int list * Poly.t) option =
  match to_poly e with None -> None | Some p -> affine_of_poly vars p

(* Cheap affine screen used by the translator's subscript test, which
   runs for every array reference of every block translation. The walk
   computes the exact linear coefficients of the index variables without
   materializing any polynomial; [`Unknown] (coefficient constness not
   syntactically decidable, or possible cancellation of a nonlinear
   term) sends the caller to the full [affine_in]. *)
let affine_hint (vars : string list) (e : Ast.expr) : [ `Affine | `Not | `Unknown ] =
  (* abstract value: [konst] when the expression is that constant;
     [coeffs] the (nonzero) linear coefficients of the index variables.
     The loop-var-free residue is never needed, only whether it is a
     known constant (for products). *)
  let exception Not_poly in
  let exception Dont_know in
  let canon coeffs = List.filter (fun (_, c) -> not (Rat.is_zero c)) coeffs in
  let merge f a b =
    canon
      (List.fold_left
         (fun acc (v, c) ->
           match List.assoc_opt v acc with
           | Some c0 -> (v, f c0 c) :: List.remove_assoc v acc
           | None -> (v, f Rat.zero c) :: acc)
         a b)
  in
  let rec go (e : Ast.expr) : Rat.t option * (string * Rat.t) list =
    match e with
    | Ast.Int i -> (Some (Rat.of_int i), [])
    | Ast.Real (f, _) ->
      if Float.is_integer f then (Some (Rat.of_int (int_of_float f)), []) else raise Not_poly
    | Ast.Logical _ | Ast.Index _ | Ast.Call _ | Ast.Unop (Ast.Not, _) -> raise Not_poly
    | Ast.Var x -> if List.mem x vars then (None, [ (x, Rat.one) ]) else (None, [])
    | Ast.Unop (Ast.Neg, a) ->
      let k, cs = go a in
      (Option.map Rat.neg k, List.map (fun (v, c) -> (v, Rat.neg c)) cs)
    | Ast.Binop (Ast.Add, a, b) ->
      let ka, ca = go a and kb, cb = go b in
      let k = match (ka, kb) with Some x, Some y -> Some (Rat.add x y) | _ -> None in
      (k, merge Rat.add ca cb)
    | Ast.Binop (Ast.Sub, a, b) ->
      let ka, ca = go a and kb, cb = go b in
      let k = match (ka, kb) with Some x, Some y -> Some (Rat.sub x y) | _ -> None in
      (k, merge Rat.sub ca cb)
    | Ast.Binop (Ast.Mul, a, b) -> (
      let ka, ca = go a and kb, cb = go b in
      match (ca, cb) with
      | [], [] -> ((match (ka, kb) with Some x, Some y -> Some (Rat.mul x y) | _ -> None), [])
      | _ :: _, _ :: _ -> raise Dont_know (* nonlinear unless terms cancel later *)
      | _ :: _, [] -> (
        match kb with
        | Some c ->
          if Rat.is_zero c then (Some Rat.zero, [])
          else (None, List.map (fun (v, cv) -> (v, Rat.mul cv c)) ca)
        | None -> raise Dont_know (* coefficient constness undecidable here *))
      | [], _ :: _ -> (
        match ka with
        | Some c ->
          if Rat.is_zero c then (Some Rat.zero, [])
          else (None, List.map (fun (v, cv) -> (v, Rat.mul cv c)) cb)
        | None -> raise Dont_know))
    | Ast.Binop (Ast.Div, a, b) -> (
      let ka, ca = go a in
      let kb, cb = go b in
      match (cb, kb) with
      | [], Some c when not (Rat.is_zero c) ->
        let inv = Rat.inv c in
        (Option.map (Rat.mul inv) ka, List.map (fun (v, cv) -> (v, Rat.mul cv inv)) ca)
      | _ -> raise Not_poly)
    | Ast.Binop (Ast.Pow, a, b) -> (
      let ka, ca = go a in
      let kb, cb = go b in
      match (cb, kb) with
      | [], Some c when Rat.is_integer c && Rat.sign c >= 0 -> (
        match Rat.to_int c with
        | Some 0 -> (Some Rat.one, [])
        | Some 1 -> (ka, ca)
        | Some k -> (
          match ca with
          | [] -> ((match ka with Some x -> Some (Rat.pow x k) | None -> None), [])
          | _ :: _ -> raise Dont_know)
        | None -> raise Not_poly)
      | _ -> raise Not_poly)
    | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or), _, _)
      ->
      raise Not_poly
  in
  match go e with
  | _, coeffs -> if List.for_all (fun (_, c) -> Rat.is_integer c) coeffs then `Affine else `Not
  | exception Not_poly -> `Not
  | exception Dont_know -> `Unknown

(** Trip count of a [do] loop as a polynomial: [(hi - lo + step) / step]
    requires a constant nonzero [step]. [None] when the bounds are not
    polynomial or the step is symbolic/zero. The result uses Fortran
    semantics [max(0, floor((hi-lo+step)/step))] — the max/floor are not
    representable in a polynomial, so callers should interpret the result
    under the assumption of a nonempty loop (the paper does the same:
    performance expressions live in the region where bounds make sense). *)
let trip_count ~(lo : Ast.expr) ~(hi : Ast.expr) ~(step : Ast.expr option) : Poly.t option =
  (* recognizable restructuring idioms first: *)
  match (lo, hi, step) with
  (* strip-mined inner loop: do i = s, min(s + (w-1), H) runs w iterations
     on all but the last strip *)
  | _, Ast.Call ("min", [ Ast.Binop (Ast.Add, lo', Ast.Int w1); _ ]), None
    when Ast.equal_expr lo' lo ->
    Some (Poly.of_int (w1 + 1))
  | _, Ast.Call ("min", [ _; Ast.Binop (Ast.Add, lo', Ast.Int w1) ]), None
    when Ast.equal_expr lo' lo ->
    Some (Poly.of_int (w1 + 1))
  (* unroll remainder loop: do i = H - mod(E, f) + 1, H runs mod(E, f)
     iterations; estimate by the average (f-1)/2 — a justified guess in
     the paper's sense, bounded by the unroll factor *)
  | ( Ast.Binop (Ast.Add, Ast.Binop (Ast.Sub, hi', Ast.Call ("mod", [ _; Ast.Int f ])), Ast.Int 1),
      _, None )
    when Ast.equal_expr hi' hi && f > 0 ->
    Some (Poly.of_rat (Rat.of_ints (f - 1) 2))
  (* unit-step loops with literal/variable bounds: the closed form
     [hi - lo + 1] without materializing intermediate polynomials *)
  | Ast.Int l, Ast.Int h, None -> Some (Poly.of_int (h - l + 1))
  | Ast.Int l, Ast.Var v, None -> Some (Poly.add_const (Rat.of_int (1 - l)) (Poly.var v))
  | _ ->
  let step_poly =
    match step with
    | None -> Some Rat.one
    | Some s -> (
      match to_poly s with
      | Some p -> (
        match Poly.to_const p with
        | Some c when not (Rat.is_zero c) -> Some c
        | _ -> None)
      | None -> None)
  in
  match (to_poly lo, to_poly hi, step_poly) with
  | Some plo, Some phi, Some s ->
    Some (Poly.scale (Rat.inv s) (Poly.add (Poly.sub phi plo) (Poly.of_rat s)))
  | _ -> None
