(* Multivariate Laurent polynomials as parallel sorted arrays.

   [ms] holds monomials strictly increasing under [Monomial.compare] and
   [cs] the matching nonzero coefficients. The representation is
   canonical, so [equal] is element-wise; [add] is a single merge pass;
   [mul] builds the cross products once, sorts them, and combines
   adjacent duplicates — no per-term map rebalancing or re-scanning.
   Note the term order is plain lexicographic, not multiplicative: with
   Laurent exponents, multiplying by a monomial can reorder terms, so
   products always go through the sort-and-combine path. *)

open Pperf_num
module Obs = Pperf_obs.Obs

let c_add = Obs.counter "poly.add"
let c_mul = Obs.counter "poly.mul"
let c_eval = Obs.counter "poly.eval"
let c_subst = Obs.counter "poly.subst"

type t = { ms : Monomial.t array; cs : Rat.t array }

let zero = { ms = [||]; cs = [||] }

let monomial c m = if Rat.is_zero c then zero else { ms = [| m |]; cs = [| c |] }
let const c = monomial c Monomial.unit
let of_rat = const
let of_int i = const (Rat.of_int i)
let one = of_int 1
let var x = monomial Rat.one (Monomial.var x)
let var_pow x k = monomial Rat.one (Monomial.var_pow x k)

(* canonicalize an unsorted (monomial, coefficient) array in place:
   sort, combine equal monomials, drop zero coefficients *)
let of_pairs pairs =
  let n = Array.length pairs in
  if n = 0 then zero
  else (
    Array.sort (fun (m1, _) (m2, _) -> Monomial.compare m1 m2) pairs;
    let ms = Array.make n Monomial.unit in
    let cs = Array.make n Rat.zero in
    let out = ref 0 in
    let cur_m = ref (fst pairs.(0)) in
    let cur_c = ref (snd pairs.(0)) in
    let flush () =
      if not (Rat.is_zero !cur_c) then (
        ms.(!out) <- !cur_m;
        cs.(!out) <- !cur_c;
        incr out)
    in
    for i = 1 to n - 1 do
      let m, c = pairs.(i) in
      if Monomial.compare m !cur_m = 0 then cur_c := Rat.add !cur_c c
      else (
        flush ();
        cur_m := m;
        cur_c := c)
    done;
    flush ();
    if !out = 0 then zero
    else { ms = Array.sub ms 0 !out; cs = Array.sub cs 0 !out })

let of_terms l = of_pairs (Array.of_list (List.map (fun (c, m) -> (m, c)) l))

let neg p = { p with cs = Array.map Rat.neg p.cs }

let add p q =
  Obs.incr c_add;
  let la = Array.length p.ms and lb = Array.length q.ms in
  if la = 0 then q
  else if lb = 0 then p
  else (
    let ms = Array.make (la + lb) Monomial.unit in
    let cs = Array.make (la + lb) Rat.zero in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < la && !j < lb do
      let c = Monomial.compare p.ms.(!i) q.ms.(!j) in
      if c < 0 then (
        ms.(!n) <- p.ms.(!i);
        cs.(!n) <- p.cs.(!i);
        incr i;
        incr n)
      else if c > 0 then (
        ms.(!n) <- q.ms.(!j);
        cs.(!n) <- q.cs.(!j);
        incr j;
        incr n)
      else (
        let s = Rat.add p.cs.(!i) q.cs.(!j) in
        if not (Rat.is_zero s) then (
          ms.(!n) <- p.ms.(!i);
          cs.(!n) <- s;
          incr n);
        incr i;
        incr j)
    done;
    while !i < la do
      ms.(!n) <- p.ms.(!i);
      cs.(!n) <- p.cs.(!i);
      incr i;
      incr n
    done;
    while !j < lb do
      ms.(!n) <- q.ms.(!j);
      cs.(!n) <- q.cs.(!j);
      incr j;
      incr n
    done;
    if !n = 0 then zero
    else if !n = la + lb then { ms; cs }
    else { ms = Array.sub ms 0 !n; cs = Array.sub cs 0 !n })

let sub p q = add p (neg q)

let scale r p =
  if Rat.is_zero r then zero else { p with cs = Array.map (Rat.mul r) p.cs }

let scale_int i p = scale (Rat.of_int i) p
let add_const r p = add p (const r)

let mul p q =
  Obs.incr c_mul;
  let la = Array.length p.ms and lb = Array.length q.ms in
  if la = 0 || lb = 0 then zero
  else if la = 1 && lb = 1 then
    monomial (Rat.mul p.cs.(0) q.cs.(0)) (Monomial.mul p.ms.(0) q.ms.(0))
  else if lb = 1 && Monomial.is_unit q.ms.(0) then scale q.cs.(0) p
  else if la = 1 && Monomial.is_unit p.ms.(0) then scale p.cs.(0) q
  else (
    let pairs = Array.make (la * lb) (Monomial.unit, Rat.zero) in
    let n = ref 0 in
    for i = 0 to la - 1 do
      let mi = p.ms.(i) and ci = p.cs.(i) in
      for j = 0 to lb - 1 do
        pairs.(!n) <- (Monomial.mul mi q.ms.(j), Rat.mul ci q.cs.(j));
        incr n
      done
    done;
    of_pairs pairs)

let sum = List.fold_left add zero

let is_zero p = Array.length p.ms = 0
let num_terms p = Array.length p.ms

let terms p =
  let acc = ref [] in
  for i = Array.length p.ms - 1 downto 0 do
    acc := (p.cs.(i), p.ms.(i)) :: !acc
  done;
  !acc

let coeff m p =
  (* binary search over the sorted monomial array *)
  let lo = ref 0 and hi = ref (Array.length p.ms) in
  let found = ref Rat.zero in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Monomial.compare m p.ms.(mid) in
    if c = 0 then (
      found := p.cs.(mid);
      lo := !hi)
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

let constant_term p = coeff Monomial.unit p

let is_const p =
  match Array.length p.ms with
  | 0 -> true
  | 1 -> Monomial.is_unit p.ms.(0)
  | _ -> false

let to_const p =
  if is_zero p then Some Rat.zero else if is_const p then Some p.cs.(0) else None

let pow p n =
  if n >= 0 then (
    let rec go acc b n =
      if n = 0 then acc
      else if n land 1 = 1 then go (mul acc b) (mul b b) (n asr 1)
      else go acc (mul b b) (n asr 1)
    in
    go one p n)
  else if num_terms p = 1 then monomial (Rat.pow p.cs.(0) n) (Monomial.pow p.ms.(0) n)
  else invalid_arg "Poly.pow: negative exponent of a multi-term polynomial"

let div_exact p q =
  if num_terms q = 1 then (
    let mq = q.ms.(0) and cq = q.cs.(0) in
    Some
      (of_pairs
         (Array.init (num_terms p) (fun i ->
              (Monomial.div p.ms.(i) mq, Rat.div p.cs.(i) cq)))))
  else None

let vars p =
  Array.fold_left
    (fun acc m -> List.fold_left (fun s x -> x :: s) acc (Monomial.vars m))
    [] p.ms
  |> List.sort_uniq String.compare

let mem_var x p = Array.exists (fun m -> Monomial.exponent x m <> 0) p.ms

let total_degree p =
  Array.fold_left (fun acc m -> max acc (Monomial.total_degree m)) 0 p.ms

let degree_in x p =
  if is_zero p then 0
  else Array.fold_left (fun acc m -> max acc (Monomial.exponent x m)) min_int p.ms

let min_degree_in x p =
  if is_zero p then 0
  else Array.fold_left (fun acc m -> min acc (Monomial.exponent x m)) max_int p.ms

let is_polynomial p = Array.for_all Monomial.is_polynomial p.ms

let is_univariate p = match vars p with [ x ] -> Some x | _ -> None

let eval env p =
  Obs.incr c_eval;
  let acc = ref Rat.zero in
  for i = 0 to Array.length p.ms - 1 do
    acc := Rat.add !acc (Rat.mul p.cs.(i) (Monomial.eval env p.ms.(i)))
  done;
  !acc

let eval_float env p =
  let acc = ref 0.0 in
  for i = 0 to Array.length p.ms - 1 do
    let mv =
      List.fold_left
        (fun a (x, k) -> a *. (env x ** float_of_int k))
        1.0
        (Monomial.to_list p.ms.(i))
    in
    acc := !acc +. (Rat.to_float p.cs.(i) *. mv)
  done;
  !acc

let eval_partial env p =
  let pairs =
    Array.init (num_terms p) (fun i ->
        let kept, value =
          List.fold_left
            (fun (kept, value) (x, k) ->
              match env x with
              | Some v -> (kept, Rat.mul value (Rat.pow v k))
              | None -> (Monomial.mul kept (Monomial.var_pow x k), value))
            (Monomial.unit, p.cs.(i))
            (Monomial.to_list p.ms.(i))
        in
        (kept, value))
  in
  of_pairs pairs

let subst x q p =
  Obs.incr c_subst;
  let acc = ref zero in
  for i = 0 to num_terms p - 1 do
    let m = p.ms.(i) and c = p.cs.(i) in
    let k = Monomial.exponent x m in
    if k = 0 then acc := add !acc (monomial c m)
    else (
      let rest = Monomial.div m (Monomial.var_pow x k) in
      let qk =
        if k >= 0 then pow q k
        else if num_terms q = 1 then pow q k
        else invalid_arg "Poly.subst: negative power of a multi-term substituend"
      in
      acc := add !acc (mul (monomial c rest) qk))
  done;
  !acc

let deriv x p =
  let pairs =
    Array.init (num_terms p) (fun i ->
        let m = p.ms.(i) in
        let k = Monomial.exponent x m in
        if k = 0 then (Monomial.unit, Rat.zero)
        else (Monomial.mul m (Monomial.var_pow x (-1)), Rat.mul p.cs.(i) (Rat.of_int k)))
  in
  of_pairs pairs

let coeffs_in x p =
  let tbl = Hashtbl.create 8 in
  for i = 0 to num_terms p - 1 do
    let m = p.ms.(i) in
    let k = Monomial.exponent x m in
    let rest = Monomial.div m (Monomial.var_pow x k) in
    let cur = match Hashtbl.find_opt tbl k with Some q -> q | None -> zero in
    Hashtbl.replace tbl k (add cur (monomial p.cs.(i) rest))
  done;
  Hashtbl.fold (fun k q acc -> (k, q) :: acc) tbl []
  |> List.filter (fun (_, q) -> not (is_zero q))
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

let univariate_coeffs x p =
  let d = degree_in x p in
  let lo = min_degree_in x p in
  if lo < 0 then invalid_arg "Poly.univariate_coeffs: negative exponents present";
  let d = max d 0 in
  let cs = Array.make (d + 1) Rat.zero in
  for i = 0 to num_terms p - 1 do
    let m = p.ms.(i) in
    let k = Monomial.exponent x m in
    if not (Monomial.equal m (Monomial.var_pow x k)) then
      invalid_arg "Poly.univariate_coeffs: polynomial is not univariate";
    cs.(k) <- Rat.add cs.(k) p.cs.(i)
  done;
  cs

let clear_denominators x p =
  let lo = min_degree_in x p in
  if lo >= 0 then p else mul p (var_pow x (-lo))

let equal p q =
  p == q
  || (Array.length p.ms = Array.length q.ms
      && (let ok = ref true in
          let i = ref 0 in
          let n = Array.length p.ms in
          while !ok && !i < n do
            if
              not
                (Monomial.equal p.ms.(!i) q.ms.(!i) && Rat.equal p.cs.(!i) q.cs.(!i))
            then ok := false;
            incr i
          done;
          !ok))

(* same order as the previous map-based representation: lexicographic
   over (monomial, coefficient) bindings in increasing monomial order,
   with the shorter polynomial sorting first on a tie *)
let compare p q =
  if p == q then 0
  else (
    let la = Array.length p.ms and lb = Array.length q.ms in
    let rec go i =
      if i >= la then if i >= lb then 0 else -1
      else if i >= lb then 1
      else (
        let c = Monomial.compare p.ms.(i) q.ms.(i) in
        if c <> 0 then c
        else (
          let c = Rat.compare p.cs.(i) q.cs.(i) in
          if c <> 0 then c else go (i + 1)))
    in
    go 0)

let hash p =
  Hashtbl.hash (List.map (fun (c, m) -> (Rat.hash c, Monomial.hash m)) (terms p))

let pp fmt p =
  if is_zero p then Format.pp_print_string fmt "0"
  else (
    (* print highest total degree first for readability *)
    let ts =
      terms p
      |> List.sort (fun (_, m1) (_, m2) ->
             let d = Stdlib.compare (Monomial.total_degree m2) (Monomial.total_degree m1) in
             if d <> 0 then d else Monomial.compare m1 m2)
    in
    List.iteri
      (fun i (c, m) ->
        let neg = Rat.sign c < 0 in
        let ac = Rat.abs c in
        if i = 0 then (if neg then Format.pp_print_string fmt "-")
        else Format.pp_print_string fmt (if neg then " - " else " + ");
        if Monomial.is_unit m then Format.fprintf fmt "%a" Rat.pp ac
        else if Rat.equal ac Rat.one then Monomial.pp fmt m
        else Format.fprintf fmt "%a*%a" Rat.pp ac Monomial.pp m)
      ts)

let to_string p = Format.asprintf "%a" pp p

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( ~- ) = neg
end
