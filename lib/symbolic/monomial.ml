(* Monomials as strictly-sorted (var, exponent) arrays with cached hash
   and total degree.
   Invariant: variables strictly increasing, exponents nonzero.

   The cached hash makes map/table lookups O(1) in the monomial size on
   mismatch, and the cached degree turns [total_degree] (called per term
   by Poly's degree queries and printing order) into a field read. The
   comparison order is the same lexicographic prefix-is-less order the
   previous assoc-list representation had under [Stdlib.compare], so
   printed term order — and therefore every pinned output — is
   unchanged. *)

module Rat = Pperf_num.Rat

let c_alloc = Pperf_obs.Obs.counter "monomial.alloc"

type t = { exps : (string * int) array; h : int; deg : int }

let mk exps =
  Pperf_obs.Obs.incr c_alloc;
  let deg = Array.fold_left (fun acc (_, k) -> acc + k) 0 exps in
  { exps; h = Hashtbl.hash exps; deg }

let unit = mk [||]
let is_unit m = Array.length m.exps = 0

let var_pow x k = if k = 0 then unit else mk [| (x, k) |]
let var x = var_pow x 1

(* merge two sorted arrays, summing exponents, dropping zeros *)
let mul a b =
  if is_unit a then b
  else if is_unit b then a
  else (
    let ea = a.exps and eb = b.exps in
    let la = Array.length ea and lb = Array.length eb in
    let out = Array.make (la + lb) ("", 0) in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < la && !j < lb do
      let (xa, ka) = ea.(!i) and (xb, kb) = eb.(!j) in
      let c = String.compare xa xb in
      if c < 0 then (
        out.(!n) <- ea.(!i);
        incr i;
        incr n)
      else if c > 0 then (
        out.(!n) <- eb.(!j);
        incr j;
        incr n)
      else (
        let k = ka + kb in
        if k <> 0 then (
          out.(!n) <- (xa, k);
          incr n);
        incr i;
        incr j)
    done;
    while !i < la do
      out.(!n) <- ea.(!i);
      incr i;
      incr n
    done;
    while !j < lb do
      out.(!n) <- eb.(!j);
      incr j;
      incr n
    done;
    if !n = 0 then unit else mk (if !n = la + lb then out else Array.sub out 0 !n))

let of_list l = List.fold_left (fun acc (x, k) -> mul acc (var_pow x k)) unit l
let to_list m = Array.to_list m.exps

let pow m n =
  if n = 0 then unit
  else if n = 1 then m
  else mk (Array.map (fun (x, k) -> (x, k * n)) m.exps)

let div a b = mul a (pow b (-1))

let num_vars m = Array.length m.exps

let exponent x m =
  (* binary search: variables are strictly sorted *)
  let e = m.exps in
  let lo = ref 0 and hi = ref (Array.length e) in
  let found = ref 0 in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let (y, k) = e.(mid) in
    let c = String.compare x y in
    if c = 0 then (
      found := k;
      lo := !hi)
    else if c < 0 then hi := mid
    else lo := mid + 1
  done;
  !found

let vars m = Array.to_list (Array.map fst m.exps)
let total_degree m = m.deg

let is_polynomial m = Array.for_all (fun (_, k) -> k > 0) m.exps

(* Same order as Stdlib.compare on the old sorted assoc lists:
   lexicographic over (var, exponent) pairs, a strict prefix sorting
   before its extensions. *)
let compare a b =
  if a == b then 0
  else (
    let ea = a.exps and eb = b.exps in
    let la = Array.length ea and lb = Array.length eb in
    let rec go i =
      if i >= la then if i >= lb then 0 else -1
      else if i >= lb then 1
      else (
        let (xa, ka) = ea.(i) and (xb, kb) = eb.(i) in
        let c = String.compare xa xb in
        if c <> 0 then c
        else (
          let c = Stdlib.compare ka kb in
          if c <> 0 then c else go (i + 1)))
    in
    go 0)

let equal a b = a == b || (a.h = b.h && a.deg = b.deg && compare a b = 0)
let hash m = m.h

let eval env m =
  Array.fold_left (fun acc (x, k) -> Rat.mul acc (Rat.pow (env x) k)) Rat.one m.exps

let pp fmt m =
  if is_unit m then Format.pp_print_string fmt "1"
  else
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "*")
      (fun fmt (x, k) ->
        if k = 1 then Format.pp_print_string fmt x else Format.fprintf fmt "%s^%d" x k)
      fmt
      (Array.to_list m.exps)

let to_string m = Format.asprintf "%a" pp m
