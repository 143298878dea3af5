(* Arbitrary-precision integers in sign-magnitude form, with an unboxed
   fast path for small values.

   Values with |v| < 2^30 are carried as a native [int] ([S]); everything
   else keeps the little-endian base-2^24 digit-array form ([B]). The
   2^30 threshold makes every small-small operation overflow-free in
   63-bit native arithmetic: sums stay below 2^31 and products below
   2^60. The representation is canonical — [B] is only used outside the
   small range — so equality never needs cross-representation digit
   comparisons. Rationals (and through them the whole symbolic layer) do
   almost all their arithmetic on small values, which this fast path
   serves without allocating.

   Magnitudes are little-endian arrays of base-2^24 digits. With 63-bit
   native ints, a digit product is < 2^48 and a full schoolbook row
   accumulation stays well below 2^62, so no intermediate overflows. *)

let base_bits = 24
let base = 1 lsl base_bits
let base_mask = base - 1

(* S values satisfy |v| < small_limit; B values are canonical (no leading
   zero digits) and always >= small_limit in magnitude *)
let small_limit = 1 lsl 30

type t = S of int | B of { sign : int; (* -1 or 1 *) mag : int array }

let zero = S 0

(* ---- magnitude helpers (arrays of digits, little-endian) ---- *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else (
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1))

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lmax = if la > lb then la else lb in
  let r = Array.make (lmax + 1) 0 in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(lmax) <- !carry;
  mag_normalize r

(* precondition: a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then (
      r.(i) <- s + base;
      borrow := 1)
    else (
      r.(i) <- s;
      borrow := 0)
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else (
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then (
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land base_mask;
          carry := s lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land base_mask;
          carry := s lsr base_bits;
          incr k
        done)
    done;
    mag_normalize r)

(* divide magnitude by small int d in (0, base); returns (quotient, remainder) *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_normalize q, !r)

let mag_shift_left_digits a k =
  if Array.length a = 0 then [||]
  else (
    let r = Array.make (Array.length a + k) 0 in
    Array.blit a 0 r k (Array.length a);
    r)

let mag_shift_left_bits a s =
  (* 0 <= s < base_bits *)
  if s = 0 then Array.copy a
  else (
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) lsl s) lor !carry in
      r.(i) <- v land base_mask;
      carry := v lsr base_bits
    done;
    r.(la) <- !carry;
    mag_normalize r)

let mag_shift_right_bits a s =
  (* 0 <= s < base_bits *)
  if s = 0 then Array.copy a
  else (
    let la = Array.length a in
    let r = Array.make la 0 in
    for i = 0 to la - 1 do
      let hi = if i + 1 < la then a.(i + 1) else 0 in
      r.(i) <- (a.(i) lsr s) lor ((hi lsl (base_bits - s)) land base_mask)
    done;
    mag_normalize r)

(* Knuth algorithm D. Preconditions: |v| >= 2 digits, |u| >= |v|. *)
let mag_divmod_knuth u v =
  let n = Array.length v in
  (* normalize so that top digit of v >= base/2 *)
  let s =
    let top = v.(n - 1) in
    let rec go s = if top lsl s >= base / 2 then s else go (s + 1) in
    go 0
  in
  let v = mag_shift_left_bits v s in
  let u = mag_shift_left_bits u s in
  let n = Array.length v in
  (* pad u with one extra high digit *)
  let m = Array.length u - n in
  let u = Array.append u [| 0 |] in
  let q = Array.make (m + 1) 0 in
  let vn1 = v.(n - 1) in
  let vn2 = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vn1) in
    let rhat = ref (num mod vn1) in
    let continue_adjust = ref true in
    while !continue_adjust do
      if !qhat >= base || !qhat * vn2 > (!rhat lsl base_bits) lor u.(j + n - 2) then (
        decr qhat;
        rhat := !rhat + vn1;
        if !rhat >= base then continue_adjust := false)
      else continue_adjust := false
    done;
    (* multiply-subtract: u[j .. j+n] -= qhat * v *)
    let borrow = ref 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let sub = u.(i + j) - (p land base_mask) - !borrow in
      if sub < 0 then (
        u.(i + j) <- sub + base;
        borrow := 1)
      else (
        u.(i + j) <- sub;
        borrow := 0)
    done;
    let sub = u.(j + n) - !carry - !borrow in
    if sub < 0 then (
      (* qhat was one too large: add back *)
      u.(j + n) <- sub + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(i + j) + v.(i) + !carry2 in
        u.(i + j) <- sum land base_mask;
        carry2 := sum lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry2) land base_mask)
    else u.(j + n) <- sub;
    q.(j) <- !qhat
  done;
  let r = mag_shift_right_bits (mag_normalize (Array.sub u 0 n)) s in
  (mag_normalize q, r)

let mag_divmod u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | 1 ->
    let q, r = mag_divmod_small u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  | _ -> if mag_compare u v < 0 then ([||], Array.copy u) else mag_divmod_knuth u v

(* ---- representation helpers ---- *)

let fits_small v = v > -small_limit && v < small_limit

(* magnitude of a native int as digits; |i| may be any int except min_int *)
let mag_of_abs_int v =
  let rec digits v acc =
    if v = 0 then List.rev acc else digits (v lsr base_bits) ((v land base_mask) :: acc)
  in
  Array.of_list (digits v [])

(* value of a (normalized) magnitude when it fits a native int, else None *)
let mag_to_int mag =
  let la = Array.length mag in
  if la * base_bits <= 60 then (
    let v = ref 0 in
    for i = la - 1 downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    Some !v)
  else None

(* canonical constructor from sign * magnitude *)
let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then S 0
  else (
    match mag_to_int mag with
    | Some v when fits_small v -> S (if sign < 0 then -v else v)
    | _ -> B { sign; mag })

(* canonical constructor from a native int; total (handles min_int) *)
let of_int i =
  if fits_small i then S i
  else if i = min_int then B { sign = -1; mag = mag_add (mag_of_abs_int max_int) [| 1 |] }
  else B { sign = (if i > 0 then 1 else -1); mag = mag_of_abs_int (Stdlib.abs i) }

(* magnitude + sign view, for mixed-representation slow paths *)
let sign_mag = function
  | S 0 -> (0, [||])
  | S v when v > 0 -> (1, mag_of_abs_int v)
  | S v -> (-1, mag_of_abs_int (-v))
  | B { sign; mag } -> (sign, mag)

let one = S 1
let two = S 2
let minus_one = S (-1)
let ten = S 10

let sign = function S v -> compare v 0 | B { sign; _ } -> sign
let is_zero t = t = S 0
let is_one t = t = S 1

let equal a b =
  match (a, b) with
  | S x, S y -> x = y
  | B x, B y -> x.sign = y.sign && mag_compare x.mag y.mag = 0
  | _ -> false (* canonical: B never holds a small value *)

let compare a b =
  match (a, b) with
  | S x, S y -> Stdlib.compare x y
  | B x, B y ->
    if x.sign <> y.sign then Stdlib.compare x.sign y.sign
    else if x.sign >= 0 then mag_compare x.mag y.mag
    else mag_compare y.mag x.mag
  | S _, B y -> if y.sign > 0 then -1 else 1 (* |B| > |S| always *)
  | B x, S _ -> if x.sign > 0 then 1 else -1

let hash = function S v -> Hashtbl.hash v | B { sign; mag } -> Hashtbl.hash (sign, mag)
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg = function S v -> S (-v) | B { sign; mag } -> B { sign = -sign; mag }
let abs = function S v -> S (Stdlib.abs v) | B { mag; _ } -> B { sign = 1; mag }

let add a b =
  match (a, b) with
  | S x, S y -> of_int (x + y) (* |x+y| < 2^31: no overflow *)
  | _ ->
    let sa, ma = sign_mag a and sb, mb = sign_mag b in
    if sa = 0 then b
    else if sb = 0 then a
    else if sa = sb then make sa (mag_add ma mb)
    else (
      let c = mag_compare ma mb in
      if c = 0 then zero
      else if c > 0 then make sa (mag_sub ma mb)
      else make sb (mag_sub mb ma))

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  match (a, b) with
  | S x, S y -> of_int (x * y) (* |x*y| < 2^60: no overflow *)
  | _ ->
    let sa, ma = sign_mag a and sb, mb = sign_mag b in
    if sa = 0 || sb = 0 then zero else make (sa * sb) (mag_mul ma mb)

let mul_int a i = mul a (of_int i)

let divmod a b =
  match (a, b) with
  | _, S 0 -> raise Division_by_zero
  | S x, S y -> (S (x / y), S (x mod y)) (* truncated toward zero, like the array path *)
  | _ ->
    let sa, ma = sign_mag a and sb, mb = sign_mag b in
    if sb = 0 then raise Division_by_zero
    else if sa = 0 then (zero, zero)
    else (
      let qm, rm = mag_divmod ma mb in
      (make (sa * sb) qm, make sa rm))

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv a b =
  let q, r = divmod a b in
  if sign r >= 0 then (q, r)
  else if sign b > 0 then (pred q, add r b)
  else (succ q, sub r b)

let gcd a b =
  match (a, b) with
  | S x, S y ->
    let rec go a b = if b = 0 then a else go b (a mod b) in
    S (go (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
    let rec go a b = if is_zero b then a else go b (rem a b) in
    go (abs a) (abs b)

let lcm a b = if is_zero a || is_zero b then zero else abs (div (mul a b) (gcd a b))

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc x n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc x) (mul x x) (n asr 1)
    else go acc (mul x x) (n asr 1)
  in
  go one x n

let shift_left t n =
  if n < 0 then invalid_arg "Bigint.shift_left";
  match t with
  | S 0 -> zero
  | S v when n <= 30 -> of_int (v lsl n) (* |v| < 2^30, n <= 30: fits 60 bits *)
  | _ ->
    let s, m = sign_mag t in
    let digits = n / base_bits and bits = n mod base_bits in
    make s (mag_shift_left_bits (mag_shift_left_digits m digits) bits)

let shift_right t n =
  if n < 0 then invalid_arg "Bigint.shift_right";
  match t with
  | S v -> S (v asr Stdlib.min n 62) (* asr floors, matching the array path *)
  | B { sign; mag } ->
    let digits = n / base_bits and bits = n mod base_bits in
    let la = Array.length mag in
    if digits >= la then (if sign > 0 then zero else minus_one)
    else (
      let m = mag_shift_right_bits (Array.sub mag digits (la - digits)) bits in
      let q = make sign m in
      if sign < 0 then (
        (* floor semantics for negatives: if any bits were shifted out, round down *)
        let shifted_back = shift_left q n in
        if equal shifted_back t then q else pred q)
      else q)

let num_bits t =
  let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
  match t with
  | S v -> bits (Stdlib.abs v) 0
  | B { mag; _ } ->
    let la = Array.length mag in
    ((la - 1) * base_bits) + bits mag.(la - 1) 0

let is_even = function S v -> v land 1 = 0 | B { mag; _ } -> mag.(0) land 1 = 0

let to_int = function
  | S v -> Some v
  | B { sign; mag } as t ->
    if num_bits t <= 62 then (
      let v = Array.fold_right (fun d acc -> (acc lsl base_bits) lor d) mag 0 in
      Some (if sign < 0 then -v else v))
    else if sign < 0 && equal t (of_int min_int) then Some min_int
    else None

let to_int_exn t =
  match to_int t with Some i -> i | None -> failwith "Bigint.to_int_exn: out of range"

let to_float = function
  | S v -> float_of_int v
  | B { sign; mag } ->
    let m = Array.fold_right (fun d acc -> (acc *. float_of_int base) +. float_of_int d) mag 0.0 in
    if sign < 0 then -.m else m

let to_string = function
  | S v -> string_of_int v
  | B { sign; mag } ->
    let buf = Buffer.create 32 in
    let rec go m =
      if Array.length m = 0 then ()
      else (
        let q, r = mag_divmod_small m 1_000_000 in
        if Array.length q = 0 then Buffer.add_string buf (string_of_int r)
        else (
          go q;
          Buffer.add_string buf (Printf.sprintf "%06d" r)))
    in
    go mag;
    (if sign < 0 then "-" else "") ^ Buffer.contents buf

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: invalid character";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if sign < 0 then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
