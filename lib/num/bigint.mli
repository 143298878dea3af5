(** Arbitrary-precision signed integers.

    Implemented from scratch (the sealed build environment has no [zarith]).
    Magnitudes are little-endian arrays of base-2{^24} digits, so every
    intermediate product in schoolbook multiplication and Knuth division
    fits comfortably in OCaml's 63-bit native integers.

    Values are immutable; all operations return fresh values. The
    representation is canonical: no leading zero digits, and the zero value
    has an empty magnitude, so structural equality coincides with numeric
    equality. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t
val ten : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int : t -> int option
(** [to_int x] is [Some i] when [x] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit a native [int]. *)

val to_float : t -> float
(** Nearest float; may overflow to infinity for huge values. *)

val of_string : string -> t
(** Decimal, optionally signed. @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparisons} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val pred : t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated toward zero
    (like OCaml's [(/)] and [(mod)]); [sign r = sign a] or [r = 0].
    @raise Division_by_zero when [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv : t -> t -> t * t
(** Euclidean division: remainder is always non-negative. *)

val gcd : t -> t -> t
(** Greatest common divisor; always non-negative. [gcd zero zero = zero]. *)

val lcm : t -> t -> t

val pow : t -> int -> t
(** [pow x n] for [n >= 0]. @raise Invalid_argument on negative exponent. *)

val shift_left : t -> int -> t
(** Multiply by 2{^n}. *)

val shift_right : t -> int -> t
(** Arithmetic shift: floor division by 2{^n}. *)

val mul_int : t -> int -> t

(** {1 Inspection} *)

val num_bits : t -> int
(** Bits in the magnitude; [num_bits zero = 0]. *)

val is_even : t -> bool

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
