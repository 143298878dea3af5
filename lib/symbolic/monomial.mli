(** Monomials: finite products of variables raised to nonzero integer powers.

    Exponents may be negative ("Laurent monomials"): the paper's own
    simplification example (§3.1) manipulates [4x^4 + 2x^3 - 4x + 1/x^3].
    Variables are plain strings; the representation is a strictly sorted
    association list, so structural comparison is a total order usable as a
    map key. *)

type t
(** The unit monomial (empty product) represents the constant term. *)

val unit : t
val is_unit : t -> bool

val var : string -> t
(** [var x] is the monomial [x]. *)

val var_pow : string -> int -> t
(** [var_pow x k] is [x^k]; [k = 0] yields {!unit}. *)

val of_list : (string * int) list -> t
(** Builds from (variable, exponent) pairs; duplicate variables have their
    exponents summed, zero exponents are dropped. *)

val to_list : t -> (string * int) list
(** Sorted by variable name; all exponents nonzero. *)

val mul : t -> t -> t
val div : t -> t -> t

val pow : t -> int -> t

val exponent : string -> t -> int
(** 0 when the variable does not occur. *)

val vars : t -> string list

val total_degree : t -> int
(** Sum of exponents (negative exponents subtract). *)

val is_polynomial : t -> bool
(** True when all exponents are positive (no Laurent part). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val eval : (string -> Pperf_num.Rat.t) -> t -> Pperf_num.Rat.t
(** @raise Division_by_zero if a variable with negative exponent is zero. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
