(** Closed intervals over extended rationals, and interval evaluation of
    performance polynomials.

    Used for the paper's range-based reasoning (§3.1): "there are many
    situations where it is possible to determine whether the expression is
    positive or negative based on bounds on the variables". *)

open Pperf_num

type bound = Neg_inf | Fin of Rat.t | Pos_inf

type t = private { lo : bound; hi : bound }
(** Invariant: [lo <= hi]. Endpoints are included where finite. *)

val make : bound -> bound -> t
(** @raise Invalid_argument when [lo > hi]. *)

val of_rats : Rat.t -> Rat.t -> t
val of_ints : int -> int -> t
val point : Rat.t -> t
val of_int : int -> t
val full : t
val nonneg : t
val pos_ge : Rat.t -> t
val unit_prob : t
(** [0, 1] — the range of a branch probability. *)

val lo : t -> bound
val hi : t -> bound

val is_point : t -> Rat.t option
val equal : t -> t -> bool
val is_full : t -> bool
(** Both bounds infinite — the "no information" element. *)

val contains : t -> Rat.t -> bool
val subset : t -> t -> bool
val intersect : t -> t -> t option
val union : t -> t -> t

val widen : t -> t -> t
(** [widen a b] keeps each bound of [a] that [b] does not escape and sends
    the others to infinity — the classic interval widening; [widen a a = a]
    and [widen a b = a] whenever [b] is a subset of [a]. *)

val narrow : t -> t -> t
(** [narrow a b] refines the infinite bounds of [a] with those of [b] (one
    standard narrowing pass after widening); finite bounds of [a] win. *)

val width : t -> Rat.t option
(** [None] when unbounded. *)

val midpoint : t -> Rat.t
(** Midpoint of a finite interval; for half-bounded intervals a finite
    representative (offset 1 from the finite end); 0 for [full]. *)

val sample : t -> int -> Rat.t list
(** [sample t n] returns up to [n] evenly spaced points inside [t]. *)

(** {1 Interval arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val max_exact_pow : int
(** 64: the largest exponent whose power is computed exactly. *)

val pow : t -> int -> t
(** Past an exponent of 64 the bounds are enclosed rather than raised
    exactly (a bound within one of zero gives zero or itself, one beyond
    gives itself or infinity), so a huge exponent costs no more than a
    small one. For
    negative exponents the interval must not contain zero.
    @raise Division_by_zero otherwise. *)

val scale : Rat.t -> t -> t

(** {1 Signs} *)

type sign = Neg | Zero | Pos | Mixed

val sign : t -> sign
(** [Neg]/[Pos] require the whole interval strictly on that side; [Zero]
    means the interval is exactly \{0\}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Environments: variable ranges} *)

module Env : sig
  type interval := t
  type t

  val empty : t
  val add : string -> interval -> t -> t
  val of_list : (string * interval) list -> t
  val find : string -> t -> interval
  (** Unknown variables default to {!full}. *)

  val find_opt : string -> t -> interval option
  val bindings : t -> (string * interval) list
  val midpoint_valuation : t -> string -> Rat.t
  val pp : Format.formatter -> t -> unit
end

val eval_poly : Env.t -> Poly.t -> t
(** Sound enclosure of the polynomial's range over the box; monomial-wise
    (each monomial evaluated with interval powers, then summed). *)

val sign_of_poly : Env.t -> Poly.t -> sign
(** Sign of the enclosure — [Mixed] is "don't know", not "changes sign". *)
