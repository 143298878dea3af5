(** Integration of univariate performance polynomials.

    §3.1 of the paper: "either the value of the function, size of the area
    where P⁺ and P⁻ are nonzero, or integral values of P⁺ and P⁻ can be
    used to compare the transformations f and g". *)

open Pperf_num

val antiderivative : string -> Poly.t -> Poly.t
(** Formal antiderivative in the named variable (constant of integration 0).
    @raise Invalid_argument on an [x^-1] term. *)

val integral : Poly.t -> string -> Rat.t -> Rat.t -> Rat.t
(** Exact definite integral of a univariate polynomial. *)

type split = {
  pos_measure : Rat.t;  (** total length where the polynomial is > 0 *)
  neg_measure : Rat.t;  (** total length where the polynomial is < 0 *)
  pos_integral : Rat.t;  (** integral of P⁺ (i.e. ∫ max(P,0)) *)
  neg_integral : Rat.t;  (** integral of −P⁻ (i.e. ∫ max(−P,0)), non-negative *)
}

val pos_neg_split : Poly.t -> string -> Interval.t -> split
(** Region-based decomposition over a finite interval. Root enclosures of
    width ≤ ε = 1/2^20 contribute error at most [ε·max|P|] per root.
    @raise Invalid_argument on an unbounded interval. *)

val pp_split : Format.formatter -> split -> unit
