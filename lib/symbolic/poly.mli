(** Multivariate (Laurent) polynomials over exact rationals.

    These are the paper's {e performance expressions}: symbolic costs whose
    variables are unknowns in program constructs — loop bounds, trip counts,
    branch probabilities (§2.4.1). Representation is a canonical map from
    monomials to nonzero coefficients, so [equal] is structural. *)

open Pperf_num

type t

(** {1 Construction} *)

val zero : t
val one : t
val const : Rat.t -> t
val of_int : int -> t
val of_rat : Rat.t -> t
val var : string -> t
val var_pow : string -> int -> t
val monomial : Rat.t -> Monomial.t -> t
val of_terms : (Rat.t * Monomial.t) list -> t

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Rat.t -> t -> t
val scale_int : int -> t -> t
val add_const : Rat.t -> t -> t

val pow : t -> int -> t
(** Non-negative exponents only, except that a single-term polynomial may be
    raised to a negative power. @raise Invalid_argument otherwise. *)

val div_exact : t -> t -> t option
(** [div_exact p q] is [Some r] with [p = q * r] when [q] divides [p]
    exactly (e.g. dividing an aggregate cost by a trip count); [None]
    otherwise. Only supported for single-term [q]. *)

val sum : t list -> t

(** {1 Inspection} *)

val is_zero : t -> bool
val is_const : t -> bool

val to_const : t -> Rat.t option
(** [Some c] when the polynomial is the constant [c]. *)

val terms : t -> (Rat.t * Monomial.t) list
(** In increasing monomial order. *)

val num_terms : t -> int
val coeff : Monomial.t -> t -> Rat.t
val constant_term : t -> Rat.t
val vars : t -> string list
val mem_var : string -> t -> bool
val total_degree : t -> int
val degree_in : string -> t -> int
(** Highest exponent of the variable (0 if absent; can be negative only if
    all occurrences are negative). *)

val min_degree_in : string -> t -> int
val is_polynomial : t -> bool
(** No negative exponents. *)

val is_univariate : t -> string option
(** [Some x] when exactly one variable occurs. *)

(** {1 Evaluation and substitution} *)

val eval : (string -> Rat.t) -> t -> Rat.t
val eval_partial : (string -> Rat.t option) -> t -> t
val subst : string -> t -> t -> t
(** [subst x q p] replaces [x] by [q] in [p]. [q] must be a single term if
    [x] occurs with negative exponents. @raise Invalid_argument otherwise. *)

val eval_float : (string -> float) -> t -> float
(** Fast approximate evaluation. *)

(** {1 Calculus} *)

val deriv : string -> t -> t

val coeffs_in : string -> t -> (int * t) list
(** [coeffs_in x p] views [p] as a polynomial in [x]: list of
    (exponent, coefficient-polynomial in the remaining variables), in
    increasing exponent order. *)

val univariate_coeffs : string -> t -> Rat.t array
(** Dense coefficient array [c0; c1; ...] of a genuinely univariate
    polynomial in [x] with no negative exponents.
    @raise Invalid_argument if other variables occur or exponents are
    negative. *)

val clear_denominators : string -> t -> t
(** Multiply by [x^k] to remove negative powers of [x] (sign-preserving for
    [x > 0]); used before root analysis. *)

(** {1 Ordering and printing} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( ~- ) : t -> t
end
