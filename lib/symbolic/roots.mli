(** Real-root isolation and refinement for univariate performance
    polynomials.

    The paper (§3.1) observes that the difference of two performance
    expressions is usually a polynomial in a single variable (a loop
    transformation changes one structure at a time) and that its sign
    regions can be found from its real roots. We provide:

    - an exact path: Sturm sequences computed as integer primitive-part
      pseudo-remainder sequences (denominators cleared once, each
      remainder divided by its content, signs preserved), giving
      isolating intervals refined by bisection to any requested width,
      correct for roots of any multiplicity and any degree. Chains and
      endpoint variation counts are memoized per worker domain behind
      capped tables ([roots.chain_builds] / [roots.chain_cache_hits] /
      [roots.variations] counters, [sturm] span; DESIGN.md §2.6);
    - a fast float path with the closed-form formulas the paper alludes to
      (quadratic, Cardano cubic, Ferrari quartic), used by benchmarks. *)

open Pperf_num

type enclosure = {
  lo : Rat.t;
  hi : Rat.t;  (** [lo = hi] iff the root is known exactly. *)
}

val count_in : Poly.t -> string -> Interval.t -> int
(** [count_in p x iv] is the number of {e distinct} real roots of [p]
    (viewed as univariate in [x]) within [iv], by Sturm's theorem.
    @raise Invalid_argument if [p] mentions other variables. *)

val isolate : Poly.t -> string -> Interval.t -> enclosure list
(** Disjoint enclosures, in increasing order, one per distinct real root of
    [p] in the interval, each either exact or of width [<= 1/2^20].
    Exact rational roots are recognized and returned with [lo = hi]. The
    zero polynomial yields [[]] (caller should treat "identically zero"
    separately via {!Poly.is_zero}). *)

val eval_at : Poly.t -> string -> Rat.t -> Rat.t
(** Exact evaluation of a univariate polynomial. *)

(** {1 Closed-form float solvers}

    Real roots only, ascending, with multiplicity collapsed. Coefficients
    are given low-to-high ([c.(i)] multiplies [x^i]). *)

module Closed_form : sig
  val linear : float array -> float list
  val quadratic : float array -> float list
  val cubic : float array -> float list
  val quartic : float array -> float list

  val solve : float array -> float list option
  (** Dispatch on degree; [None] above degree 4 (use {!isolate}). *)
end
