(** Sign analysis of performance expressions over variable ranges.

    Implements the paper's §3.1: given [P = C(f) - C(g)], find the regions
    where [P] is positive/negative, so the compiler can choose between
    transformations [f] and [g] without guessing unknowns — or emit the
    region boundary as a run-time test. *)

type sign = Interval.sign = Neg | Zero | Pos | Mixed

type region = { range : Interval.t; sign : sign }
(** [Zero] regions are either exact root points or enclosures narrower than
    {!Roots.isolate}'s [1/2^20]. *)

val regions : Poly.t -> string -> Interval.t -> region list
(** Partition of the (finite part of the) interval by the sign of a
    univariate polynomial, in increasing order. Unbounded ends are clipped
    at the Cauchy root bound, beyond which the sign is constant — the
    clipped tail is included with that constant sign. *)

val sign_over :
  ?oracle:(Poly.t -> Interval.t) -> ?depth:int -> Interval.Env.t -> Poly.t -> sign
(** Conservative multivariate sign over a box: interval evaluation with
    recursive subdivision (splitting the widest finite range, [depth]
    levels, default 3). [Mixed] means "could not prove a constant sign".
    [oracle], when given, must return a sound enclosure of any polynomial
    it is asked about (typically backed by relational abstract-domain
    facts); it is consulted only where the box alone is inconclusive. *)

(** {1 Symbolic comparison of two expressions} *)

type verdict =
  | Always_le  (** first never costs more, strict somewhere or not *)
  | Always_ge
  | Equal
  | Crossover of region list
      (** sign regions of [first - second] in the single deciding variable *)
  | Undecided of Poly.t
      (** multivariate and not interval-decidable: the returned difference
          polynomial is the run-time test condition ([<= 0] favors first) *)

val compare_over :
  ?oracle:(Poly.t -> Interval.t) ->
  Interval.Env.t ->
  Poly.t ->
  Poly.t ->
  verdict
(** [compare_over env c_f c_g] decides which expression is cheaper over the
    box, following the paper's strategy: try range-based sign proof first;
    if the difference is univariate, fall back to exact root-based region
    analysis; otherwise return the condition for a run-time test. The
    [oracle] (see {!sign_over}) sharpens both steps: it can decide the sign
    outright or clip the deciding variable's range. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_region : Format.formatter -> region -> unit
