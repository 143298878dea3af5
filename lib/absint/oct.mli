(** The octagon abstract domain over exact rationals (Miné).

    Conjunctions of constraints [±x ± y <= c] kept as a difference-bound
    matrix over the split variables [v₂ₖ = +xₖ], [v₂ₖ₊₁ = -xₖ]: entry
    [(i, j)] bounds [vᵢ - vⱼ].

    The matrix is one flat row-major [int] array, so a copy is one array
    copy. An entry holds its bound natively when the bound is an integer
    under 2{^61} in magnitude, so the sum of two never overflows. Any
    other finite bound escapes to an exact [Rat.t] in a side table, which
    exists only once an entry has escaped; +∞ has a code of its own. The
    split is canonical, so equal bounds have equal entries. The closure,
    the strengthening, the lattice operations, {!forget} and [x := x + c]
    relax and compare native entries as ints and allocate only when an
    entry tightens to an escaped bound. Results are exactly those of the
    all-rational matrix.

    Values are kept strongly closed, so entailment and projection read
    straight off the matrix. Closure is a Floyd–Warshall shortest-path
    step followed by one [((x-x̄)+(ȳ-y))/2] strengthening pass over the
    whole matrix, which over ℚ gives the strong closure (Bagnara, Hill &
    Zaffanella). It is incremental: a transfer that tightens entries of a
    closed matrix pivots only on the variables at either end of a
    tightened entry — the constraint's variables for {!meet_le}/
    {!meet_eq}; [x] and [y] for [x := ±y + c]; [x] and every [y] given a
    finite bound against it for other affine assignments — since any new
    shorter path runs through them. Widening and narrowing pivot on every
    variable. The strong closure is canonical, so the result does not
    depend on the pivots; {!reclose} is the test-side check of that
    contract. Variables enter the matrix lazily as constraints mention
    them, capped at {!max_vars}; constraints over variables past the cap
    are silently dropped (sound: fewer facts). *)

open Pperf_num
open Pperf_symbolic

type t

val top : t
val bot : t
val is_bot : t -> bool
val is_top : t -> bool
val tracked : t -> string list
val max_vars : int

val equal : t -> t -> bool
(** Equality of strongly closed normal forms. *)

val join : t -> t -> t
val widen : ?thresholds:Rat.t list -> t -> t -> t
(** [widen a b] keeps each bound of [a] that [b] does not escape; escaping
    bounds jump to the smallest threshold that still contains [b]'s bound,
    or to infinity when none does. *)

val narrow : t -> t -> t
(** Refine the infinite bounds of [a] with those of [b]. Returns [a]
    itself exactly when the result would have [a]'s variable order and
    entries: [a] is in the order of the union of both variable sets and
    [b] refines none of its infinite bounds. *)

val meet_le : ?ivb:(string -> Interval.t) -> t -> Lin.t -> t
(** Assume [lin <= 0]. The optional [ivb] supplies outside interval bounds
    (the interval component of the product) used to bound residuals when
    octagonalizing constraints with more than two variables. An octagonal
    form (one or two unit-coefficient terms, such as every loop-head guard)
    tightens its unary and pair entries directly, with the same result. *)

val meet_eq : ?ivb:(string -> Interval.t) -> t -> Lin.t -> t
(** Assume [lin = 0]. *)

val assign : ?ivb:(string -> Interval.t) -> t -> string -> Lin.t option -> t
(** [assign t x e] is the strongest octagon after [x := e] ([None] = an
    unanalyzable right-hand side, which forgets [x]). [x := x + c] shifts
    exactly; [x := ±y + c] transfers exactly; other affine forms keep
    interval and pairwise difference/sum bounds derived before the kill. *)

val forget : t -> string -> t
val project : t -> string -> Interval.t

val bound : ?ivb:(string -> Interval.t) -> t -> Lin.t -> Interval.t
(** Sound enclosure of a linear form: the naive interval sum meets a greedy
    pairing that routes [±x ± y] sub-forms through the matrix entries. *)

val constraints : t -> Lin.cons list
(** The binary constraints strictly tighter than what the unary bounds
    already imply, with opposite pairs fused into equalities. *)

val entails : t -> Lin.cons -> bool
val unconstrained : t -> string -> bool
(** No finite constraint mentions the variable. *)

val satisfies : (string -> Rat.t) -> t -> bool
(** Concrete model check — test support. *)

val reclose : t -> t
(** Strong closure recomputed from scratch, pivoting on every variable —
    test support: every transfer's result must equal its own re-closure. *)

(** The lattice operations without their fast paths — test support: both
    operands re-indexed to the sorted union of their variables, combined
    entry by entry, and the result closed from scratch ({!reclose}).
    {!join}, {!widen}, {!narrow} and {!equal} must agree with these, down
    to the {!tracked} order and the {!constraints} list. *)
module Reference : sig
  val join : t -> t -> t
  val widen : ?thresholds:Rat.t list -> t -> t -> t
  val narrow : t -> t -> t
  val equal : t -> t -> bool
end
