(** Reduced product of the relational domains, switched by {!domain}.

    [Box] is the degenerate no-relations element (both components top,
    every transfer a no-op) so the interval-only analysis pays nothing;
    [Octagon] and [Affine] run one component; [Product] runs both with a
    light reduction after each transfer (affine [x = ±y + c] rows feed the
    octagon, octagon point projections feed the rows). All transfers take
    [~ivb], the interval component's per-variable bounds, to bound
    residuals the relational domains cannot express. *)

open Pperf_num
open Pperf_symbolic

type domain = Box | Octagon | Affine | Product

val domain_of_string : string -> domain option
(** CLI spelling: interval | octagon | affine | product. *)

val domain_to_string : domain -> string
val all_domains : string list

type t

val top : domain -> t
val domain : t -> domain
val is_bot : t -> bool
val is_top : t -> bool
val equal : t -> t -> bool
val join : t -> t -> t

val widen : ?thresholds:Rat.t list -> t -> t -> t
(** Octagon bounds widen through the thresholds; affine rows join (finite
    chains). Bumps the [absint.relational.widenings] counter. *)

val narrow : t -> t -> t
(** Returns its left operand itself exactly when neither component changes
    it: the same octagon variable order and entries, the same affine rows.
    {!equal} cannot tell that apart, since it aligns variable orders. *)

val forget : t -> string -> t

val assign : ivb:(string -> Interval.t) -> t -> string -> Poly.t option -> t
(** Affine right-hand sides transfer exactly (after rewriting through the
    affine rows, so e.g. [k := m - 2*n] is constant under [m = 2*n]);
    anything else forgets the target. *)

val assume_le : ivb:(string -> Interval.t) -> t -> Poly.t -> t
(** Assume [p <= 0] (no-op when [p] is not affine modulo the rows). *)

val assume_eq : ivb:(string -> Interval.t) -> t -> Poly.t -> t

val assume_cons : t -> Lin.cons -> t
(** Re-assume a harvested constraint (summary reconstruction). *)

val bound : ivb:(string -> Interval.t) -> t -> Poly.t -> Interval.t
(** Sound enclosure of the polynomial: rewrite through the affine rows,
    then the octagon bound meets the interval evaluation of the rewritten
    form. Never wider than evaluating the rewritten polynomial alone. *)

val project : t -> string -> Interval.t
val rewrites : t -> (string * Poly.t) list
val reduce_poly : t -> Poly.t -> Poly.t
val constraints : t -> Lin.cons list
(** Displayable facts: affine rows plus binary octagon constraints
    strictly tighter than the unary bounds. *)

val entails : t -> Lin.cons -> bool
val unconstrained : t -> string -> bool
(** Neither component holds any fact mentioning the variable. *)

val satisfies : (string -> Rat.t) -> t -> bool
val sp_relational : Pperf_obs.Obs.span Lazy.t
(** The [absint.relational] span; {!Absint} times relational transfer
    batches under the fixpoint span with it. Lazy (like the octagon and
    widening counters) so interval-only runs never register it. *)
