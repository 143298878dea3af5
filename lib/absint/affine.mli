(** The affine-equality abstract domain (Karr): conjunctions of exact
    equations [x = Σ aᵢ·yᵢ + c] over rationals.

    Rows are linear forms [f = 0] in fully reduced echelon form — each row
    normalized to a unit leading coefficient, the leading variable of each
    row eliminated from every other row — so equality is structural and
    every leading variable has a closed-form rewrite in terms of
    non-leading ones. Chains are finite (each join can only drop rows), so
    [join] doubles as the widening. *)

open Pperf_num
open Pperf_symbolic

type t

val top : t
val bot : t
val is_bot : t -> bool
val is_top : t -> bool
val equal : t -> t -> bool

val add_eq : t -> Lin.t -> t
(** Assume [lin = 0]; {!bot} when it contradicts the rows. *)

val meet : t -> t -> t
val join : t -> t -> t
(** Affine hull: the equalities holding in both operands (rowspace
    intersection, Zassenhaus block elimination). *)

val widen : t -> t -> t
(** [join] — the domain has no infinite ascending chains. *)

val narrow : t -> t -> t
(** [meet] — descending chains are finite too, so one pass is safe. It
    returns its left operand itself when the right one adds no row. *)

val assign : t -> string -> Lin.t option -> t
(** Strongest post of [x := e]; invertible updates ([x] on both sides) are
    handled exactly via a ghost name, [None] forgets [x]. *)

val forget : t -> string -> t
val project : t -> string -> Interval.t
(** The point interval when the rows pin [x] to a constant, else full. *)

val rows : t -> Lin.t list
val rewrites : t -> (string * Poly.t) list
(** One rewrite per row: leading variable to its affine right-hand side
    (right-hand sides never mention leading variables). *)

val reduce_poly : t -> Poly.t -> Poly.t
(** Substitute every rewrite — exact on any polynomial, e.g. [m = 2*n]
    turns [m·n] into [2·n²]. *)

val reduce_lin : t -> Lin.t -> Lin.t
val constraints : t -> Lin.cons list
val entails : t -> Lin.cons -> bool
val unconstrained : t -> string -> bool
val satisfies : (string -> Rat.t) -> t -> bool
