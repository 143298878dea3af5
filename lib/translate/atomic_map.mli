(** The atomic operation mapping: architecture-dependent, language-
    independent lowering of basic operations to a machine's atomic
    operations (Fig. 6, second translation level). *)

open Pperf_machine

type table
(** One machine's chains, filled on first use; kept per worker domain in
    the [translate.atomic_chains] memo, so a translation looks its machine
    up once and then each operation without hashing. *)

val table : Machine.t -> table

val chain : table -> Basic_op.t -> Atomic_op.t list
(** The chain of atomic operations implementing the basic operation on
    the table's machine; element [k+1] consumes element [k]'s result.
    Examples: a fused multiply-add on a machine without FMA hardware
    becomes multiply then add; min/max becomes compare then select;
    double-precision operations use [d]-prefixed cost-table entries when
    the machine provides them.
    @raise Failure when the machine's cost table lacks a required entry. *)
