(** The two cost-model dialects of {!Machine.t} and the one throughput
    rule they share.

    Both dialects lower to the component representation of {!Atomic_op},
    where every component carries the units it may be placed on:

    - {b Classic} — the paper's two-component coverable/noncoverable
      model (§2.1): components name functional units, and replication is
      by unit kind, so a component's eligible set is the units of its
      kind.
    - {b Ports} — a PALMED/OSACA-style issue-port model: an atomic op is
      a multiset of µops, each eligible to a set of issue ports and
      consuming one port-cycle; a lowered component carries its group's
      ports.

    The dialect lives only in the description format ({!Descr}) and the
    two {!Machine} constructors: the Tetris bins, the reference pipeline
    and {!reciprocal_throughput} read eligible sets alone. *)

type kind = Classic | Ports

val kind_string : kind -> string
val kind_of_string : string -> kind option

type uop_group = {
  eligible : int list;  (** sorted, distinct port (unit) ids *)
  count : int;  (** µops with this eligible set, one port-cycle each *)
}

val canonical_groups : uop_group list -> uop_group list
(** Merge groups with equal eligible sets; sort by eligible set. The
    canonical order used by construction and {!Descr.to_string}.
    @raise Invalid_argument on a negative count or empty eligible set. *)

val lower : latency:int -> uop_group list -> Atomic_op.component list
(** Deterministic round-robin lowering of µop groups to scheduler
    components; the result latency is realised as a coverable tail on
    the first component. @raise Invalid_argument on an empty group list. *)

val groups_of_op : Atomic_op.t -> uop_group list
(** Recover the canonical µop groups of a lowered op (inverse of
    {!lower} up to canonicalization). A classic op has one group per unit
    kind it names, counting that kind's noncoverable cycles. *)

val reciprocal_throughput : Atomic_op.t -> float
(** Steady-state cycles per instance of the op issued back to back with
    no other contenders: the optimal fractional assignment of its cycles
    to their eligible units, computed exactly as [max over unit sets S of
    #{cycles whose eligible set ⊆ S} / |S|] (the LP dual of the
    assignment problem). On a classic op this is the noncoverable cycles
    on its busiest kind over that kind's units. *)
