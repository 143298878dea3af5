(** Dependence DAGs of atomic operations for one basic block.

    Nodes are atomic operations in program order; edges are flow
    dependences (a consumer must wait for its producer's result latency).
    The cost model "assumes that operations can be reordered based on
    mathematical rules and dependence relations" (§2.1), so only true
    dependences constrain placement. *)

open Pperf_machine

type node = {
  index : int;
  op : Atomic_op.t;
  deps : int list;  (** indices of producers this node consumes *)
  label : string Lazy.t;
      (** human-readable provenance, e.g. ["load b[i,j]"]; forced only
          when {!pp} prints the node *)
}

type t = private { nodes : node array }

val make : (Atomic_op.t * int list * string Lazy.t) array -> t
(** @raise Invalid_argument on a forward or self dependence. *)

val of_nodes : node array -> t
(** The nodes as given; node [i] must have index [i].
    @raise Invalid_argument as {!make} does, or on a node out of place. *)

val of_ops : (Atomic_op.t * int list) list -> t
(** Convenience wrapper with empty labels. *)

val length : t -> int
val node : t -> int -> node

val critical_path : t -> int
(** Longest chain of result latencies — a lower bound on any schedule's
    makespan. *)

val serial_cost : t -> int
(** Sum of serial cycles: what a machine with no overlap at all pays — an
    upper bound on any schedule's makespan on one-op-at-a-time semantics. *)

val busy_cost : t -> int
(** Sum of noncoverable cycles over all nodes (pure operation count). *)

val map_ops : (Atomic_op.t -> Atomic_op.t) -> t -> t

val concat : t -> t -> t
(** Sequential composition: the second block's dependence indices are
    shifted; no cross-block dependences are added (callers add them
    explicitly if values flow between the blocks). *)

val repeat : ?carry:(int * int) list -> t -> int -> t
(** [repeat body k] unrolls [body] [k] times. [carry] lists
    (producer-in-previous-iteration, consumer-in-next-iteration) pairs —
    loop-carried flow dependences. *)

val pp : Format.formatter -> t -> unit
