(** The virtual architecture bins and the drop algorithm (§2.1, Fig. 3/5).

    Estimating a basic block's cost "can be viewed as finding a way to drop
    all operation objects into the virtual architecture bin with the goal
    of minimizing the unfilled slots" — the paper's Tetris analogy. The
    approximate solution implemented here places each operation's cost
    object at the lowest time slots where {e all} its components fit
    simultaneously, at or after the operation's dependence-ready time.

    The {e focus span} bounds how far below the high-water mark the search
    looks, trading accuracy for speed (§2.1); with the run-encoded
    {!Slots} lists this makes each drop effectively constant-time and the
    whole block linear in the number of operations.

    A component may be placed on any unit of its eligible set
    ({!Atomic_op.component.eligible}), tried in order: on a classic
    machine the unit the cost table names, then its same-kind twins. *)

open Pperf_machine

type t

val create : ?focus_span:int -> Machine.t -> t
(** [focus_span] defaults to 64 slots. *)

val reset : t -> unit
val machine : t -> Machine.t

type placement = {
  node : int;
  start : int;  (** issue slot *)
  finish : int;  (** start + result latency: when consumers may start *)
  filled : (int * int * int) list;  (** (unit, start, noncoverable len) *)
}

type schedule = {
  placements : placement array;
  cost : int;
      (** highest minus lowest occupied slot, coverable tail of the last
          operation included — what the block costs if executed alone *)
  block : Costblock.t;
}

val drop_dag : t -> Dag.t -> schedule
(** Drop all operations of the block, in program order, honoring
    dependences. The bins are {e not} reset first. *)

val drop_op : t -> ready:int -> Atomic_op.t -> int
(** Low-level: place one operation, returning its issue slot. *)

val cost_block : t -> Costblock.t
(** Shape of everything currently in the bins. *)

val steady_state : t -> Dag.t -> int * int
(** [steady_state t dag] drops a loop body twice into [t] (not reset
    first) and returns the cost of the first drop and the steady-state
    per-iteration cost: the increment of the second drop, at least 1
    (§2.4.2). An empty body costs [(0, 0)] and is not dropped. *)

val fallbacks : t -> int
(** Number of placements since the last {!reset} that a non-converging
    coordinated fit resolved by conservative stacked placement (the
    components laid end to end above everything already placed) instead of
    raising. Nonzero means the cost is a safe overestimate for those
    operations; callers surface it as a precision diagnostic. *)

val pp : Format.formatter -> t -> unit
(** Vertical diagram of the bins, one column per unit (Fig. 3 style). *)

(** {1 Baselines} *)

module Opcount : sig
  val cost : Dag.t -> int
  (** The conventional operation-count model the paper criticizes: every
      operation pays its full serial latency; no overlap, no units. *)

  val busy_cost : Dag.t -> int
  (** Even more naive: noncoverable cycles only. *)
end
