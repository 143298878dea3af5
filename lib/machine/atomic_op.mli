(** Atomic operations and their two-component costs (§2.1).

    Each atomic operation carries, per functional unit it touches:

    - a {e noncoverable} cost — cycles the unit truly dedicates to it
      (a solid Tetris piece: cannot share its time slots);
    - a {e coverable} cost — latency cycles during which {e independent}
      operations may proceed, but consumers of the result must wait
      (a transparent piece acting as a filter for dependents).

    The paper's canonical example: a POWER floating-point add is one
    noncoverable plus one coverable cycle on the FPU — it costs one cycle
    if the compiler can cover the second, two if not. A floating-point
    store occupies the FPU two cycles (one coverable) {e and} an integer
    unit one cycle. *)

type component = {
  unit_id : int;  (** the unit the cost table names *)
  noncoverable : int;  (** >= 0 *)
  coverable : int;  (** >= 0 *)
  eligible : int array;
      (** the units this component's cycles may be placed on, in the order
          placement tries them; never empty. A classic machine lists
          [unit_id] first, then the other units of its kind in id order
          (§2.1's replicated units); a ports machine lists the µop group's
          issue ports (see {!Costmodel}). *)
}

type t = {
  name : string;
  components : component list;
      (** a classic op names each unit at most once; two µop groups of a
          ports op may share a primary port *)
}

val make : string -> component list -> t
(** @raise Invalid_argument on negative costs, an empty component list, or
    an empty eligible set. *)

val result_latency : t -> int
(** Cycles from issue until a dependent may start:
    max over components of (noncoverable + coverable). *)

val busy_cycles : t -> int
(** Total noncoverable cycles summed over components — the work a pure
    operation-count model would charge. *)

val serial_cycles : t -> int
(** What a non-overlapping (fully serial) machine pays: equals
    {!result_latency}. *)

val component_on : t -> int -> component option
val pp : Format.formatter -> t -> unit
