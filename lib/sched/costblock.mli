(** Cost blocks: the shape of a scheduled basic block (§2.4.2, Fig. 8).

    "The first and last occupied time slots in functional units define the
    actual cost of a basic block and the area they enclose is called the
    cost block." The shape — per-unit lead-in, tail and occupancy — is what
    the model matches to estimate overlap between adjacent blocks (Fig. 9),
    decide whether unrolling or reordering helps, and approximate branch
    costs. *)

type unit_profile = {
  first : int option;  (** lowest noncoverable-occupied slot on this unit *)
  last : int option;  (** highest noncoverable-occupied slot *)
  occupied : int;  (** number of noncoverable-occupied slots *)
  cover_top : int;  (** top of the last (noncoverable+coverable) extent *)
}

type t = {
  start : int;  (** lowest occupied slot over all units *)
  finish : int;  (** makespan: max (issue + result latency) over all ops *)
  per_unit : unit_profile array;
}

val cost : t -> int
(** [finish - start]; 0 for an empty block. *)

val empty : int -> t

val occupancy_ratio : t -> int -> float
(** Occupied fraction of a unit's span within the block — the paper's
    critical-bin ratio used to judge whether reordering/unrolling can help. *)

val critical_unit : t -> int option
(** The unit with the most occupied slots. *)

val lead : t -> int -> int
(** Free slots on a unit between the block start and that unit's first
    occupied slot (the whole block height if the unit is untouched). *)

val overlap_estimate : ?min_gap:int -> t -> t -> int
(** Fig. 9: how many cycles the second block can slide up into the first,
    estimated by matching the first block's tail profile against the second
    block's lead profile per unit, taking the minimum over units.
    [min_gap] (default 0) reserves cycles for inter-block dependences.
    Never exceeds either block's cost. *)

val combine_estimate : ?min_gap:int -> t -> t -> int
(** Estimated cost of executing the blocks back to back:
    [cost a + cost b - overlap_estimate a b]. *)

val unrolled_iteration_estimate : t -> int
(** Per-iteration cost of a loop whose body has this shape once software
    overlap between consecutive iterations is accounted for: [cost] minus
    the self-overlap of the shape with itself. Used for the quick
    unroll-benefit test; the precise alternative re-drops the body
    (§2.2.2's two methods). *)

val best_order : t list -> int list
(** §2.4.2: "the shapes of the cost blocks can be used to decide the order
    of statement blocks". Greedy chaining: start from the block whose tail
    leaves the most room, repeatedly append the block whose lead profile
    overlaps the current tail best. Returns indices into the input list. *)

val chain_cost_estimate : t list -> int
(** Estimated cost of executing blocks back-to-back in the given order:
    sum of costs minus pairwise shape overlaps. *)

val pp : Format.formatter -> t -> unit
