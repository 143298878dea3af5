(** Per-shard run queues and pluggable scheduling policies for the fleet.

    Each shard owns one {!t} and runs only what is queued on it: a
    request whose cache key hashes to the shard (so it meets the shard
    domain's warm incremental predictor), or, with no key to follow, one
    the core placed on the least-loaded shard.

    A policy is a first-class module ({!POLICY}) whose [take] picks the
    owning shard's next item.

    Queues are not internally synchronised; the fleet core serialises all
    access under its scheduler lock. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Queued items. *)

val push : 'a t -> 'a -> unit
(** Queue an item behind every item already queued. *)

(** A scheduling discipline over one shard's queue. *)
module type POLICY = sig
  val name : string

  val take : 'a t -> 'a option
  (** Next item for the shard that owns this queue. *)
end

module Fifo : POLICY
(** Oldest first, in admission order. [--sched fifo --jobs 1] is the
    deterministic baseline. *)

module Lifo : POLICY
(** Newest first. *)

type policy = (module POLICY)

val all : (string * policy) list
(** Selection table for the CLI: [fifo], [lifo]. *)

val of_string : string -> (policy, string) result
val name : policy -> string
