(** The fleet's run queue and pluggable scheduling policies.

    The core keeps one {!t}, and every worker domain takes its next
    request from it through a policy: a first-class module ({!POLICY})
    whose [take] picks the next item.

    Queues are not internally synchronised; the fleet core serialises all
    access under its scheduler lock. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** Queued items. *)

val push : 'a t -> 'a -> unit
(** Queue an item behind every item already queued. *)

(** A scheduling discipline over the run queue. *)
module type POLICY = sig
  val name : string

  val take : 'a t -> 'a option
  (** Next item for a free worker. *)
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
