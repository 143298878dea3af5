(** Per-session in-order response emission. Workers finish in any order;
    [emit t n r] parks response [n] and writes out the maximal contiguous
    run starting at the next unemitted index. A failed write marks the
    sequencer {!dead} (the peer hung up) and further emissions are
    dropped so the session can unwind. *)

type t

val create :
  ?flush_each:bool -> write:(string -> unit) -> flush:(unit -> unit) -> unit -> t
(** [flush_each] flushes after every [emit] that wrote something —
    daemon mode; batch mode flushes once at the end. *)

val emit : t -> int -> Pperf_server.Protocol.response -> unit
(** Thread- and domain-safe. *)

val dead : t -> bool

val wait : t -> upto:int -> bool
(** Block until all responses below [upto] have been written, or the
    sequencer died; [true] iff they were all written. *)
