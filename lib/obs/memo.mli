(** Bounded memo tables: the one cache under every process-lifetime table.

    A memo holds at most [capacity] entries and evicts by one policy, a
    second-chance sweep: a full table clears every entry's used bit and
    drops the entries unused since the previous sweep until half its
    capacity is free, and drops arbitrary entries when all were used, so
    no key stream can pin it. It is [Shared] behind a mutex (values are
    computed outside the lock; the first value stored wins), [Per_domain]
    (one table per domain, dropped when the domain exits), or [Local] to
    an owner that lives in one domain. A [Shared] or [Local] table leaves
    the family's entries and capacity only through {!clear} (or [on_drop]
    of a memo holding its owner): an owner that no memo holds must be
    cleared when its caller is done with it.

    Each family of memos, named at creation, registers once counters
    [<name>.hits], [<name>.misses] and [<name>.evictions], and gauge
    [<name>.entries]: the entries its tables hold now. *)

type ('k, 'v) t
type sharing = Shared | Per_domain | Local

val create :
  ?hash:('k -> int) ->
  ?equal:('k -> 'k -> bool) ->
  ?on_drop:('v -> unit) ->
  sharing ->
  string ->
  capacity:int ->
  ('k, 'v) t
(** [create sharing name ~capacity]; [hash] defaults to [Hashtbl.hash]
    and [equal] to [compare a b = 0], the stdlib [Hashtbl]'s. [on_drop]
    runs on every value dropped (evicted, cleared, or left by an exiting
    domain), so a value owning an inner memo can clear it; it must not use
    this memo. A [capacity] below 1 is taken as 1. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> 'v
(** Store unless the key is present; returns the stored value. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val clear : ('k, 'v) t -> unit
(** Drop every entry, zero the hit and miss counts ([Per_domain]: of the
    calling domain's table). *)

type stats = { hits : int; misses : int; evictions : int; entries : int; capacity : int }

val stats : ('k, 'v) t -> stats
(** One table ([Per_domain]: the calling domain's), since its creation or
    last {!clear}. *)

val report : unit -> (string * stats) list
(** Every family, by name: counters since the last {!Obs.reset_all}, live
    entries, and as [capacity] the summed capacity of its non-empty
    tables, so [entries <= capacity] while every table keeps its bound. *)
