(** The "load the machine once" helper shared by every CLI subcommand and
    by the prediction server.

    Resolves a machine spec — a builtin name (see
    {!Pperf_machine.Descr.builtin}: one value per process, kept out of the
    file memo) or a [.pmach] description file. File loads are memoized by
    content digest in a shared memo of 16 entries (["machines.files"]), so
    a long-lived server parses each description it keeps serving once
    while still picking up edits to the file, and returns one physical
    machine per digest while it stays memoized. The tables derived from a
    machine are built on first use, per worker domain. Domain-safe. *)

open Pperf_machine

val load : string -> Machine.t
(** @raise Failure on an unknown name, {!Descr.Parse_error} on a bad
    description file. *)

val hash : Machine.t -> string
(** Content digest of the machine's canonical textual description
    (memoized per worker domain, ["machines.digests"]); part of the
    server's result-cache key. *)

val loaded_count : unit -> int
(** Description files memoized now (the [stats] verb's [machines]
    field). *)
