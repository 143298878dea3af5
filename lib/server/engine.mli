(** Request evaluation for the prediction service.

    [handle] maps one {!Protocol.request} to one {!Protocol.response} and
    never lets an exception escape: {!Query.error_of_exn}, the table the
    CLI prints its errors from, turns every failure into a structured
    error response, with the server still live.

    Query verbs are served through a content-addressed result cache (the
    shared memo ["server.cache"]) keyed by (machine hash if the row takes
    a machine, source hash, verb, canonical flags) — file sources are
    digested by content, so editing the file invalidates the entry — and,
    on a miss, run through {!Query.run} (predict without ranges through an
    {!Pperf_core.Incremental} predictor shared by every worker domain,
    looked up on its first routine), the same run the one-shot CLI
    subcommand makes. *)

type t

val create : jobs:int -> unit -> t
(** [jobs] is reported by the [stats] verb.
    @raise Invalid_argument when [jobs < 1]. *)

val mean_eval_ns : t -> int
(** Mean evaluation wall time per answered request so far (0 before any
    request completes); the fleet's admission control scales its
    [retry_after_ms] hint by it. *)

val handle : t -> received:float -> Protocol.request -> Protocol.response
(** [received] is [Unix.gettimeofday ()] at the moment the request line
    was read; deadlines and queue time are measured from it. *)
