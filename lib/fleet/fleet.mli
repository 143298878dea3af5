(** The serving core and every transport over it: stdin/stdout
    ([ppredict serve]), a request file or stream ([ppredict batch]), a
    Unix-socket or TCP listener ([serve --socket] / [serve --tcp]), and an
    in-memory session for tests and benchmarks.

    All of them feed request lines to one {!Core}: N worker-domain shards
    sharing one {!Pperf_server.Engine}. Requests are routed by
    {e cache-key affinity}: the hash of (machine ‖ source digest) picks
    the shard, so repeat queries for the same kernel land on the same
    domain and hit its warm per-domain incremental predictor. Requests
    with no source (ping/stats/metrics, or with [affinity = false]) are
    {e affinity-free}: they go to the least-loaded shard and — under
    [--sched ws] — may be stolen by idle shards. Admission is bounded at
    [max_queue] queued requests; what happens beyond it is the
    transport's {!admission} choice.

    Responses leave each session in request order (one {!Sequencer} per
    session) and every request is answered exactly once. Deadlines are
    honored across the queue: a request still queued past its
    [deadline_ms] is answered [deadline_exceeded], not silently evaluated
    late. *)

type config = private {
  jobs : int;  (** shard (worker domain) count, >= 1 *)
  sched : Sched.policy;
  max_queue : int;  (** global admission bound, >= 1 *)
  cache_capacity : int option;  (** result-cache entries (engine default) *)
  max_request_bytes : int;
  affinity : bool;  (** [false]: route everything least-loaded (baseline) *)
}

val default_max_queue : int
(** 1024. *)

val default_max_request_bytes : int
(** 1 MiB. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val config :
  ?sched:Sched.policy ->
  ?max_queue:int ->
  ?cache_capacity:int ->
  ?max_request_bytes:int ->
  ?affinity:bool ->
  jobs:int ->
  unit ->
  config
(** The only way to build a {!config}.
    @raise Invalid_argument when [jobs < 1] or [max_queue < 1]. *)

(** What a full admission queue means to a transport. *)
type admission =
  | Shed
      (** answer [overloaded] with a [retry_after_ms] hint — socket
          connections, where many producers compete *)
  | Backpressure
      (** wait for room — single-reader transports, which must answer
          every line up to EOF *)

(** The engine-side core, independent of any transport: shards, queues,
    admission control, dispatch. *)
module Core : sig
  type t

  val create : ?start:bool -> config -> t
  (** One shared {!Pperf_server.Engine} (shared result cache; per-domain
      incremental predictors) and [jobs] shard queues. [start] (default
      [true]) spawns the worker domains; [start:false] leaves the queues
      frozen so tests can fill them deterministically, then {!start}. *)

  val start : t -> unit
  (** Spawn the worker domains (idempotent). *)

  val dispatch :
    t -> admission:admission -> Sequencer.t -> int -> string -> [ `Dispatched | `Shutdown ]
  (** Handle one request line for slot [i] of the session's sequencer:
      parse errors and oversized lines are emitted immediately;
      [shutdown] is answered inline and reported as [`Shutdown]; anything
      else is enqueued on its shard and will emit exactly once when
      evaluated. A full queue sheds under [Shed]; under [Backpressure] it
      blocks until a worker makes room, so never pass [Backpressure] on a
      frozen core. A stopped core sheds under either. *)

  val drain : t -> unit
  (** Block until no request is queued or in flight. *)

  val stop : t -> unit
  (** Drain queued work, then stop and join the worker domains.
      Subsequent {!dispatch} calls shed with [overloaded]. Idempotent. *)

  val queue_depth : t -> int
end

val run_lines : admission:admission -> Core.t -> string list -> string list
(** In-memory session against a started core: request lines in, response
    lines out in request order (blank lines skipped), through the same
    read loop as every other transport. [Backpressure] behaves like
    [batch], [Shed] like one socket connection. *)

val serve_channels : config -> flush_each:bool -> in_channel -> out_channel -> int
(** Serve one session from [ic] to [oc] on a fresh core until EOF or a
    [shutdown] request, answering every line ([Backpressure]); returns 0.
    [flush_each] flushes after every response ([ppredict serve]);
    without it output is flushed once at the end ([ppredict batch]). *)

exception Already_serving of string
(** Raised when the requested Unix-socket path is owned by a live daemon
    (a probe connect was accepted). *)

val resolve_host : string -> Unix.inet_addr
(** ["localhost"] and [""] are the loopback address; otherwise a literal
    address or a resolvable name. @raise Failure when unresolvable. *)

val serve_socket : config -> Unix.sockaddr -> ?port_file:string -> unit -> int
(** Listen on [addr] and serve concurrent connections, one reader thread
    each, on one core (a warm cache survives across connections), until a
    [shutdown] request or SIGTERM/SIGINT. EOF ends only its connection;
    connections shed when the queue is full ([Shed]). The worker domains
    spawn with the first accepted connection.

    For [ADDR_UNIX path], a stale socket file left by a dead daemon is
    replaced and a live one refused ({!Already_serving}); the file is
    unlinked on every exit path. For [ADDR_INET] (port [0] picks an
    ephemeral port, written to [port_file] when given), the listener sets
    [SO_REUSEADDR], connections [TCP_NODELAY], and a
    [fleet listening on HOST:PORT] line goes to stderr.

    Both stop paths drain: in-flight and queued requests are answered,
    per-connection sequencers flushed, connections closed, the listener
    closed, worker domains joined; then returns 0. *)
