(** Typed telemetry for the analysis pipeline and the prediction service.

    Four instrument kinds share one registry and one {!snapshot} type:

    - {b counters}: monotonically increasing event counts (poly ops,
      monomial allocations, bin placements). A bump is one atomic
      fetch-and-add on a pre-registered record — cheap enough to leave
      enabled unconditionally and safe from concurrent worker domains.
    - {b gauges}: current-state values (cache entries, live domains);
      set rather than accumulated, and not rebased by {!reset_all}.
    - {b histograms}: log-bucketed latency distributions (powers of two
      of nanoseconds, plus a zero bucket and an overflow bucket). One
      record is one atomic bump on the matching bucket plus the sum.
    - {b spans}: nestable timed regions. Each domain keeps its own span
      stack in [Domain.DLS] (no cross-domain interleaving); completed
      spans aggregate count/total/self time into global atomics, merged
      across domains by construction when a snapshot is taken. A
      per-domain {!Trace} collector can additionally capture the span
      tree of one evaluation for [--trace].

    Reset is epoch-consistent: {!reset_all} never zeroes a live cell (a
    worker domain bumping mid-reset can not be half-lost); it instead
    advances per-cell baselines, and snapshots report the delta since the
    last reset. Values are monotone per cell, so deltas are never
    negative.

    The CLI's [--stats] JSON ({!to_json}) remains the counters-only
    object it has always been; the richer sections (gauges, histograms,
    spans) are only visible through {!snapshot} and {!Export}. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** [counter name] registers a fresh counter under [name]. Names are
    conventionally dotted paths like ["poly.mul"]. Registering the same
    name twice returns distinct counters whose counts are summed in
    snapshots; in practice each name is registered once, at module
    initialization. *)

val incr : counter -> unit
val add : counter -> int -> unit

val count : counter -> int
(** Current value of one counter since the last {!reset_all}. *)

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit

val add_gauge : gauge -> int -> unit
(** Atomic delta on a gauge — the shape live-level instruments need
    (queue depths, in-flight request counts) where increments and
    decrements race from different domains. *)

val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram
(** [histogram name] registers a log-bucketed histogram. Bucket 0 holds
    values [<= 0]; bucket [i] holds values in [(2^(i-2), 2^(i-1)]]; the
    last bucket is the overflow ([+Inf]) bucket. Values are
    conventionally nanoseconds. *)

val record : histogram -> int -> unit
(** Record one value (one atomic bump on its bucket, one on the sum). *)

val bucket_index : int -> int
(** The bucket a value lands in (exposed for boundary tests). *)

val bucket_bound : int -> float
(** Inclusive upper bound of a bucket; [infinity] for the overflow
    bucket. *)

val bucket_count : int
(** Total number of buckets, overflow included. *)

(** {1 Spans} *)

type span

val span : string -> span
(** [span name] registers a named timed region. Like counters, handles
    are registered once at module-initialization time and entered from
    the phase boundaries. *)

val enter : span -> unit
(** Push an open frame for this span on the current domain's stack. *)

val exit : span -> unit
(** Close the most recent open frame for this span, implicitly closing
    (and recording) any frames still open above it. If the span has no
    open frame on this domain, the call is a counted no-op (the
    ["obs.span.unbalanced"] gauge). *)

val time : span -> (unit -> 'a) -> 'a
(** [time sp f] runs [f] inside the span, balanced even on exceptions.
    This is the preferred API; {!enter}/{!exit} exist for regions that do
    not nest lexically (server lifecycle stages). *)

(** {1 Trace collection} *)

module Trace : sig
  type node = {
    name : string;
    total_ns : int;
    self_ns : int;  (** total minus time spent in child spans *)
    children : node list;
  }

  val collect : (unit -> 'a) -> 'a * node
  (** Capture the span tree of one evaluation on the calling domain: the
      returned root node spans the whole call (its [total_ns] is the
      region's wall time), with every top-level span completed during
      [f] as a child. Aggregated span statistics are still recorded as
      usual; collection only adds tree capture. Not reentrant per
      domain: an inner [collect] simply nests its spans in the outer
      tree. *)
end

(** {1 Snapshot and reset} *)

type histogram_snapshot = {
  buckets : (float * int) list;
      (** per-bucket (inclusive upper bound, count); not cumulative *)
  hist_count : int;  (** number of recorded values *)
  hist_sum : int;  (** sum of recorded values *)
}

type span_snapshot = { span_count : int; span_total_ns : int; span_self_ns : int }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_snapshot) list;
  spans : (string * span_snapshot) list;
}
(** Every section is sorted by name; same-name registrations are summed
    (bucket-wise for histograms). All values are deltas since the last
    {!reset_all}, except gauges, which are current state. *)

val snapshot : unit -> snapshot

val counters_now : unit -> (string * int) list
(** The counters section alone, as [--stats] has always reported it. *)

val quantile : histogram_snapshot -> float -> float
(** [quantile h q] for [q] in [0,1]: the inclusive upper bound of the
    first bucket whose cumulative count reaches [q] of the total — an
    upper estimate with log-bucket resolution. [0.] when empty;
    [infinity] when the quantile lands in the overflow bucket. *)

val reset_all : unit -> unit
(** Start a new epoch: advance every counter/histogram/span baseline to
    its current value, so subsequent snapshots report only later events.
    Never zeroes live cells — concurrent bumps are attributed to exactly
    one epoch. Gauges are left untouched. *)

(** {1 Export} *)

module Export : sig
  val counters_json : (string * int) list -> string
  (** The counters-only JSON object [{"name": count, ...}] that
      [--stats] emits. *)

  val prometheus : snapshot -> string
  (** Prometheus text exposition (version 0.0.4): counters as
      [pperf_<name>_total], gauges as [pperf_<name>], histograms as
      [pperf_<name>] histogram families with cumulative [le] buckets,
      [_sum] and [_count], spans as [pperf_span_{count,total_ns,self_ns}]
      families labelled by span name. Dots in names become underscores. *)
end

val to_json : unit -> string
(** [Export.counters_json (counters_now ())]: the [--stats] object,
    byte-compatible with every release since the counter registry was
    introduced. *)
