(* Request evaluation: one request in, one response out, never an
   escaping exception. Query verbs go through a content-addressed result
   cache, a shared memo keyed by (machine hash for the rows that take a
   machine, source hash, verb, canonical flags); a miss runs the verb's
   Query row — the same run the one-shot CLI subcommand makes, predict
   through an Incremental predictor that every worker domain shares — so
   the payload is the CLI's stdout, warnings and exit code. Every error
   maps through Query's exception table to a structured error response
   with the message the CLI prints to stderr.

   Telemetry: every lifecycle stage is measured into the Obs registry —
   queue wait, cache lookup, and evaluation as log-bucketed histograms
   (plus the end-to-end request latency), cache lookup and evaluation
   additionally as spans so a traced request ([flags.trace]) shows where
   it spent its time down through the pipeline phases. *)

open Pperf_core
module Obs = Pperf_obs.Obs
module Memo = Pperf_obs.Memo

type t = {
  cache : (string, Query.payload) Memo.t;
  jobs : int;
  requests : int Atomic.t;
  ok_count : int Atomic.t;
  err_count : int Atomic.t;
  queue_ns_total : int Atomic.t;
  eval_ns_total : int Atomic.t;
}

(* request-lifecycle telemetry (shared registry: a daemon has one engine,
   so the per-process registry is the engine's) *)
let h_request = Obs.histogram "server.request_ns"
let h_queue = Obs.histogram "server.queue_ns"
let h_cache = Obs.histogram "server.cache_ns"
let h_eval = Obs.histogram "server.eval_ns"
let sp_cache = Obs.span "server.cache_lookup"
let sp_eval = Obs.span "server.eval"
let g_requests = Obs.gauge "server.requests"
let g_ok = Obs.gauge "server.ok"
let g_errors = Obs.gauge "server.errors"
let g_inc_hits = Obs.gauge "server.incremental.hits"
let g_inc_misses = Obs.gauge "server.incremental.misses"
let g_jobs = Obs.gauge "server.jobs"

let create ~jobs () =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Engine.create: jobs must be >= 1 (got %d)" jobs);
  {
    cache = Memo.create Memo.Shared "server.cache" ~capacity:4096;
    jobs;
    requests = Atomic.make 0;
    ok_count = Atomic.make 0;
    err_count = Atomic.make 0;
    queue_ns_total = Atomic.make 0;
    eval_ns_total = Atomic.make 0;
  }

(* mean wall time of one evaluated request so far — the unit behind the
   fleet's retry-after hint. Zero before the first request completes. *)
let mean_eval_ns t =
  let n = Atomic.get t.ok_count + Atomic.get t.err_count in
  if n = 0 then 0 else Atomic.get t.eval_ns_total / n

let now = Unix.gettimeofday
let ns_of_span s = int_of_float (s *. 1e9)

(* a span plus a latency histogram around one lifecycle stage *)
let staged sp hist f =
  Obs.enter sp;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      Obs.record hist (ns_of_span (now () -. t0));
      Obs.exit sp)
    f

(* Every worker domain shares one Incremental predictor per machine, with
   and without --memory: 8 cover the four builtins. A ranges run
   (--ranges, or a relational --domain) aggregates the whole routine from
   scratch, as Incremental would, so it takes no predictor. An evicted
   predictor drops its units; a request still predicting with it drops
   them again when it is done, so no unit stored after the eviction stays
   counted in the "incremental.units" entries. *)
type shared = { inc : Incremental.t; evicted : bool Atomic.t }

let predictors =
  Memo.create
    ~on_drop:(fun p ->
      Atomic.set p.evicted true;
      Incremental.clear p.inc)
    Memo.Shared "server.predictors" ~capacity:8

(* the predict row's predictor: the shared Incremental predictor for the
   machine, looked up when the first routine is predicted, so the other
   rows never create one *)
let predictor machine (options : Aggregate.options) =
  if options.infer_ranges then None
  else
    let p =
      lazy
        (Memo.find_or_add predictors (Machines.hash machine, options.include_memory) (fun () ->
             { inc = Incremental.create ~options machine; evicted = Atomic.make false }))
    in
    Some
      (fun checked ->
        let p = Lazy.force p in
        Fun.protect
          ~finally:(fun () -> if Atomic.get p.evicted then Incremental.clear p.inc)
          (fun () -> Incremental.predict_checked p.inc checked))

(* Evaluate a query from scratch; exceptions escape to [handle]. [srcs]
   are the request's sources already resolved to text — the same text
   the cache key digested, so a file edit racing the request can never
   cache one version's output under the other's digest. *)
let run_query (q : Query.t) (flags : Options.t) ~srcs machine =
  let sources = Query.required q srcs in
  Query.run ?predictor:(predictor machine (Options.to_aggregate flags)) q flags machine sources

(* refresh the engine-state gauges so stats/metrics exposition and any
   later scrape see current values *)
let publish_gauges t =
  let inc_hits, inc_misses = Incremental.totals () in
  Obs.set_gauge g_requests (Atomic.get t.requests);
  Obs.set_gauge g_ok (Atomic.get t.ok_count);
  Obs.set_gauge g_errors (Atomic.get t.err_count);
  Obs.set_gauge g_inc_hits inc_hits;
  Obs.set_gauge g_inc_misses inc_misses;
  Obs.set_gauge g_jobs t.jobs

let quantile_json hs q =
  let v = Obs.quantile hs q in
  if Float.is_finite v then Json.Float v else Json.String "+Inf"

let hist_json hs =
  Json.Obj
    [ ("count", Json.Int hs.Obs.hist_count); ("sum_ns", Json.Int hs.Obs.hist_sum);
      ("p50_ns", quantile_json hs 0.50); ("p90_ns", quantile_json hs 0.90);
      ("p99_ns", quantile_json hs 0.99) ]

(* the [stats] verb payload: request/outcome counts, cache hit rates,
   each memo's entries and capacity, stage histograms, span aggregates
   and the counter snapshot *)
let stats_json t =
  let cache = Memo.stats t.cache in
  let inc_hits, inc_misses = Incremental.totals () in
  let snap = Obs.snapshot () in
  let hist name =
    match List.assoc_opt name snap.Obs.histograms with
    | Some hs -> hist_json hs
    | None -> Json.Obj []
  in
  Json.Obj
    [ ("requests", Json.Int (Atomic.get t.requests));
      ("ok", Json.Int (Atomic.get t.ok_count));
      ("errors", Json.Int (Atomic.get t.err_count));
      ( "cache",
        Json.Obj
          [ ("hits", Json.Int cache.hits); ("misses", Json.Int cache.misses);
            ("entries", Json.Int cache.entries) ] );
      ("incremental", Json.Obj [ ("hits", Json.Int inc_hits); ("misses", Json.Int inc_misses) ]);
      ("machines", Json.Int (Machines.loaded_count ()));
      ( "memos",
        Json.Obj
          (List.map
             (fun (name, (s : Memo.stats)) ->
               (name, Json.Obj [ ("entries", Json.Int s.entries); ("capacity", Json.Int s.capacity) ]))
             (Memo.report ())) );
      ("jobs", Json.Int t.jobs);
      ("queue_ns", Json.Int (Atomic.get t.queue_ns_total));
      ("eval_ns", Json.Int (Atomic.get t.eval_ns_total));
      ("latency", hist "server.request_ns");
      ( "stages",
        Json.Obj
          [ ("queue", hist "server.queue_ns"); ("cache", hist "server.cache_ns");
            ("eval", hist "server.eval_ns"); ("write", hist "server.write_ns") ] );
      ( "spans",
        Json.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Json.Obj
                   [ ("count", Json.Int s.Obs.span_count);
                     ("total_ns", Json.Int s.Obs.span_total_ns);
                     ("self_ns", Json.Int s.Obs.span_self_ns) ] ))
             snap.Obs.spans) );
      ( "counters",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) snap.Obs.counters) ) ]

(* the [metrics] verb payload: the telemetry snapshot as Prometheus text,
   with the engine's own state published as gauges first *)
let metrics_text t =
  publish_gauges t;
  Obs.Export.prometheus (Obs.snapshot ())

(* a query answered from the result cache or evaluated afresh:
   (payload, cached, span tree) *)
let answer t (req : Protocol.request) (q : Query.t) =
  let machine = Machines.load req.machine in
  (* resolve file sources to text exactly once: digesting and evaluating
     the same bytes even if the file changes mid-request *)
  let srcs = List.map (Option.map Query.source_text) [ req.source; req.source2 ] in
  (* the key digests the resolved sources, plus whatever else the verb
     reads — the machine only for the rows that take one — so a file edit
     invalidates the entry; traced requests bypass the cache, their span
     tree being per-evaluation by definition *)
  let key =
    if req.flags.trace then None
    else
      let digest = Option.fold ~none:"" ~some:Digest.string in
      let sources = Digest.string (String.concat "" (List.map digest srcs) ^ q.inputs ()) in
      let machine = if q.machine = Query.No_machine then "" else Machines.hash machine in
      Some
        (Digest.string
           (String.concat "\x00"
              [ machine; sources; Query.name q; Protocol.flags_key req.flags ]))
  in
  match Option.bind key (fun k -> staged sp_cache h_cache (fun () -> Memo.find t.cache k)) with
  | Some p -> (p, true, None)
  | None ->
    let eval () = staged sp_eval h_eval (fun () -> run_query q req.flags ~srcs machine) in
    let p, trace =
      if req.flags.trace then (
        let p, node = Obs.Trace.collect eval in
        (p, Some (Render.trace_json node)))
      else (eval (), None)
    in
    Option.iter (fun k -> ignore (Memo.add t.cache k p)) key;
    (p, false, trace)

let handle t ~received (req : Protocol.request) : Protocol.response =
  Atomic.incr t.requests;
  let start = now () in
  let queue_ns = ns_of_span (start -. received) in
  ignore (Atomic.fetch_and_add t.queue_ns_total queue_ns);
  Obs.record h_queue queue_ns;
  let expired at =
    match req.deadline_ms with
    | Some d -> (at -. received) *. 1000.0 > d
    | None -> false
  in
  let finish response =
    (match response with
     | Protocol.Ok_response _ -> Atomic.incr t.ok_count
     | Protocol.Err_response _ -> Atomic.incr t.err_count);
    Obs.record h_request (ns_of_span (now () -. received));
    response
  in
  if expired start then
    finish
      (Protocol.err ~id:req.id Protocol.Deadline_exceeded
         (Printf.sprintf "deadline of %gms expired before evaluation"
            (Option.get req.deadline_ms)))
  else
    match Query.find req.verb with
    | None ->
      (* a control verb: ping, stats, metrics or shutdown *)
      let stats, output =
        match req.verb with
        | Protocol.Ping -> (None, "pong")
        | Protocol.Stats -> (Some (stats_json t), "")
        | Protocol.Metrics -> (None, metrics_text t)
        | _ -> (None, "")
      in
      finish
        (Protocol.ok ~id:req.id ~verb:req.verb ?stats ~warnings:req.proto_warnings
           ~timing:{ queue_ns; eval_ns = 0 } output)
    | Some q -> (
      match answer t req q with
      | (payload : Query.payload), cached, trace ->
        let stop = now () in
        let eval_ns = ns_of_span (stop -. start) in
        ignore (Atomic.fetch_and_add t.eval_ns_total eval_ns);
        finish
          (Protocol.ok ~id:req.id ~verb:req.verb ~status:payload.status ~cached
             ~deadline_missed:(expired stop)
             ~warnings:(payload.warnings @ req.proto_warnings)
             ?trace ~timing:{ queue_ns; eval_ns } payload.output)
      | exception e ->
        let code, message = Query.error_of_exn e in
        finish (Protocol.err ~id:req.id code message))
