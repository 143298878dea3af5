(* Typed telemetry registry: counters, gauges, log-bucketed histograms,
   and nestable timed spans. Hot paths hold direct pointers to their
   instrument records, so one event is one atomic fetch-and-add with no
   lookup — domain-safe, so the prediction server's worker domains share
   the registry without losing events. Spans keep a per-domain stack in
   Domain.DLS and fold completed frames into global atomics, so a
   snapshot merges all domains by construction. Reset never zeroes a
   live cell: it advances per-cell baselines (an epoch), and snapshots
   report deltas, so a worker bumping mid-reset is attributed to exactly
   one epoch instead of being half-lost. *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* lock-free registry push, shared by every instrument kind *)
let push_registry registry x =
  let rec go () =
    let old = Atomic.get registry in
    if not (Atomic.compare_and_set registry old (x :: old)) then go ()
  in
  go ()

(* ------------------------------------------------------------- counters *)

type counter = { name : string; count : int Atomic.t; base : int Atomic.t }

let counters : counter list Atomic.t = Atomic.make []

let counter name =
  let c = { name; count = Atomic.make 0; base = Atomic.make 0 } in
  push_registry counters c;
  c

let incr c = Atomic.incr c.count
let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.count n)
let count c = Atomic.get c.count - Atomic.get c.base

(* --------------------------------------------------------------- gauges *)

type gauge = { gname : string; gvalue : int Atomic.t }

let gauges : gauge list Atomic.t = Atomic.make []

let gauge gname =
  let g = { gname; gvalue = Atomic.make 0 } in
  push_registry gauges g;
  g

let set_gauge g v = Atomic.set g.gvalue v
let incr_gauge g = Atomic.incr g.gvalue
let add_gauge g n = if n <> 0 then ignore (Atomic.fetch_and_add g.gvalue n)
let gauge_value g = Atomic.get g.gvalue

(* ----------------------------------------------------------- histograms *)

(* bucket 0: v <= 0; bucket i in 1..38: v <= 2^(i-1); bucket 39: +Inf *)
let bucket_count = 40
let finite_buckets = bucket_count - 1

let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 1 and bound = ref 1 in
    while v > !bound && !i < finite_buckets - 1 do
      Stdlib.incr i;
      bound := !bound * 2
    done;
    if v > !bound then bucket_count - 1 else !i
  end

let bucket_bound i =
  if i <= 0 then 0.0
  else if i < finite_buckets then Float.of_int (1 lsl (i - 1))
  else Float.infinity

type histogram = {
  hname : string;
  buckets : int Atomic.t array;
  hsum : int Atomic.t;
  bbase : int Atomic.t array;
  sbase : int Atomic.t;
}

let histograms : histogram list Atomic.t = Atomic.make []

let histogram hname =
  let h =
    {
      hname;
      buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
      hsum = Atomic.make 0;
      bbase = Array.init bucket_count (fun _ -> Atomic.make 0);
      sbase = Atomic.make 0;
    }
  in
  push_registry histograms h;
  h

let record h v =
  Atomic.incr h.buckets.(bucket_index v);
  ignore (Atomic.fetch_and_add h.hsum (max 0 v))

(* ---------------------------------------------------------------- spans *)

type span = {
  sname : string;
  s_count : int Atomic.t;
  s_total : int Atomic.t;
  s_self : int Atomic.t;
  cbase : int Atomic.t;
  tbase : int Atomic.t;
  selfbase : int Atomic.t;
}

let spans : span list Atomic.t = Atomic.make []

let span sname =
  let s =
    {
      sname;
      s_count = Atomic.make 0;
      s_total = Atomic.make 0;
      s_self = Atomic.make 0;
      cbase = Atomic.make 0;
      tbase = Atomic.make 0;
      selfbase = Atomic.make 0;
    }
  in
  push_registry spans s;
  s

let unbalanced_exits = gauge "obs.span.unbalanced"

type tnode = { name : string; total_ns : int; self_ns : int; children : tnode list }

type frame = {
  f_sp : span;
  f_start : int;
  mutable f_child : int;
  mutable f_nodes : tnode list;  (* reversed; only filled while tracing *)
}

type dls_state = {
  mutable stack : frame list;
  mutable tracing : bool;
  mutable roots : tnode list;  (* reversed *)
}

let dls : dls_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stack = []; tracing = false; roots = [] })

let enter sp =
  let st = Domain.DLS.get dls in
  st.stack <- { f_sp = sp; f_start = now_ns (); f_child = 0; f_nodes = [] } :: st.stack

(* close the top frame at time [t]: fold its elapsed/self time into the
   span's global atomics, charge the elapsed time to the parent's child
   accumulator, and (under tracing) attach the subtree node *)
let close_top st t =
  match st.stack with
  | [] -> ()
  | f :: rest ->
    st.stack <- rest;
    let elapsed = max 0 (t - f.f_start) in
    let self = max 0 (elapsed - f.f_child) in
    Atomic.incr f.f_sp.s_count;
    ignore (Atomic.fetch_and_add f.f_sp.s_total elapsed);
    ignore (Atomic.fetch_and_add f.f_sp.s_self self);
    (match rest with parent :: _ -> parent.f_child <- parent.f_child + elapsed | [] -> ());
    if st.tracing then (
      let node =
        {
          name = f.f_sp.sname;
          total_ns = elapsed;
          self_ns = self;
          children = List.rev f.f_nodes;
        }
      in
      match rest with
      | parent :: _ -> parent.f_nodes <- node :: parent.f_nodes
      | [] -> st.roots <- node :: st.roots)

let exit sp =
  let st = Domain.DLS.get dls in
  match st.stack with
  | f :: _ when f.f_sp == sp -> close_top st (now_ns ())
  | stack when List.exists (fun f -> f.f_sp == sp) stack ->
    let t = now_ns () in
    (* frames still open above the match are implicitly closed at [t] *)
    let rec unwind () =
      match st.stack with
      | [] -> ()
      | f :: _ ->
        let matched = f.f_sp == sp in
        close_top st t;
        if not matched then unwind ()
    in
    unwind ()
  | _ -> incr_gauge unbalanced_exits

let time sp f =
  enter sp;
  match f () with
  | v ->
    exit sp;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    exit sp;
    Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------- snapshot *)

type histogram_snapshot = {
  buckets : (float * int) list;
  hist_count : int;
  hist_sum : int;
}

type span_snapshot = { span_count : int; span_total_ns : int; span_self_ns : int }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * histogram_snapshot) list;
  spans : (string * span_snapshot) list;
}

let by_name_sorted pairs =
  List.sort (fun (a, _) (b, _) -> String.compare a b) pairs

(* merge same-name registrations with [combine], sort by name *)
let merged name_of value_of combine entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let n = name_of e and v = value_of e in
      match Hashtbl.find_opt tbl n with
      | Some cur -> Hashtbl.replace tbl n (combine cur v)
      | None -> Hashtbl.add tbl n v)
    entries;
  by_name_sorted (Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl [])

let counters_now () =
  merged (fun (c : counter) -> c.name) count ( + ) (Atomic.get counters)

let histogram_snapshot_of (h : histogram) =
  let counts =
    Array.init bucket_count (fun i ->
        max 0 (Atomic.get h.buckets.(i) - Atomic.get h.bbase.(i)))
  in
  {
    buckets = Array.to_list (Array.mapi (fun i n -> (bucket_bound i, n)) counts);
    hist_count = Array.fold_left ( + ) 0 counts;
    hist_sum = max 0 (Atomic.get h.hsum - Atomic.get h.sbase);
  }

let merge_hist a b =
  {
    buckets = List.map2 (fun (le, n) (_, n') -> (le, n + n')) a.buckets b.buckets;
    hist_count = a.hist_count + b.hist_count;
    hist_sum = a.hist_sum + b.hist_sum;
  }

let span_snapshot_of s =
  {
    span_count = max 0 (Atomic.get s.s_count - Atomic.get s.cbase);
    span_total_ns = max 0 (Atomic.get s.s_total - Atomic.get s.tbase);
    span_self_ns = max 0 (Atomic.get s.s_self - Atomic.get s.selfbase);
  }

let merge_span a b =
  {
    span_count = a.span_count + b.span_count;
    span_total_ns = a.span_total_ns + b.span_total_ns;
    span_self_ns = a.span_self_ns + b.span_self_ns;
  }

let snapshot () =
  {
    counters = counters_now ();
    gauges = merged (fun g -> g.gname) gauge_value ( + ) (Atomic.get gauges);
    histograms =
      merged (fun h -> h.hname) histogram_snapshot_of merge_hist (Atomic.get histograms);
    spans = merged (fun s -> s.sname) span_snapshot_of merge_span (Atomic.get spans);
  }

let quantile hs q =
  if hs.hist_count = 0 then 0.0
  else begin
    let threshold = Float.max 1.0 (Float.of_int hs.hist_count *. q) in
    let rec go cum = function
      | [] -> Float.infinity
      | (le, n) :: rest ->
        let cum = cum + n in
        if n > 0 && Float.of_int cum >= threshold then le else go cum rest
    in
    go 0 hs.buckets
  end

let reset_all () =
  List.iter
    (fun c -> Atomic.set c.base (Atomic.get c.count))
    (Atomic.get counters);
  List.iter
    (fun h ->
      Array.iteri (fun i b -> Atomic.set h.bbase.(i) (Atomic.get b)) h.buckets;
      Atomic.set h.sbase (Atomic.get h.hsum))
    (Atomic.get histograms);
  List.iter
    (fun s ->
      Atomic.set s.cbase (Atomic.get s.s_count);
      Atomic.set s.tbase (Atomic.get s.s_total);
      Atomic.set s.selfbase (Atomic.get s.s_self))
    (Atomic.get spans)

(* ---------------------------------------------------------------- trace *)

module Trace = struct
  type node = tnode = {
    name : string;
    total_ns : int;
    self_ns : int;
    children : node list;
  }

  let collect f =
    let st = Domain.DLS.get dls in
    let was_tracing = st.tracing in
    let saved_roots = st.roots in
    st.tracing <- true;
    if not was_tracing then st.roots <- [];
    let start = now_ns () in
    let finish () =
      let total = max 0 (now_ns () - start) in
      let children = if was_tracing then [] else List.rev st.roots in
      let child_total = List.fold_left (fun acc n -> acc + n.total_ns) 0 children in
      st.tracing <- was_tracing;
      if not was_tracing then st.roots <- saved_roots;
      { name = "trace"; total_ns = total; self_ns = max 0 (total - child_total); children }
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
      ignore (finish ());
      raise e
end

(* --------------------------------------------------------------- export *)

module Export = struct
  let counters_json snap =
    let fields = List.map (fun (name, n) -> Printf.sprintf "%S: %d" name n) snap in
    "{" ^ String.concat ", " fields ^ "}"

  let bound_string le =
    if Float.is_integer le && Float.abs le < 1e15 then Printf.sprintf "%.0f" le
    else if le = Float.infinity then "+Inf"
    else Printf.sprintf "%g" le

  let sanitize name =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c | _ -> '_')
      name

  let prometheus (s : snapshot) =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (n, v) ->
        let m = "pperf_" ^ sanitize n ^ "_total" in
        Printf.bprintf buf "# TYPE %s counter\n%s %d\n" m m v)
      s.counters;
    List.iter
      (fun (n, v) ->
        let m = "pperf_" ^ sanitize n in
        Printf.bprintf buf "# TYPE %s gauge\n%s %d\n" m m v)
      s.gauges;
    List.iter
      (fun (n, h) ->
        let m = "pperf_" ^ sanitize n in
        Printf.bprintf buf "# TYPE %s histogram\n" m;
        let cum = ref 0 in
        List.iter
          (fun (le, c) ->
            cum := !cum + c;
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" m (bound_string le) !cum)
          h.buckets;
        Printf.bprintf buf "%s_sum %d\n%s_count %d\n" m h.hist_sum m h.hist_count)
      s.histograms;
    if s.spans <> [] then begin
      Buffer.add_string buf "# TYPE pperf_span_count counter\n";
      List.iter
        (fun (n, sp) ->
          Printf.bprintf buf "pperf_span_count{span=%S} %d\n" n sp.span_count)
        s.spans;
      Buffer.add_string buf "# TYPE pperf_span_total_ns counter\n";
      List.iter
        (fun (n, sp) ->
          Printf.bprintf buf "pperf_span_total_ns{span=%S} %d\n" n sp.span_total_ns)
        s.spans;
      Buffer.add_string buf "# TYPE pperf_span_self_ns counter\n";
      List.iter
        (fun (n, sp) ->
          Printf.bprintf buf "pperf_span_self_ns{span=%S} %d\n" n sp.span_self_ns)
        s.spans
    end;
    Buffer.contents buf
end

let to_json () = Export.counters_json (counters_now ())
