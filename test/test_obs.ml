(* Tests for the lib/obs telemetry API: histogram bucket boundaries and
   quantiles, span nesting self/total accounting, unbalanced exits,
   cross-domain snapshot merging, epoch-consistent reset, and the bounded
   memo tables. *)

module Obs = Pperf_obs.Obs

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let hist_of name snap =
  match List.assoc_opt name snap.Obs.histograms with
  | Some h -> h
  | None -> Alcotest.failf "histogram %S missing from snapshot" name

let span_of name snap =
  match List.assoc_opt name snap.Obs.spans with
  | Some s -> s
  | None -> Alcotest.failf "span %S missing from snapshot" name

(* ---------------------------------------------------------- histograms *)

let test_bucket_boundaries () =
  (* bucket 0 is the <= 0 bucket *)
  Alcotest.(check int) "zero" 0 (Obs.bucket_index 0);
  Alcotest.(check int) "negative" 0 (Obs.bucket_index (-7));
  (* one-cycle/one-ns values land in the first finite bucket, bound 1 *)
  Alcotest.(check int) "one" 1 (Obs.bucket_index 1);
  Alcotest.(check (float 0.0)) "bound of bucket 1" 1.0 (Obs.bucket_bound 1);
  (* each finite bucket's inclusive upper bound is a power of two *)
  Alcotest.(check int) "two" 2 (Obs.bucket_index 2);
  Alcotest.(check int) "three" 3 (Obs.bucket_index 3);
  Alcotest.(check int) "four" 3 (Obs.bucket_index 4);
  Alcotest.(check int) "five" 4 (Obs.bucket_index 5);
  List.iter
    (fun i ->
      let b = int_of_float (Obs.bucket_bound i) in
      Alcotest.(check int) (Printf.sprintf "bound %d inclusive" i) i (Obs.bucket_index b);
      Alcotest.(check int) (Printf.sprintf "bound %d + 1 spills" i) (i + 1)
        (Obs.bucket_index (b + 1)))
    [ 1; 2; 5; 10; 20; 30 ];
  (* the last finite bucket is inclusive of its bound; past it, overflow *)
  let last = Obs.bucket_count - 2 in
  let top = int_of_float (Obs.bucket_bound last) in
  Alcotest.(check int) "top finite value" last (Obs.bucket_index top);
  Alcotest.(check int) "overflow" (Obs.bucket_count - 1) (Obs.bucket_index (top + 1));
  Alcotest.(check bool) "overflow bound is +Inf" true
    (Obs.bucket_bound (Obs.bucket_count - 1) = Float.infinity)

let test_histogram_record_and_quantile () =
  Obs.reset_all ();
  let h = Obs.histogram "test.hist" in
  (* empty histogram: quantiles degrade to 0 *)
  let empty = hist_of "test.hist" (Obs.snapshot ()) in
  Alcotest.(check int) "empty count" 0 empty.Obs.hist_count;
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Obs.quantile empty 0.5);
  (* 90 small values and 10 large ones: p50 small, p99 large *)
  for _ = 1 to 90 do Obs.record h 3 done;
  for _ = 1 to 10 do Obs.record h 1000 done;
  let s = hist_of "test.hist" (Obs.snapshot ()) in
  Alcotest.(check int) "count" 100 s.Obs.hist_count;
  Alcotest.(check int) "sum" ((90 * 3) + (10 * 1000)) s.Obs.hist_sum;
  Alcotest.(check (float 0.0)) "p50 upper bound" 4.0 (Obs.quantile s 0.5);
  Alcotest.(check (float 0.0)) "p99 upper bound" 1024.0 (Obs.quantile s 0.99);
  (* zero and overflow records land in their dedicated buckets *)
  Obs.record h 0;
  Obs.record h max_int;
  let s = hist_of "test.hist" (Obs.snapshot ()) in
  let bucket i = snd (List.nth s.Obs.buckets i) in
  Alcotest.(check int) "zero bucket" 1 (bucket 0);
  Alcotest.(check int) "overflow bucket" 1 (bucket (Obs.bucket_count - 1));
  Alcotest.(check bool) "overflow quantile is +Inf" true
    (Obs.quantile s 1.0 = Float.infinity)

(* --------------------------------------------------------------- spans *)

let spin_ns ns =
  let t0 = Unix.gettimeofday () in
  while (Unix.gettimeofday () -. t0) *. 1e9 < float_of_int ns do () done

let test_span_nesting () =
  Obs.reset_all ();
  let outer = Obs.span "test.outer" and inner = Obs.span "test.inner" in
  Obs.time outer (fun () ->
      spin_ns 200_000;
      Obs.time inner (fun () -> spin_ns 200_000);
      Obs.time inner (fun () -> spin_ns 200_000));
  let snap = Obs.snapshot () in
  let o = span_of "test.outer" snap and i = span_of "test.inner" snap in
  Alcotest.(check int) "outer count" 1 o.Obs.span_count;
  Alcotest.(check int) "inner count" 2 i.Obs.span_count;
  (* the outer span's total covers the inner ones; its self time does not *)
  Alcotest.(check bool) "outer total covers inner" true
    (o.Obs.span_total_ns >= i.Obs.span_total_ns);
  Alcotest.(check bool) "outer self excludes inner" true
    (o.Obs.span_self_ns <= o.Obs.span_total_ns - i.Obs.span_total_ns);
  Alcotest.(check bool) "inner leaf: self = total" true
    (i.Obs.span_self_ns = i.Obs.span_total_ns)

let test_span_exception_balance () =
  Obs.reset_all ();
  let sp = Obs.span "test.raises" in
  (match Obs.time sp (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "exception swallowed");
  let s = span_of "test.raises" (Obs.snapshot ()) in
  Alcotest.(check int) "frame closed on exception" 1 s.Obs.span_count

let unbalanced_now () =
  match List.assoc_opt "obs.span.unbalanced" (Obs.snapshot ()).Obs.gauges with
  | Some v -> v
  | None -> Alcotest.fail "obs.span.unbalanced gauge missing"

let test_span_unbalanced_exit () =
  Obs.reset_all ();
  let g0 = unbalanced_now () in
  let sp = Obs.span "test.unbalanced" in
  (* exit with no matching frame: counted no-op, no crash *)
  Obs.exit sp;
  Alcotest.(check bool) "unbalanced exit counted" true (unbalanced_now () > g0);
  (* exiting an outer frame implicitly closes frames opened above it *)
  let outer = Obs.span "test.unb.outer" and inner = Obs.span "test.unb.inner" in
  Obs.enter outer;
  Obs.enter inner;
  Obs.exit outer;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "outer recorded" 1 (span_of "test.unb.outer" snap).Obs.span_count;
  Alcotest.(check int) "inner implicitly closed" 1
    (span_of "test.unb.inner" snap).Obs.span_count

let test_trace_tree () =
  Obs.reset_all ();
  let outer = Obs.span "test.tr.outer" and inner = Obs.span "test.tr.inner" in
  let (), tree =
    Obs.Trace.collect (fun () ->
        Obs.time outer (fun () ->
            Obs.time inner (fun () -> spin_ns 100_000)))
  in
  Alcotest.(check string) "root name" "trace" tree.Obs.Trace.name;
  (match tree.Obs.Trace.children with
  | [ o ] ->
    Alcotest.(check string) "outer child" "test.tr.outer" o.Obs.Trace.name;
    (match o.Obs.Trace.children with
    | [ i ] -> Alcotest.(check string) "inner grandchild" "test.tr.inner" i.Obs.Trace.name
    | l -> Alcotest.failf "expected 1 grandchild, got %d" (List.length l));
    Alcotest.(check bool) "root total covers child" true
      (tree.Obs.Trace.total_ns >= o.Obs.Trace.total_ns)
  | l -> Alcotest.failf "expected 1 child, got %d" (List.length l));
  (* tracing leaves the aggregated statistics intact *)
  Alcotest.(check int) "aggregate still recorded" 1
    (span_of "test.tr.outer" (Obs.snapshot ())).Obs.span_count;
  (* spans completed after collection do not leak into a stale tree *)
  let (), empty = Obs.Trace.collect (fun () -> ()) in
  Alcotest.(check int) "fresh collect starts empty" 0
    (List.length empty.Obs.Trace.children)

(* -------------------------------------------------------- cross-domain *)

let test_cross_domain_merge () =
  Obs.reset_all ();
  let c = Obs.counter "test.xd.counter" in
  let h = Obs.histogram "test.xd.hist" in
  let sp = Obs.span "test.xd.span" in
  let work () =
    for _ = 1 to 1000 do Obs.incr c done;
    for v = 1 to 100 do Obs.record h v done;
    Obs.time sp (fun () -> ())
  in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter merged over 5 domains" 5000 (Obs.count c);
  let hs = hist_of "test.xd.hist" snap in
  Alcotest.(check int) "histogram merged" 500 hs.Obs.hist_count;
  Alcotest.(check int) "sum merged" (5 * 5050) hs.Obs.hist_sum;
  Alcotest.(check int) "span frames merged" 5 (span_of "test.xd.span" snap).Obs.span_count

(* --------------------------------------------------------------- reset *)

let test_epoch_reset () =
  let c = Obs.counter "test.reset.counter" in
  let h = Obs.histogram "test.reset.hist" in
  let sp = Obs.span "test.reset.span" in
  let g = Obs.gauge "test.reset.gauge" in
  Obs.incr c;
  Obs.record h 5;
  Obs.time sp (fun () -> ());
  Obs.set_gauge g 7;
  Obs.reset_all ();
  (* a new epoch: counted state reads zero, gauges keep current state *)
  Alcotest.(check int) "counter rebased" 0 (Obs.count c);
  let snap = Obs.snapshot () in
  Alcotest.(check int) "histogram rebased" 0 (hist_of "test.reset.hist" snap).Obs.hist_count;
  Alcotest.(check int) "span rebased" 0 (span_of "test.reset.span" snap).Obs.span_count;
  Alcotest.(check int) "gauge untouched" 7 (Obs.gauge_value g);
  (* post-reset activity is visible and never negative *)
  Obs.incr c;
  Alcotest.(check int) "delta since epoch" 1 (Obs.count c);
  Obs.reset_all ();
  Alcotest.(check bool) "never negative" true (Obs.count c >= 0)

(* -------------------------------------------------------------- export *)

let test_export_shapes () =
  Obs.reset_all ();
  let c = Obs.counter "test.exp.counter" in
  Obs.incr c;
  let h = Obs.histogram "test.exp.hist" in
  Obs.record h 3;
  let prom = Obs.Export.prometheus (Obs.snapshot ()) in
  Alcotest.(check bool) "counter family" true
    (contains prom "pperf_test_exp_counter_total 1");
  Alcotest.(check bool) "histogram type line" true
    (contains prom "# TYPE pperf_test_exp_hist histogram");
  Alcotest.(check bool) "+Inf bucket" true (contains prom "le=\"+Inf\"");
  Alcotest.(check bool) "hist count" true (contains prom "pperf_test_exp_hist_count 1");
  (* --stats stays the counters-only object *)
  let stats = Obs.to_json () in
  Alcotest.(check bool) "--stats has counters" true
    (contains stats "\"test.exp.counter\": 1");
  Alcotest.(check bool) "--stats has no sections" true
    (not (contains stats "\"histograms\""))

(* ---------------------------------------------------------------- memo *)

module Memo = Pperf_obs.Memo

let pure k = (k * 7919) + 3

let family_entries name =
  Option.fold ~none:0 ~some:(fun (s : Memo.stats) -> s.entries)
    (List.assoc_opt name (Memo.report ()))

(* every value is the function's, the table never passes its capacity,
   and every lookup is a hit or a miss *)
let memo_steps t ~capacity keys =
  List.for_all
    (fun k -> Memo.find_or_add t k (fun () -> pure k) = pure k && (Memo.stats t).entries <= capacity)
    keys

let memo_sequences =
  QCheck.Test.make ~name:"find_or_add at capacities 1, 2 and 8" ~count:300
    QCheck.(pair (oneofl [ 1; 2; 8 ]) (list_of_size Gen.(0 -- 64) (int_bound 15)))
    (fun (capacity, keys) ->
      List.for_all
        (fun sharing ->
          let t = Memo.create sharing "test.memo" ~capacity in
          let ok = memo_steps t ~capacity keys in
          let s = Memo.stats t in
          Memo.clear t;
          ok && s.hits + s.misses = List.length keys)
        [ Memo.Local; Memo.Shared; Memo.Per_domain ])

let memo_shared_domains =
  QCheck.Test.make ~name:"shared table under 4 domains" ~count:40
    QCheck.(pair (oneofl [ 1; 2; 8 ]) (list_of_size (Gen.return 4) (list_of_size Gen.(0 -- 64) (int_bound 15))))
    (fun (capacity, streams) ->
      let t = Memo.create Memo.Shared "test.memo.shared" ~capacity in
      let ok =
        List.map (fun keys -> Domain.spawn (fun () -> memo_steps t ~capacity keys)) streams
        |> List.map Domain.join |> List.for_all Fun.id
      in
      let s = Memo.stats t in
      Memo.clear t;
      ok && s.entries <= capacity && s.hits + s.misses = List.length (List.concat streams))

let test_memo_domain_exit () =
  let t = Memo.create Memo.Per_domain "test.memo.domains" ~capacity:8 in
  let before = family_entries "test.memo.domains" in
  let during =
    Domain.join
      (Domain.spawn (fun () ->
           for k = 1 to 5 do
             ignore (Memo.find_or_add t k (fun () -> pure k))
           done;
           family_entries "test.memo.domains"))
  in
  Alcotest.(check int) "the domain's entries count" (before + 5) during;
  Alcotest.(check int) "and leave with it" before (family_entries "test.memo.domains")

let test_memo_owner_eviction () =
  let outer = Memo.create ~on_drop:Memo.clear Memo.Local "test.memo.outer" ~capacity:1 in
  let owner () =
    let inner = Memo.create Memo.Local "test.memo.inner" ~capacity:4 in
    List.iter (fun k -> ignore (Memo.add inner k (pure k))) [ 1; 2; 3 ];
    inner
  in
  let before = family_entries "test.memo.inner" in
  ignore (Memo.find_or_add outer 1 owner);
  Alcotest.(check int) "one owner's entries" (before + 3) (family_entries "test.memo.inner");
  ignore (Memo.find_or_add outer 2 owner);
  Alcotest.(check int) "the evicted owner's left" (before + 3) (family_entries "test.memo.inner");
  Memo.clear outer;
  Alcotest.(check int) "a cleared owner's too" before (family_entries "test.memo.inner")

let () =
  Alcotest.run "obs"
    [
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "record and quantile" `Quick test_histogram_record_and_quantile;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception balance" `Quick test_span_exception_balance;
          Alcotest.test_case "unbalanced exit" `Quick test_span_unbalanced_exit;
          Alcotest.test_case "trace tree" `Quick test_trace_tree;
        ] );
      ( "domains",
        [ Alcotest.test_case "cross-domain merge" `Quick test_cross_domain_merge ] );
      ( "reset",
        [ Alcotest.test_case "epoch reset" `Quick test_epoch_reset ] );
      ( "export",
        [ Alcotest.test_case "export shapes" `Quick test_export_shapes ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) memo_sequences;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) memo_shared_domains;
          Alcotest.test_case "domain exit" `Quick test_memo_domain_exit;
          Alcotest.test_case "owner eviction" `Quick test_memo_owner_eviction;
        ] );
    ]
