(* Tests for lib/server: the hand-written JSON layer, the request/response
   protocol, the result cache, and full batch sessions on the serving core —
   including the acceptance properties: responses byte-identical to the
   one-shot renderers, warm repeats served from cache, malformed requests
   answered with structured errors while the session stays live, and
   identical response sets under --jobs 1 and --jobs 4. *)

open Pperf_server

let daxpy =
  "subroutine daxpy(x, y, a, n)\n\
  \  integer n, i\n\
  \  real x(100000), y(100000), a\n\
  \  do i = 1, n\n\
  \    y(i) = y(i) + a * x(i)\n\
  \  end do\n\
   end\n"

(* ------------------------------------------------------------- json *)

let roundtrip s = Json.to_string (Json.of_string s)

let test_json_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (roundtrip s))
    [
      "null"; "true"; "false"; "0"; "-12"; "3.5"; "\"\""; "\"a b\""; "[]";
      "[1,2,3]"; "{}"; "{\"a\":1,\"b\":[true,null]}"; "\"\\n\\t\\\\\\\"\"";
      "{\"nested\":{\"deep\":[{\"x\":\"y\"}]}}";
    ]

let test_json_escapes () =
  Alcotest.(check string) "unicode escape" "\"\xc3\xa9\"" (roundtrip "\"\\u00e9\"");
  Alcotest.(check string) "surrogate pair" "\"\xf0\x9f\x99\x82\"" (roundtrip "\"\\ud83d\\ude42\"");
  Alcotest.(check string) "control char escaped" "\"\\u0001\"" (Json.to_string (Json.String "\x01"))

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | j -> Alcotest.failf "%S parsed as %s" s (Json.to_string j))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}";
      "\"raw\ncontrol\"";
      (* unpaired surrogates must not decode to invalid UTF-8 *)
      "\"\\ud800\""; "\"\\udc00\""; "\"\\ud800x\""; "\"\\ud800\\n\"";
      "\"\\ud83d\\ud83d\"" ]

(* --------------------------------------------------------- protocol *)

let parse_req line =
  match Protocol.request_of_line line with
  | Ok r -> r
  | Error (_, msg) -> Alcotest.failf "request rejected: %s" msg

let test_request_defaults () =
  let r = parse_req {|{"verb":"predict","source":"x"}|} in
  Alcotest.(check string) "default machine" "power1" r.machine;
  Alcotest.(check bool) "id defaults to null" true (r.id = Json.Null);
  Alcotest.(check bool) "no deadline" true (r.deadline_ms = None);
  Alcotest.(check bool) "default flags" true (r.flags = Protocol.default_flags)

let test_request_rejects () =
  let code line =
    match Protocol.request_of_line line with
    | Error (c, _) -> Protocol.error_code_string c
    | Ok _ -> "ok"
  in
  Alcotest.(check string) "bad json" "bad_json" (code "nope");
  Alcotest.(check string) "non-object" "bad_request" (code "[1]");
  Alcotest.(check string) "missing verb" "bad_request" (code "{}");
  Alcotest.(check string) "unknown verb" "unknown_verb" (code {|{"verb":"zap"}|});
  Alcotest.(check string) "source and file" "bad_request"
    (code {|{"verb":"predict","source":"x","file":"y"}|});
  Alcotest.(check string) "bad deadline" "bad_request"
    (code {|{"verb":"ping","deadline_ms":-1}|});
  Alcotest.(check string) "bad flag type" "bad_request"
    (code {|{"verb":"predict","source":"x","flags":{"memory":"yes"}}|})

let test_flags_key_distinguishes () =
  let base = Protocol.default_flags in
  let keys =
    List.map Protocol.flags_key
      [ base; { base with memory = true }; { base with ranges = true };
        { base with json = true }; { base with trace = true };
        { base with eval = [ "n=10" ] }; { base with range = [ "n=1:10" ] };
        { base with domain = Some "octagon" }; { base with domain = Some "product" } ]
  in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* CLI and server derive cache keys from the same canonicalization *)
  Alcotest.(check string) "flags_key is Options.to_canonical_string"
    (Options.to_canonical_string base) (Protocol.flags_key base);
  (* the default spelling and an explicit "interval" collide on purpose *)
  Alcotest.(check string) "interval is the default domain"
    (Protocol.flags_key base)
    (Protocol.flags_key { base with domain = Some "interval" })

let test_protocol_version () =
  let code line =
    match Protocol.request_of_line line with
    | Error (c, _) -> Protocol.error_code_string c
    | Ok _ -> "ok"
  in
  Alcotest.(check string) "explicit v1 accepted" "ok" (code {|{"v":1,"verb":"ping"}|});
  Alcotest.(check string) "omitted version accepted" "ok" (code {|{"verb":"ping"}|});
  Alcotest.(check string) "future version rejected" "bad_request"
    (code {|{"v":2,"verb":"ping"}|});
  Alcotest.(check string) "non-integer version rejected" "bad_request"
    (code {|{"v":"1","verb":"ping"}|})

let test_unknown_fields () =
  (* lax (default): the request is served, with a warning attached *)
  (match Protocol.request_of_line {|{"verb":"ping","bogus":1}|} with
  | Ok r ->
    Alcotest.(check bool) "warned" true
      (List.exists
         (fun w ->
           let has_sub needle hay =
             let nh = String.length hay and nn = String.length needle in
             let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
             go 0
           in
           has_sub "bogus" w)
         r.proto_warnings)
  | Error (_, m) -> Alcotest.failf "lax mode must accept unknown fields: %s" m);
  (* strict: rejected before evaluation *)
  match
    Protocol.request_of_line
      {|{"verb":"predict","source":"x","flags":{"strict":true},"bogus":1}|}
  with
  | Error (Protocol.Bad_request, _) -> ()
  | Error (c, m) -> Alcotest.failf "wrong code %s: %s" (Protocol.error_code_string c) m
  | Ok _ -> Alcotest.fail "strict mode must reject unknown fields"

(* ------------------------------------------------------------ cache *)

let test_cache_basics () =
  let c = Cache.create ~capacity:4 () in
  let k = Cache.key ~machine_hash:"m" ~source_hash:"s" ~kind:"predict" ~flags:"f" in
  Alcotest.(check bool) "miss first" true (Cache.find c k = None);
  Cache.store c k 42;
  Alcotest.(check bool) "hit second" true (Cache.find c k = Some 42);
  let hits, misses, entries = Cache.stats c in
  Alcotest.(check (triple int int int)) "stats" (1, 1, 1) (hits, misses, entries);
  Alcotest.(check bool) "machine change misses" true
    (Cache.find c (Cache.key ~machine_hash:"m2" ~source_hash:"s" ~kind:"predict" ~flags:"f")
     = None);
  Alcotest.(check bool) "source change misses" true
    (Cache.find c (Cache.key ~machine_hash:"m" ~source_hash:"s2" ~kind:"predict" ~flags:"f")
     = None)

let test_cache_eviction () =
  let c = Cache.create ~capacity:4 () in
  for i = 0 to 19 do
    Cache.store c
      (Cache.key ~machine_hash:"m" ~source_hash:(string_of_int i) ~kind:"k" ~flags:"")
      i
  done;
  let _, _, entries = Cache.stats c in
  Alcotest.(check bool) "stays bounded" true (entries <= 4)

(* ---------------------------------------------------------- sessions *)

(* one in-memory session on a fresh serving core, as `ppredict batch` runs *)
let session ?max_request_bytes ~jobs lines =
  let module Fleet = Pperf_fleet.Fleet in
  let core = Fleet.Core.create (Fleet.config ?max_request_bytes ~jobs ()) in
  Fun.protect
    ~finally:(fun () -> Fleet.Core.stop core)
    (fun () -> Fleet.run_lines ~admission:Fleet.Backpressure core lines)

let req ?(extra = "") id verb =
  Printf.sprintf {|{"id":%d,"verb":"%s"%s}|} id verb extra

let predict_daxpy id =
  req id "predict" ~extra:(Printf.sprintf {|,"source":%s|} (Json.to_string (Json.String daxpy)))

let field name line =
  match Json.member name (Json.of_string line) with
  | Some j -> j
  | None -> Alcotest.failf "no %S in %s" name line

let test_batch_order_and_output () =
  let lines =
    session ~jobs:1
      [ req 0 "ping"; predict_daxpy 1; predict_daxpy 2; req 3 "stats" ]
  in
  Alcotest.(check int) "one response per request" 4 (List.length lines);
  List.iteri
    (fun i l -> Alcotest.(check bool) (Printf.sprintf "id %d in order" i) true
        (field "id" l = Json.Int i))
    lines;
  let out l = match field "output" l with Json.String s -> s | _ -> assert false in
  let expected =
    Render.predict ~machine:Pperf_machine.Machine.power1
      ~options:Pperf_core.Aggregate.default_options ~interproc:false ~strict:false
      ~evals:[] ~warn:ignore daxpy
  in
  Alcotest.(check string) "byte-identical to the one-shot renderer" expected
    (out (List.nth lines 1));
  Alcotest.(check bool) "first predict cold" true
    (field "cached" (List.nth lines 1) = Json.Bool false);
  Alcotest.(check bool) "second predict cached" true
    (field "cached" (List.nth lines 2) = Json.Bool true);
  Alcotest.(check string) "identical payload from cache" expected (out (List.nth lines 2))

let test_batch_errors_keep_session_live () =
  let lines =
    session ~jobs:1 ~max_request_bytes:200
      [ "garbage"; req 1 "zap"; req 2 "predict" (* missing source *);
        String.make 300 'x'; predict_daxpy 4 ]
  in
  Alcotest.(check int) "every line answered" 5 (List.length lines);
  let ok l = field "ok" l = Json.Bool true in
  let code l =
    match Json.member "error" (Json.of_string l) with
    | Some e -> (match Json.member "code" e with Some (Json.String s) -> s | _ -> "?")
    | None -> "?"
  in
  Alcotest.(check string) "bad json" "bad_json" (code (List.nth lines 0));
  Alcotest.(check string) "unknown verb" "unknown_verb" (code (List.nth lines 1));
  Alcotest.(check string) "missing source" "bad_request" (code (List.nth lines 2));
  Alcotest.(check string) "oversized" "oversized" (code (List.nth lines 3));
  Alcotest.(check bool) "server still answers" true (ok (List.nth lines 4));
  (* parse/type errors from the analysis are structured too *)
  let lines =
    session ~jobs:1
      [ req 0 "predict" ~extra:{|,"source":"subroutine ("|}; predict_daxpy 1 ]
  in
  Alcotest.(check string) "parse error" "parse_error" (code (List.nth lines 0));
  Alcotest.(check bool) "alive after parse error" true (ok (List.nth lines 1))

let test_batch_jobs_equivalence () =
  let requests =
    req 0 "ping"
    :: List.concat_map
         (fun i ->
           [ predict_daxpy (2 * i + 1);
             req (2 * i + 2) "lint"
               ~extra:
                 (Printf.sprintf {|,"source":%s,"flags":{"json":true}|}
                    (Json.to_string (Json.String daxpy))) ])
         [ 0; 1; 2; 3; 4 ]
  in
  let strip_timing l =
    Json.to_string
      (match Json.of_string l with
      | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "t") fields)
      | j -> j)
  in
  let sequential = List.map strip_timing (session ~jobs:1 requests) in
  let parallel = List.map strip_timing (session ~jobs:4 requests) in
  (* caching order differs under parallelism (the "cached" bit may land on
     either duplicate), so compare with the bit stripped too *)
  let strip_cached l =
    Json.to_string
      (match Json.of_string l with
      | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields)
      | j -> j)
  in
  Alcotest.(check (list string)) "same responses, same order"
    (List.map strip_cached sequential)
    (List.map strip_cached parallel)

let test_deadline () =
  let e = Engine.create ~jobs:1 () in
  let r = parse_req (predict_daxpy 0 ^ "") in
  let r = { r with Protocol.deadline_ms = Some 1.0 } in
  (* a request that sat in the queue past its deadline is rejected *)
  match Engine.handle e ~received:(Unix.gettimeofday () -. 10.0) r with
  | Protocol.Err_response { code = Protocol.Deadline_exceeded; _ } -> ()
  | resp -> Alcotest.failf "expected deadline_exceeded, got %s" (Protocol.response_line resp)

let test_file_source_invalidation () =
  let path = Filename.temp_file "pperf_test" ".pf" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      write daxpy;
      let r id = req id "predict" ~extra:(Printf.sprintf {|,"file":%S|} path) in
      let e = Engine.create ~jobs:1 () in
      let handle id =
        match Engine.handle e ~received:(Unix.gettimeofday ()) (parse_req (r id)) with
        | Protocol.Ok_response { cached; output; _ } -> (cached, output)
        | resp -> Alcotest.failf "error: %s" (Protocol.response_line resp)
      in
      let c0, o0 = handle 0 in
      let c1, o1 = handle 1 in
      Alcotest.(check bool) "cold then warm" true ((not c0) && c1);
      Alcotest.(check string) "same output" o0 o1;
      (* editing the file must invalidate the entry (content-addressed key) *)
      write (String.concat "" [ daxpy ]);
      let c2, _ = handle 2 in
      Alcotest.(check bool) "unchanged content still warm" true c2;
      write
        "subroutine daxpy(x, y, a, n)\n\
        \  integer n, i\n\
        \  real x(100000), y(100000), a\n\
        \  do i = 1, n\n\
        \    y(i) = y(i) / a + x(i)\n\
        \  end do\n\
         end\n";
      let c3, o3 = handle 3 in
      Alcotest.(check bool) "edited content recomputes" false c3;
      Alcotest.(check bool) "and predicts differently" true (o3 <> o0))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_metrics_verb () =
  let lines = session ~jobs:1 [ predict_daxpy 0; req 1 "metrics" ] in
  let metrics = List.nth lines 1 in
  Alcotest.(check bool) "metrics ok" true (field "ok" metrics = Json.Bool true);
  let text = match field "output" metrics with Json.String s -> s | _ -> assert false in
  Alcotest.(check bool) "exposition has TYPE lines" true (contains text "# TYPE ");
  Alcotest.(check bool) "request latency histogram family" true
    (contains text "# TYPE pperf_server_request_ns histogram");
  (* the predict served before this scrape must be in the latency histogram *)
  let count_line =
    String.split_on_char '\n' text
    |> List.find_opt (fun l ->
           String.length l > 30 && String.sub l 0 30 = "pperf_server_request_ns_count ")
  in
  (match count_line with
  | Some l ->
    let n = int_of_string (String.trim (String.sub l 30 (String.length l - 30))) in
    Alcotest.(check bool) "latency histogram non-empty" true (n >= 1)
  | None -> Alcotest.fail "no pperf_server_request_ns_count sample");
  (* every non-comment line is `name[{labels}] value` *)
  String.split_on_char '\n' text
  |> List.iter (fun l ->
         if l <> "" && l.[0] <> '#' then
           match String.rindex_opt l ' ' with
           | Some i ->
             let v = String.sub l (i + 1) (String.length l - i - 1) in
             if
               (try ignore (int_of_string v); false with Failure _ -> true)
               && (try ignore (float_of_string v); false with Failure _ -> true)
             then Alcotest.failf "unparseable sample value in %S" l
           | None -> Alcotest.failf "sample line without value: %S" l)

let test_trace_flag () =
  let traced id =
    req id "predict"
      ~extra:
        (Printf.sprintf {|,"source":%s,"flags":{"trace":true}|}
           (Json.to_string (Json.String daxpy)))
  in
  let lines = session ~jobs:1 [ traced 0; traced 1; predict_daxpy 2 ] in
  let tree l =
    match field "trace" l with
    | Json.Obj _ as t -> t
    | j -> Alcotest.failf "trace is not an object: %s" (Json.to_string j)
  in
  List.iteri
    (fun i l ->
      let t = tree l in
      Alcotest.(check bool) (Printf.sprintf "trace %d rooted" i) true
        (Json.member "name" t = Some (Json.String "trace"));
      (* traced requests never come from (or land in) the result cache *)
      Alcotest.(check bool) (Printf.sprintf "trace %d uncached" i) true
        (field "cached" l = Json.Bool false))
    [ List.nth lines 0; List.nth lines 1 ];
  (* an untraced twin afterwards is also a cache miss: traced runs not stored *)
  Alcotest.(check bool) "untraced twin is cold" true
    (field "cached" (List.nth lines 2) = Json.Bool false);
  Alcotest.(check bool) "untraced twin has no trace" true
    (Json.member "trace" (Json.of_string (List.nth lines 2)) = None)

let test_extended_stats () =
  let lines =
    session ~jobs:1 [ predict_daxpy 0; predict_daxpy 1; req 2 "stats" ]
  in
  let stats = field "stats" (List.nth lines 2) in
  let mem name =
    match Json.member name stats with
    | Some j -> j
    | None -> Alcotest.failf "stats has no %S section" name
  in
  (* latency quantiles over the session so far *)
  (match mem "latency" with
  | Json.Obj _ as l ->
    List.iter
      (fun q ->
        match Json.member q l with
        | Some (Json.Int _ | Json.Float _ | Json.String "+Inf") -> ()
        | Some j -> Alcotest.failf "%s not a quantile: %s" q (Json.to_string j)
        | None -> Alcotest.failf "latency has no %s" q)
      [ "p50_ns"; "p90_ns"; "p99_ns" ];
    (match Json.member "count" l with
    | Some (Json.Int n) -> Alcotest.(check bool) "latency count >= 2" true (n >= 2)
    | _ -> Alcotest.fail "latency.count missing")
  | j -> Alcotest.failf "latency not an object: %s" (Json.to_string j));
  (* per-stage histograms and pipeline spans ride along *)
  List.iter
    (fun sec ->
      match mem sec with
      | Json.Obj _ -> ()
      | j -> Alcotest.failf "%s not an object: %s" sec (Json.to_string j))
    [ "stages"; "spans"; "counters" ]

let test_machines_helper () =
  let m1 = Machines.load "power1" in
  let m2 = Machines.load "alpha" in
  Alcotest.(check bool) "distinct hashes" true (Machines.hash m1 <> Machines.hash m2);
  Alcotest.(check string) "hash stable" (Machines.hash m1) (Machines.hash m1);
  match Machines.load "no-such-machine" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown machine must raise"

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_request_defaults;
          Alcotest.test_case "rejects" `Quick test_request_rejects;
          Alcotest.test_case "flags key" `Quick test_flags_key_distinguishes;
          Alcotest.test_case "version" `Quick test_protocol_version;
          Alcotest.test_case "unknown fields" `Quick test_unknown_fields;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "order and output" `Quick test_batch_order_and_output;
          Alcotest.test_case "errors keep live" `Quick test_batch_errors_keep_session_live;
          Alcotest.test_case "jobs equivalence" `Quick test_batch_jobs_equivalence;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "file invalidation" `Quick test_file_source_invalidation;
          Alcotest.test_case "metrics verb" `Quick test_metrics_verb;
          Alcotest.test_case "trace flag" `Quick test_trace_flag;
          Alcotest.test_case "extended stats" `Quick test_extended_stats;
          Alcotest.test_case "machines helper" `Quick test_machines_helper;
        ] );
    ]
