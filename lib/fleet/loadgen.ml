(* Load-generation client for the fleet: a script-replay mode (serial,
   deterministic, used to pin transcripts) and a seeded synthetic storm
   (many connections, windowed pipelining, mixed hot/cold/malformed
   traffic) that verifies the fleet's contract from the outside: every
   request answered exactly once, per-connection responses in request
   order, overload shed with a structured error rather than a hang. *)

module Json = Pperf_server.Json

type target = Tcp of string * int | Unix_path of string

let connect target =
  match target with
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Fleet.resolve_host host, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  | Unix_path path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd

(* a couple of retries paper over the race between daemon start-up and
   the first client connect *)
let connect_retry target =
  let rec go n =
    match connect target with
    | fd -> fd
    | exception e -> if n = 0 then raise e else (Unix.sleepf 0.2; go (n - 1))
  in
  go 25

(* ------------------------------------------------------ script replay *)

let run_script target file =
  let fd = connect_retry target in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr (Unix.dup fd) in
  let script = open_in file in
  let status = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr script;
      (try flush oc with Sys_error _ -> ());
      close_in_noerr ic;
      close_out_noerr oc)
    (fun () ->
      (try
         let rec loop () =
           match input_line script with
           | exception End_of_file -> ()
           | l when String.trim l = "" -> loop ()
           | l ->
             output_string oc l;
             output_char oc '\n';
             flush oc;
             (match input_line ic with
             | resp -> print_endline resp
             | exception End_of_file ->
               prerr_endline "ppredict loadgen: server closed the connection mid-script";
               status := 1);
             if !status = 0 then loop ()
         in
         loop ()
       with Sys_error msg | Failure msg ->
         Printf.eprintf "ppredict loadgen: %s\n" msg;
         status := 1);
      !status)

(* -------------------------------------------------- synthetic corpus *)

type expect = Eok | Eerr | Eany

(* a case is the request object minus its id (inserted per send) *)
type case = { fields : (string * Json.t) list; expect : expect }

let flags kvs = ("flags", Json.Obj kvs)

(* compare insists on exactly one unit per source; a cheap textual probe
   (counting top-level subroutines) is enough to keep multi-unit samples
   out of compare pairs and give them an interprocedural predict instead *)
let unit_count path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = ref 0 in
      (try
         while true do
           let l = input_line ic in
           if String.length l >= 10 && String.sub l 0 10 = "subroutine" then incr n
         done
       with End_of_file -> ());
      !n)

let corpus ~samples =
  let files =
    Sys.readdir samples |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pf")
    |> List.sort compare
    |> List.map (Filename.concat samples)
  in
  if files = [] then
    failwith (Printf.sprintf "no *.pf samples under %S" samples);
  let single, multi = List.partition (fun f -> unit_count f <= 1) files in
  let q verb f extra =
    { fields = [ ("verb", Json.String verb); ("file", Json.String f) ] @ extra;
      expect = Eok }
  in
  let compare_pairs =
    match single with
    | a :: b :: _ ->
      [ { fields =
            [ ("verb", Json.String "compare"); ("file", Json.String a);
              ("file2", Json.String b) ];
          expect = Eok } ]
    | _ -> []
  in
  let hot =
    List.concat_map
      (fun f ->
        [ q "predict" f [];
          q "predict" f [ flags [ ("memory", Json.Bool true) ] ];
          q "bounds" f [];
          q "ranges" f [ flags [ ("json", Json.Bool true) ] ];
          q "lint" f [] ])
      files
    @ List.map (fun f -> q "predict" f [ flags [ ("interproc", Json.Bool true) ] ]) multi
    @ compare_pairs
  in
  (Array.of_list hot, Array.of_list files)

let raw_malformed =
  [| "{"; "[]"; "{\"verb\":\"frobnicate\"}"; "{\"verb\":\"predict\"}";
     "{\"v\":99,\"verb\":\"ping\"}" |]

(* ------------------------------------------------------ the storm *)

type tally = {
  mutable sent : int;
  mutable responses : int;
  mutable ok : int;
  mutable expected_errors : int;
  mutable unexpected_errors : int;
  mutable overloaded : int;
  mutable deadline : int;
  mutable out_of_order : int;
  mutable transport_errors : int;
  mutable first_unexpected : string option;
  mutable latencies : float list list;  (** per-segment latency batches, us *)
}

let new_tally () =
  { sent = 0; responses = 0; ok = 0; expected_errors = 0; unexpected_errors = 0;
    overloaded = 0; deadline = 0; out_of_order = 0; transport_errors = 0;
    first_unexpected = None; latencies = [] }

let merge_into ~lock total t =
  Mutex.protect lock (fun () ->
      total.sent <- total.sent + t.sent;
      total.responses <- total.responses + t.responses;
      total.ok <- total.ok + t.ok;
      total.expected_errors <- total.expected_errors + t.expected_errors;
      total.unexpected_errors <- total.unexpected_errors + t.unexpected_errors;
      total.overloaded <- total.overloaded + t.overloaded;
      total.deadline <- total.deadline + t.deadline;
      total.out_of_order <- total.out_of_order + t.out_of_order;
      total.transport_errors <- total.transport_errors + t.transport_errors;
      (match (total.first_unexpected, t.first_unexpected) with
      | None, Some _ -> total.first_unexpected <- t.first_unexpected
      | _ -> ());
      total.latencies <- t.latencies @ total.latencies)

let classify tally ~expect ~expected_id ~request line =
  tally.responses <- tally.responses + 1;
  match Json.of_string line with
  | exception _ ->
    tally.unexpected_errors <- tally.unexpected_errors + 1;
    if tally.first_unexpected = None then
      tally.first_unexpected <- Some ("unparsable response: " ^ line)
  | j ->
    (match Json.member "id" j with
    | Some (Json.String rid) when rid = expected_id -> ()
    | _ -> tally.out_of_order <- tally.out_of_order + 1);
    (match Json.member "error" j with
    | None -> (
      match expect with
      | Eok | Eany -> tally.ok <- tally.ok + 1
      | Eerr ->
        tally.unexpected_errors <- tally.unexpected_errors + 1;
        if tally.first_unexpected = None then
          tally.first_unexpected <-
            Some ("ok where error expected: " ^ line ^ " <- " ^ request))
    | Some e -> (
      match Option.bind (Json.member "code" e) Json.to_string_opt with
      | Some "overloaded" -> tally.overloaded <- tally.overloaded + 1
      | Some "deadline_exceeded" -> tally.deadline <- tally.deadline + 1
      | Some _ when expect = Eerr || expect = Eany ->
        tally.expected_errors <- tally.expected_errors + 1
      | _ ->
        tally.unexpected_errors <- tally.unexpected_errors + 1;
        if tally.first_unexpected = None then
          tally.first_unexpected <-
            Some ("unexpected error: " ^ line ^ " <- " ^ request)))

(* one request drawn from the mix; returns (line-sans-newline, expect) *)
let draw rng ~hot ~files ~id =
  let case fields expect =
    (Json.to_string (Json.Obj (("id", Json.String id) :: fields)), expect)
  in
  let pick arr = arr.(Random.State.int rng (Array.length arr)) in
  let r = Random.State.int rng 100 in
  if r < 45 then
    (* hot: repeat queries, exercising the shared result cache *)
    let c = pick hot in
    case c.fields c.expect
  else if r < 80 then
    (* cold: same kernel, fresh eval binding — misses the result cache,
       hits the shared warm incremental predictor *)
    let f = pick files in
    let k = Random.State.int rng 1_000_000 in
    case
      [ ("verb", Json.String "predict"); ("file", Json.String f);
        flags [ ("eval", Json.List [ Json.String (Printf.sprintf "N=%d" k) ]) ] ]
      Eok
  else if r < 88 then
    (* control-plane: requests with no source *)
    case [ ("verb", Json.String (if r land 1 = 0 then "ping" else "stats")) ] Eok
  else if r < 94 then
    (* deadline churn: near-zero budgets race the queue; rejected-late and
       finished-in-time are both correct outcomes *)
    let f = pick files in
    case
      [ ("verb", Json.String "predict"); ("file", Json.String f);
        ("deadline_ms", Json.Float (if Random.State.bool rng then 0.001 else 10_000.)) ]
      Eany
  else
    (* malformed: the server must answer with a structured error, not die.
       The raw line carries no id, so skip the id check for these *)
    (raw_malformed.(Random.State.int rng (Array.length raw_malformed)), Eerr)

let run_connection target ~hot ~files ~seed ~conn_idx ~count ~window tally =
  let rng = Random.State.make [| seed; conn_idx |] in
  let segment = 4096 in
  let done_ = ref 0 in
  while !done_ < count do
    let seg = min segment (count - !done_) in
    match connect_retry target with
    | exception _ ->
      tally.transport_errors <- tally.transport_errors + 1;
      done_ := count
    | fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr (Unix.dup fd) in
      let outstanding = Queue.create () in
      let lats = ref [] in
      let sent = ref 0 in
      let received = ref 0 in
      (try
         while !received < seg do
           if !sent < seg && Queue.length outstanding < window then (
             let id = Printf.sprintf "c%d-%d" conn_idx (!done_ + !sent) in
             let line, expect = draw rng ~hot ~files ~id in
             let expect_id = if expect = Eerr then "" else id in
             output_string oc line;
             output_char oc '\n';
             flush oc;
             tally.sent <- tally.sent + 1;
             incr sent;
             Queue.push (expect_id, expect, Unix.gettimeofday (), line) outstanding)
           else
             match input_line ic with
             | exception End_of_file -> raise Exit
             | resp ->
               let expected_id, expect, t0, request = Queue.pop outstanding in
               lats := (Unix.gettimeofday () -. t0) *. 1e6 :: !lats;
               if expected_id = "" then (
                 (* id-less malformed request: the slot still consumes one
                    response (exactly-once), but all we require of it is a
                    structured error *)
                 tally.responses <- tally.responses + 1;
                 match Json.of_string resp with
                 | exception _ ->
                   tally.unexpected_errors <- tally.unexpected_errors + 1
                 | j -> (
                   match Json.member "error" j with
                   | Some _ -> tally.expected_errors <- tally.expected_errors + 1
                   | None ->
                     tally.unexpected_errors <- tally.unexpected_errors + 1))
               else classify tally ~expect ~expected_id ~request resp;
               incr received
         done
       with
      | Exit | Sys_error _ | Unix.Unix_error _ ->
        (* connection died with responses outstanding *)
        tally.transport_errors <-
          tally.transport_errors + (!sent - !received)
      | Json.Parse_error _ -> tally.unexpected_errors <- tally.unexpected_errors + 1);
      tally.latencies <- !lats :: tally.latencies;
      (try flush oc with Sys_error _ -> ());
      close_in_noerr ic;
      close_out_noerr oc;
      done_ := !done_ + seg
  done

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let run_load target ~requests ~connections ~window ~seed ~samples ~json () =
  if requests < 1 || connections < 1 || window < 1 then
    failwith "loadgen: requests, connections and window must all be >= 1";
  let hot, files = corpus ~samples in
  let total = new_tally () in
  let lock = Mutex.create () in
  let t_start = Unix.gettimeofday () in
  let threads =
    List.init connections (fun i ->
        let count =
          (requests / connections) + if i < requests mod connections then 1 else 0
        in
        Thread.create
          (fun () ->
            let tally = new_tally () in
            run_connection target ~hot ~files ~seed ~conn_idx:i ~count ~window tally;
            merge_into ~lock total tally)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t_start in
  let lats =
    total.latencies |> List.concat |> Array.of_list
  in
  Array.sort compare lats;
  let ok_exit =
    total.unexpected_errors = 0 && total.out_of_order = 0
    && total.transport_errors = 0
    && total.responses = total.sent
  in
  let summary =
    Json.Obj
      [ ("requests", Json.Int requests);
        ("sent", Json.Int total.sent);
        ("responses", Json.Int total.responses);
        ("ok", Json.Int total.ok);
        ("expected_errors", Json.Int total.expected_errors);
        ("unexpected_errors", Json.Int total.unexpected_errors);
        ("overloaded", Json.Int total.overloaded);
        ("deadline", Json.Int total.deadline);
        ("out_of_order", Json.Int total.out_of_order);
        ("transport_errors", Json.Int total.transport_errors);
        ("connections", Json.Int connections);
        ("window", Json.Int window);
        ("wall_s", Json.Float wall);
        ("rps", Json.Float (float_of_int total.responses /. max wall 1e-9));
        ("p50_us", Json.Float (percentile lats 0.50));
        ("p90_us", Json.Float (percentile lats 0.90));
        ("p99_us", Json.Float (percentile lats 0.99));
        ("max_us", Json.Float (percentile lats 1.0));
        ("pass", Json.Bool ok_exit) ]
  in
  print_endline (Json.to_string summary);
  if not json then
    Printf.eprintf
      "loadgen: %d/%d answered in %.2fs (%.0f req/s), p99 %.0fus%s\n%!"
      total.responses total.sent wall
      (float_of_int total.responses /. max wall 1e-9)
      (percentile lats 0.99)
      (match total.first_unexpected with
      | Some s -> "\n  first unexpected: " ^ s
      | None -> "");
  if ok_exit then 0 else 1
