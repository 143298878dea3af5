(* Tests for lib/fleet: the run queue's admission order, admission
   control (bounded queue, structured overloaded rejection with a retry
   hint), and the exactly-once / in-order delivery contract of the core —
   including QCheck properties driving random request mixes, deadline
   churn, and mid-session disconnects. *)

open Pperf_fleet

let daxpy =
  "subroutine daxpy(x, y, a, n)\n\
  \  integer n, i\n\
  \  real x(100000), y(100000), a\n\
  \  do i = 1, n\n\
  \    y(i) = y(i) + a * x(i)\n\
  \  end do\n\
   end\n"

let escape s = Pperf_server.Json.to_string (Pperf_server.Json.String s)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* --------------------------------------------------------- config *)

let test_config_validation () =
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid config accepted"
  in
  rejects (fun () -> Fleet.config ~jobs:0 ());
  rejects (fun () -> Fleet.config ~jobs:(-3) ());
  rejects (fun () -> Fleet.config ~max_queue:0 ~jobs:1 ());
  let c = Fleet.config ~jobs:2 () in
  Alcotest.(check int) "default max_queue" Fleet.default_max_queue c.max_queue

(* ------------------------------------------------------ admission *)

(* A sequencer writing into a buffer, with an optional induced write
   failure after [die_after] lines — a peer hanging up mid-session. *)
let collector ?die_after () =
  let lines = ref [] in
  let written = ref 0 in
  let write s =
    (match die_after with
    | Some n when !written >= n -> raise (Sys_error "peer hung up")
    | _ -> ());
    incr written;
    lines := String.trim s :: !lines
  in
  let seq = Sequencer.create ~write ~flush:(fun () -> ()) () in
  (seq, fun () -> List.rev !lines)

let test_admission_rejects () =
  let cfg = Fleet.config ~jobs:2 ~max_queue:3 () in
  (* frozen core: nothing drains, so the 4th dispatch must be shed *)
  let core = Fleet.Core.create ~start:false cfg in
  let seq, lines = collector () in
  let ping i =
    Printf.sprintf {|{"id":"p%d","verb":"predict","source":%s}|} i (escape daxpy)
  in
  for i = 0 to 3 do
    match Fleet.Core.dispatch core ~admission:Fleet.Shed seq i (ping i) with
    | `Dispatched -> ()
    | `Shutdown -> Alcotest.fail "unexpected shutdown"
  done;
  Alcotest.(check int) "bounded queue" 3 (Fleet.Core.queue_depth core);
  Fleet.Core.start core;
  Fleet.Core.drain core;
  Alcotest.(check bool) "all emitted" true
    (Sequencer.wait seq ~upto:4);
  let out = lines () in
  Alcotest.(check int) "four responses" 4 (List.length out);
  List.iteri
    (fun i line ->
      let admitted = i < 3 in
      Alcotest.(check bool)
        (Printf.sprintf "slot %d %s" i (if admitted then "ok" else "shed"))
        admitted
        (contains ~affix:{|"ok":true|} line);
      if not admitted then (
        Alcotest.(check bool) "overloaded code" true
          (contains ~affix:{|"code":"overloaded"|} line);
        Alcotest.(check bool) "retry hint" true
          (contains ~affix:{|"retry_after_ms"|} line)))
    out;
  Fleet.Core.stop core

(* The workers take queued requests in admission order: of two equal
   requests queued on a frozen one-worker core, the first is computed and
   the second answered from the result cache. *)
let test_admission_order () =
  let core = Fleet.Core.create ~start:false (Fleet.config ~jobs:1 ()) in
  let seq, lines = collector () in
  List.iteri
    (fun i id ->
      ignore
        (Fleet.Core.dispatch core ~admission:Fleet.Shed seq i
           (Printf.sprintf {|{"id":%S,"verb":"predict","source":%s}|} id (escape daxpy))))
    [ "first"; "second" ];
  Fleet.Core.start core;
  Fleet.Core.drain core;
  ignore (Sequencer.wait seq ~upto:2);
  Fleet.Core.stop core;
  match lines () with
  | [ first; second ] ->
    Alcotest.(check bool) "first computed" true (contains ~affix:{|"cached":false|} first);
    Alcotest.(check bool) "second from the cache" true
      (contains ~affix:{|"cached":true|} second)
  | out -> Alcotest.failf "%d responses" (List.length out)

let test_shutdown_inline () =
  let core = Fleet.Core.create (Fleet.config ~jobs:1 ()) in
  let seq, lines = collector () in
  (match
     Fleet.Core.dispatch core ~admission:Fleet.Shed seq 0 {|{"id":"bye","verb":"shutdown"}|}
   with
  | `Shutdown -> ()
  | `Dispatched -> Alcotest.fail "shutdown not recognised");
  Alcotest.(check bool) "answered" true
    (Sequencer.wait seq ~upto:1);
  (match lines () with
  | [ l ] ->
    Alcotest.(check bool) "ok response" true
      (contains ~affix:{|"verb":"shutdown"|} l)
  | out -> Alcotest.failf "%d responses to shutdown" (List.length out));
  Fleet.Core.stop core;
  (* a stopped core sheds instead of accepting, even a waiting reader *)
  let seq2, lines2 = collector () in
  (match
     Fleet.Core.dispatch core ~admission:Fleet.Backpressure seq2 0 {|{"id":"x","verb":"ping"}|}
   with
  | `Dispatched -> ()
  | `Shutdown -> Alcotest.fail "shutdown after stop");
  ignore (Sequencer.wait seq2 ~upto:1);
  match lines2 () with
  | [ l ] ->
    Alcotest.(check bool) "shed after stop" true
      (contains ~affix:{|"code":"overloaded"|} l)
  | out -> Alcotest.failf "%d responses after stop" (List.length out)

(* ------------------------------------------- exactly-once, in-order *)

let request_id i = Printf.sprintf "r%d" i

(* Verbs chosen to mix source-carrying queries and control traffic
   (ping/stats), plus malformed lines that are answered inline with
   structured errors. *)
let line_of_case i = function
  | `Predict -> Printf.sprintf {|{"id":%S,"verb":"predict","source":%s}|}
                  (request_id i) (escape daxpy)
  | `Bounds -> Printf.sprintf {|{"id":%S,"verb":"bounds","source":%s}|}
                 (request_id i) (escape daxpy)
  | `Ping -> Printf.sprintf {|{"id":%S,"verb":"ping"}|} (request_id i)
  | `Stats -> Printf.sprintf {|{"id":%S,"verb":"stats"}|} (request_id i)
  | `Deadline d ->
    Printf.sprintf {|{"id":%S,"verb":"predict","source":%s,"deadline_ms":%g}|}
      (request_id i) (escape daxpy) d
  | `Malformed -> Printf.sprintf {|{"id":%S,"verb":"frobnicate"}|} (request_id i)

let check_session_output ~label lines out =
  Alcotest.(check int) (label ^ ": one response per request")
    (List.length lines) (List.length out);
  List.iteri
    (fun i resp ->
      let want = Printf.sprintf {|"id":%S|} (request_id i) in
      if not (contains ~affix:want resp) then
        Alcotest.failf "%s: slot %d answered out of order: %s" label i resp)
    out

let test_exactly_once () =
  let core = Fleet.Core.create (Fleet.config ~jobs:3 ()) in
  let cases =
    List.init 60 (fun i ->
        match i mod 6 with
        | 0 -> `Predict
        | 1 -> `Ping
        | 2 -> `Bounds
        | 3 -> `Stats
        | 4 -> `Deadline 10000.0
        | _ -> `Malformed)
  in
  let lines = List.mapi line_of_case cases in
  let out = Fleet.run_lines ~admission:Fleet.Shed core lines in
  check_session_output ~label:"jobs 3" lines out;
  Fleet.Core.stop core

(* A single-reader session waits for room instead of shedding: a queue
   of two still answers every one of 50 lines, in order. *)
let test_backpressure () =
  let core = Fleet.Core.create (Fleet.config ~jobs:2 ~max_queue:2 ()) in
  let cases = List.init 50 (fun i -> if i mod 2 = 0 then `Predict else `Ping) in
  let lines = List.mapi line_of_case cases in
  let out = Fleet.run_lines ~admission:Fleet.Backpressure core lines in
  Fleet.Core.stop core;
  check_session_output ~label:"backpressure" lines out;
  List.iter
    (fun l ->
      if contains ~affix:{|"overloaded"|} l then Alcotest.failf "shed under backpressure: %s" l)
    out

(* ------------------------------------------------ qcheck properties *)

let case_gen =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.return `Predict);
      (2, QCheck.Gen.return `Ping);
      (2, QCheck.Gen.return `Bounds);
      (1, QCheck.Gen.return `Stats);
      (* churn: deadlines from already-expired to generous *)
      (2, QCheck.Gen.map (fun d -> `Deadline d)
            (QCheck.Gen.oneofl [ 0.0001; 0.01; 5000.0 ]));
      (1, QCheck.Gen.return `Malformed);
    ]

let session_arb =
  QCheck.make
    ~print:(fun cases -> Printf.sprintf "%d requests" (List.length cases))
    QCheck.Gen.(list_size (int_range 1 40) case_gen)

(* The delivery contract under random mixes and deadline churn: every
   request — admitted, shed, expired, or malformed — is answered exactly
   once, and responses leave in request order. *)
let prop_exactly_once_in_order =
  QCheck.Test.make ~name:"fleet answers exactly once, in order" ~count:25
    session_arb (fun cases ->
      let core = Fleet.Core.create (Fleet.config ~jobs:2 ~max_queue:8 ()) in
      let lines = List.mapi line_of_case cases in
      let out = Fleet.run_lines ~admission:Fleet.Shed core lines in
      Fleet.Core.stop core;
      List.length out = List.length lines
      && List.for_all2
           (fun i resp ->
             Astring.String.is_infix
               ~affix:(Printf.sprintf {|"id":%S|} (request_id i))
               resp)
           (List.mapi (fun i _ -> i) lines)
           out)

(* Mid-session disconnects: the peer's write side fails after a random
   number of lines. The core must neither hang nor crash; emissions
   after the failure are dropped by the dead sequencer, and the core
   still serves the next connection completely. *)
let prop_disconnect_harmless =
  QCheck.Test.make ~name:"disconnect mid-session is harmless" ~count:15
    (QCheck.make
       ~print:(fun (n, k) -> Printf.sprintf "%d reqs, die after %d" n k)
       QCheck.Gen.(pair (int_range 1 25) (int_range 0 10)))
    (fun (n, k) ->
      let core = Fleet.Core.create (Fleet.config ~jobs:2 ()) in
      let seq, _ = collector ~die_after:k () in
      let lines = List.mapi line_of_case (List.init n (fun _ -> `Predict)) in
      List.iteri
        (fun i l -> ignore (Fleet.Core.dispatch core ~admission:Fleet.Shed seq i l))
        lines;
      Fleet.Core.drain core;
      ignore (Sequencer.wait seq ~upto:n);
      (* the next "connection" on the same core must be unaffected *)
      let lines2 = List.mapi line_of_case (List.init 5 (fun _ -> `Ping)) in
      let out2 = Fleet.run_lines ~admission:Fleet.Shed core lines2 in
      Fleet.Core.stop core;
      List.length out2 = 5)

(* ------------------------------------------------------------ main *)

let () =
  let qsuite name tests =
    ( name,
      List.map
        (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xf1ee7 |]))
        tests )
  in
  Alcotest.run "fleet"
    [
      ( "core",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "admission rejects" `Quick test_admission_rejects;
          Alcotest.test_case "runs in admission order" `Quick test_admission_order;
          Alcotest.test_case "shutdown inline" `Quick test_shutdown_inline;
          Alcotest.test_case "exactly once" `Quick test_exactly_once;
          Alcotest.test_case "backpressure answers all" `Quick test_backpressure;
        ] );
      qsuite "props" [ prop_exactly_once_in_order; prop_disconnect_harmless ];
    ]
