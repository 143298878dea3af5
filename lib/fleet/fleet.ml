(* The serving core and its transports: every request line, whatever it
   arrived on, goes through Core.dispatch to one run queue that every
   worker domain takes from.

   Layering: one shared Engine evaluated on N worker domains. The state
   that makes repeats cheap is shared by every worker: the
   content-addressed result cache, so answers stay byte-identical
   wherever a request runs, and the Incremental predictors (memo
   "server.predictors"), so a kernel's repeats meet its warm units
   whichever worker takes them. Routing has nothing left to decide.

   Concurrency shape: one reader per session (the main thread for
   stdio/batch, a systhread per socket connection) parses and
   dispatches; worker domains evaluate; a per-session Sequencer restores
   request order on the way out. All queue state sits under one
   scheduler lock — queue operations are a few list cells, evaluation is
   micro- to milliseconds, so a single lock is contention-free at fleet
   scale and makes admission atomic. *)

module Engine = Pperf_server.Engine
module Protocol = Pperf_server.Protocol
module Json = Pperf_server.Json
module Obs = Pperf_obs.Obs

(* fleet.*: admission and completion; sched.*: scheduler actions.
   Documented in README "The prediction service" and DESIGN §2.7. *)
let c_admitted = Obs.counter "fleet.admitted"
let c_rejected = Obs.counter "fleet.rejected"
let c_completed = Obs.counter "fleet.completed"
let c_connections = Obs.counter "fleet.connections"
let g_queue_depth = Obs.gauge "fleet.queue.depth"
let g_inflight = Obs.gauge "fleet.inflight"
let g_connections = Obs.gauge "fleet.connections.active"
let c_pops = Obs.counter "sched.pops"

type config = { jobs : int; max_queue : int; max_request_bytes : int }

let default_max_queue = 1024
let default_max_request_bytes = 1 lsl 20
let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let config ?(max_queue = default_max_queue) ?(max_request_bytes = default_max_request_bytes)
    ~jobs () =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Fleet.config: jobs must be >= 1 (got %d)" jobs);
  if max_queue < 1 then
    invalid_arg (Printf.sprintf "Fleet.config: max_queue must be >= 1 (got %d)" max_queue);
  { jobs; max_queue; max_request_bytes }

type admission = Shed | Backpressure

(* best effort at correlating an error with the request's id *)
let id_of_line line =
  match Json.of_string line with
  | exception _ -> Json.Null
  | j -> Option.value (Json.member "id" j) ~default:Json.Null

(* ----------------------------------------------------------- core *)

module Core = struct
  type item = { run : unit -> unit }

  type t = {
    cfg : config;
    engine : Engine.t;
    lock : Mutex.t;
    work : Condition.t;  (** signalled on push and on stop *)
    room : Condition.t;  (** signalled on pop and on stop *)
    idle : Condition.t;  (** signalled when queued + in-flight reaches 0 *)
    queue : item Queue.t;  (** taken in admission order *)
    mutable in_flight : int;
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
    mutable started : bool;
  }

  let queue_depth t = Mutex.protect t.lock (fun () -> Queue.length t.queue)

  (* overload hint: expected time for the workers to drain the current
     backlog, from the mean evaluation time observed so far *)
  let retry_after_ms t =
    let mean_ns = Engine.mean_eval_ns t.engine in
    let mean_ns = if mean_ns = 0 then 1_000_000 else mean_ns in
    max 1 (mean_ns * Queue.length t.queue / t.cfg.jobs / 1_000_000)

  let rec worker t =
    let job =
      Mutex.protect t.lock (fun () ->
          let rec get () =
            match Queue.take_opt t.queue with
            | Some it ->
              Obs.incr c_pops;
              Some it
            | None ->
              if t.stopping then None
              else (
                Condition.wait t.work t.lock;
                get ())
          in
          match get () with
          | None -> None
          | Some it ->
            t.in_flight <- t.in_flight + 1;
            Obs.add_gauge g_queue_depth (-1);
            Obs.add_gauge g_inflight 1;
            Condition.signal t.room;
            Some it)
    in
    match job with
    | None -> ()
    | Some it ->
      (* items never raise (they produce responses), but a raise must not
         kill the worker or skew the accounting *)
      (try it.run () with _ -> ());
      Obs.incr c_completed;
      Mutex.protect t.lock (fun () ->
          t.in_flight <- t.in_flight - 1;
          Obs.add_gauge g_inflight (-1);
          if Queue.is_empty t.queue && t.in_flight = 0 then Condition.broadcast t.idle);
      worker t

  let start t =
    Mutex.protect t.lock (fun () ->
        if not t.started then (
          t.started <- true;
          t.workers <-
            List.init t.cfg.jobs (fun _ -> Domain.spawn (fun () -> worker t))))

  let create ?start:(spawn = true) cfg =
    let t =
      {
        cfg;
        engine = Engine.create ~jobs:cfg.jobs ();
        lock = Mutex.create ();
        work = Condition.create ();
        room = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        in_flight = 0;
        stopping = false;
        workers = [];
        started = false;
      }
    in
    if spawn then start t;
    t

  (* admission, atomically: Ok () guarantees the item will run exactly
     once; Error hint means it was shed and nothing was queued.
     Backpressure waits for room first, so only a stopped core sheds. *)
  let submit t ~admission run =
    Mutex.protect t.lock (fun () ->
        if admission = Backpressure then
          while Queue.length t.queue >= t.cfg.max_queue && not t.stopping do
            Condition.wait t.room t.lock
          done;
        if t.stopping || Queue.length t.queue >= t.cfg.max_queue then (
          Obs.incr c_rejected;
          Error (retry_after_ms t))
        else (
          Queue.push { run } t.queue;
          Obs.incr c_admitted;
          Obs.add_gauge g_queue_depth 1;
          (* any worker can run any item, so waking one is enough *)
          Condition.signal t.work;
          Ok ()))

  let oversized t =
    Protocol.err ~id:Json.Null Protocol.Oversized
      (Printf.sprintf "request line exceeds %d bytes" t.cfg.max_request_bytes)

  let dispatch t ~admission seq i line =
    let received = Unix.gettimeofday () in
    if String.length line > t.cfg.max_request_bytes then (
      Sequencer.emit seq i (oversized t);
      `Dispatched)
    else
      match Protocol.request_of_line line with
      | Error (code, msg) ->
        Sequencer.emit seq i (Protocol.err ~id:(id_of_line line) code msg);
        `Dispatched
      | Ok ({ verb = Protocol.Shutdown; _ } as req) ->
        Sequencer.emit seq i (Engine.handle t.engine ~received req);
        `Shutdown
      | Ok req -> (
        let run () = Sequencer.emit seq i (Engine.handle t.engine ~received req) in
        match submit t ~admission run with
        | Ok () -> `Dispatched
        | Error hint ->
          Sequencer.emit seq i
            (Protocol.err ~retry_after_ms:hint ~id:req.id Protocol.Overloaded
               (Printf.sprintf "admission queue full (%d queued); retry in ~%dms"
                  t.cfg.max_queue hint));
          `Dispatched)

  let drain t =
    Mutex.protect t.lock (fun () ->
        while Queue.length t.queue > 0 || t.in_flight > 0 do
          Condition.wait t.idle t.lock
        done)

  let stop t =
    let workers =
      Mutex.protect t.lock (fun () ->
          t.stopping <- true;
          Condition.broadcast t.work;
          Condition.broadcast t.room;
          let w = t.workers in
          t.workers <- [];
          w)
    in
    List.iter Domain.join workers
end

(* ------------------------------------------------------------ session *)

type line = Line of string | Too_long | Eof

(* read one line, at most [max_bytes] long; longer lines are discarded to
   the newline and reported, so a runaway request cannot hold the line
   buffer hostage *)
let read_line_bounded ic ~max_bytes =
  let buf = Buffer.create 256 in
  let rec skip () =
    match input_char ic with exception End_of_file -> () | '\n' -> () | _ -> skip ()
  in
  let rec go n =
    match input_char ic with
    | exception End_of_file -> if n = 0 then Eof else Line (Buffer.contents buf)
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      if n >= max_bytes then (
        skip ();
        Too_long)
      else (
        Buffer.add_char buf c;
        go (n + 1))
  in
  go 0

(* The one request-read loop under every transport: read until EOF, a
   shutdown verb, or a dead peer, then wait until every response is out.
   Returns [true] iff the session ended by shutdown. *)
let session core ~admission ~read seq =
  let n = ref 0 in
  let next () =
    let i = !n in
    incr n;
    i
  in
  let shutdown = ref false in
  let eof = ref false in
  (try
     while not (!eof || !shutdown || Sequencer.dead seq) do
       match read () with
       | Eof -> eof := true
       | Too_long -> Sequencer.emit seq (next ()) (Core.oversized core)
       | Line l when String.trim l = "" -> ()
       | Line l -> (
         match Core.dispatch core ~admission seq (next ()) l with
         | `Dispatched -> ()
         | `Shutdown -> shutdown := true)
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  ignore (Sequencer.wait seq ~upto:!n);
  !shutdown

let run_lines ~admission core lines =
  let buf = Buffer.create 4096 in
  let seq = Sequencer.create ~write:(Buffer.add_string buf) ~flush:ignore () in
  let rest = ref lines in
  let read () =
    match !rest with
    | [] -> Eof
    | l :: tl ->
      rest := tl;
      Line l
  in
  ignore (session core ~admission ~read seq);
  String.split_on_char '\n' (String.trim (Buffer.contents buf))
  |> List.filter (fun s -> s <> "")

(* one session over a channel pair; the flush policy is the only thing
   the channel transports (serve, batch, socket connections) differ in *)
let channel_session core ~admission ~flush_each ic oc =
  let seq =
    Sequencer.create ~flush_each ~write:(output_string oc) ~flush:(fun () -> flush oc) ()
  in
  let read () = read_line_bounded ic ~max_bytes:core.Core.cfg.max_request_bytes in
  let shutdown = session core ~admission ~read seq in
  (try flush oc with Sys_error _ | Unix.Unix_error _ -> ());
  shutdown

(* stdio and batch have exactly one producer, so a full queue means
   "wait", never "shed": every line up to EOF gets its real answer *)
let serve_channels cfg ~flush_each ic oc =
  let core = Core.create cfg in
  Fun.protect
    ~finally:(fun () -> Core.stop core)
    (fun () ->
      ignore (channel_session core ~admission:Backpressure ~flush_each ic oc);
      0)

(* ---------------------------------------------------------- listener *)

exception Already_serving of string

(* A leftover socket file from a killed daemon must not block restart,
   but hijacking a live daemon's socket would silently split traffic: a
   connect probe tells the two apart. Refused/ENOENT means nobody is
   accepting — stale, unlink it; an accepted connect means a live daemon. *)
let claim_socket_path path =
  if Sys.file_exists path then (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then raise (Already_serving path);
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())

let resolve_host host =
  if host = "" || host = "localhost" then Unix.inet_addr_loopback
  else
    match Unix.inet_addr_of_string host with
    | a -> a
    | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        failwith (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))

let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ()

(* SIGTERM/SIGINT only flip the flag; the accept loop (which ticks every
   0.25s) performs the actual teardown outside signal-handler context *)
let install_stop_handlers stop =
  let handle _ = Atomic.set stop true in
  List.iter
    (fun s ->
      try ignore (Sys.signal s (Sys.Signal_handle handle))
      with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let write_port_file path port =
  let oc = open_out path in
  output_string oc (string_of_int port);
  output_char oc '\n';
  close_out oc

let serve_socket cfg addr ?port_file () =
  let path = match addr with Unix.ADDR_UNIX p -> Some p | Unix.ADDR_INET _ -> None in
  let inet = path = None in
  Option.iter claim_socket_path path;
  ignore_sigpipe ();
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  let stop = Atomic.make false in
  (* live connection fds, so teardown can force EOF on blocked readers *)
  let conns : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 32 in
  let conns_lock = Mutex.create () in
  let threads = ref [] in
  let conn_id = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Option.iter
        (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
        path)
    (fun () ->
      if inet then Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock addr;
      Unix.listen sock 64;
      (* the worker domains spawn with the first connection: an idle
         listener stays a single thread, cheap to start and to kill *)
      let core = Core.create ~start:false cfg in
      (match Unix.getsockname sock with
      | Unix.ADDR_INET (host, port) ->
        Option.iter (fun f -> write_port_file f port) port_file;
        Printf.eprintf "ppredict: fleet listening on %s:%d (%d worker%s)\n%!"
          (Unix.string_of_inet_addr host) port cfg.jobs
          (if cfg.jobs = 1 then "" else "s")
      | Unix.ADDR_UNIX _ -> ());
      install_stop_handlers stop;
      while not (Atomic.get stop) do
        (* poll-accept: a stop request (signal or shutdown verb) is
           noticed within a tick, never blocked on accept *)
        match Unix.select [ sock ] [] [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept sock with
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
          | conn, _ ->
            Core.start core;
            if inet then (
              try Unix.setsockopt conn Unix.TCP_NODELAY true
              with Unix.Unix_error _ -> ());
            let id = !conn_id in
            incr conn_id;
            Mutex.protect conns_lock (fun () -> Hashtbl.replace conns id conn);
            (* one reader thread per connection; connections share the
               core and shed rather than wait when it is full *)
            let th =
              Thread.create
                (fun () ->
                  Obs.incr c_connections;
                  Obs.add_gauge g_connections 1;
                  let ic = Unix.in_channel_of_descr conn in
                  (* the write side gets its own duplicated fd so each
                     channel can be closed exactly once — a shared fd
                     closed twice could tear down an unrelated connection
                     that reused the number in between *)
                  let oc = Unix.out_channel_of_descr (Unix.dup conn) in
                  if channel_session core ~admission:Shed ~flush_each:true ic oc then
                    Atomic.set stop true;
                  Obs.add_gauge g_connections (-1);
                  Mutex.protect conns_lock (fun () -> Hashtbl.remove conns id);
                  (* close the channels, not just the fds: a leaked channel
                     stays on the runtime's open-channel list forever and
                     stretches process exit *)
                  close_in_noerr ic;
                  close_out_noerr oc)
                ()
            in
            threads := th :: !threads)
      done;
      (* drain: force EOF on blocked readers, let every connection flush
         its in-order tail, then retire the worker domains *)
      Mutex.protect conns_lock (fun () ->
          Hashtbl.iter
            (fun _ fd ->
              try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
            conns);
      List.iter Thread.join !threads;
      Core.drain core;
      Core.stop core;
      0)
