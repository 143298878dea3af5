(* ppredict: command-line driver for the performance prediction framework.

   Every query subcommand is built from one of Pperf_server.Query's rows
   and runs the same code as the server verb of the same name, reporting
   failure through Query's exception table. Only the service subcommands
   (batch, serve, loadgen) are written out below. *)

open Cmdliner
module Query = Pperf_server.Query
module Options = Pperf_server.Options
module Protocol = Pperf_server.Protocol

let machine_arg =
  let doc =
    Printf.sprintf "Target machine: %s, or a description file."
      (String.concat ", " Pperf_machine.Descr.builtin_names)
  in
  Arg.(value & opt string "power1" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let file_arg idx docv =
  let path = Arg.(required & pos idx (some file) None & info [] ~docv ~doc:"PF source file") in
  Term.(const (fun p -> Protocol.File p) $ path)

(* one cmdliner term per Options row, setting its field; a list value
   that fails the row's check is a usage error *)
let flag_term (Options.Flag f) : (Options.t -> Options.t) Term.t =
  let set v o = f.set o v in
  match f.kind with
  | Options.Bool -> Term.(const set $ Arg.(value & flag & info f.names ~doc:f.doc))
  | Options.Strings { docv; check } ->
    let parse s = Result.(map_error (fun m -> `Msg m) (map (Fun.const s) (check s))) in
    let spec = Arg.conv ~docv (parse, Format.pp_print_string) in
    Term.(const set $ Arg.(value & opt_all spec [] & info f.names ~docv ~doc:f.doc))
  | Options.Choice { docv; choices } ->
    let choice = Arg.enum (List.map (fun c -> (c, c)) choices) in
    Term.(const set $ Arg.(value & opt (some choice) None & info f.names ~docv ~doc:f.doc))

let options_term flags =
  List.fold_left
    (fun acc f -> Term.(const ( |> ) $ acc $ flag_term f))
    (Term.const Options.default) flags

let stats_arg =
  let doc = "Append a JSON object of internal operation counters to the output." in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* reset the registry, run the command, then append the requested
   telemetry: the span tree under --trace, the counters under --stats *)
let with_telemetry ~stats ~trace f =
  Pperf_obs.Obs.reset_all ();
  let code =
    if trace then (
      let code, node = Pperf_obs.Obs.Trace.collect f in
      print_string (Pperf_server.(Json.to_string (Render.trace_json node)) ^ "\n");
      code)
    else f ()
  in
  if stats then print_string (Pperf_obs.Obs.to_json () ^ "\n");
  code

let handle f =
  try f () with e ->
    Printf.eprintf "%s\n" (Query.cli_message e);
    1

(* ---- the query subcommands ---- *)

let dir_arg =
  let doc = "Directory of .pmach machine description files to list." in
  Arg.(value & opt string Query.machines_dir & info [ "dir" ] ~docv:"DIR" ~doc)

let tolerance_arg =
  let doc =
    "Maximum acceptable relative error between a measurement and the \
     fitted machine's prediction of it (default 0.25). Exceeding it \
     makes the exit code 1."
  in
  Arg.(value & opt (some float) None & info [ "tolerance" ] ~docv:"T" ~doc)

let out_arg =
  let doc = "Write the fitted machine description (.pmach v2) to FILE." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let query_cmd (q : Query.t) =
  (* options only the CLI has, parameterizing the shared row *)
  let row =
    match q.verb with
    | Protocol.Machines -> Term.(const (fun dir -> Query.machines ~dir ()) $ dir_arg)
    | Protocol.Calibrate ->
      Term.(
        const (fun tolerance out -> Query.calibrate ?tolerance ?out ())
        $ tolerance_arg $ out_arg)
    | _ -> Term.const q
  in
  let machine =
    match q.machine with
    | Query.No_machine -> Term.const "power1"
    | Query.Machine_option -> machine_arg
    | Query.Machine_positional ->
      let doc = "machine name or file" in
      Arg.(value & pos (List.length q.sources) string "power1" & info [] ~docv:"MACHINE" ~doc)
  in
  let stats = if q.stats then stats_arg else Term.const false in
  let sources =
    List.fold_right
      (fun t acc -> Term.(const List.cons $ t $ acc))
      (List.mapi file_arg q.sources) (Term.const [])
  in
  let run row machine (options : Options.t) stats sources =
    handle (fun () ->
        with_telemetry ~stats ~trace:options.trace (fun () ->
            let machine = Pperf_server.Machines.load machine in
            let sources = List.map Query.source_text sources in
            let p = Query.run row options machine sources in
            List.iter (Printf.eprintf "warning: %s\n%!") p.warnings;
            print_string p.output;
            p.status))
  in
  Cmd.v
    (Cmd.info (Query.name q) ~doc:q.doc)
    Term.(const run $ row $ machine $ options_term q.flags $ stats $ sources)

(* ---- batch / serve ---- *)

(* counts are validated at parse time: 0 or negative is a usage error,
   not something to silently clamp *)
let pos_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Error _ as e -> e
    | Ok n when n < 1 ->
      Error (`Msg (Printf.sprintf "expected a positive count, got %d" n))
    | Ok n -> Ok n
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let jobs_arg =
  let doc =
    "Worker domains evaluating requests in parallel (default: the recommended \
     domain count of the machine). Must be positive."
  in
  Arg.(value & opt (some pos_int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let max_request_bytes_arg =
  let doc = "Answer request lines longer than $(docv) with an oversized error." in
  Arg.(value
       & opt int Pperf_fleet.Fleet.default_max_request_bytes
       & info [ "max-request-bytes" ] ~docv:"BYTES" ~doc)

let resolve_jobs = function
  | Some n -> n
  | None -> Pperf_fleet.Fleet.recommended_jobs ()

let batch_cmd =
  let run jobs max_bytes file =
    let cfg =
      Pperf_fleet.Fleet.config ~max_request_bytes:max_bytes ~jobs:(resolve_jobs jobs) ()
    in
    let go ic = Pperf_fleet.Fleet.serve_channels cfg ~flush_each:false ic stdout in
    match file with
    | None -> go stdin
    | Some f ->
      let ic = open_in f in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go ic)
  in
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"JSON-lines request file (default: stdin)")
  in
  let doc =
    let names verbs = String.concat ", " (List.map Protocol.verb_string verbs) in
    let queries, controls = List.partition (fun v -> Query.find v <> None) Protocol.all_verbs in
    Printf.sprintf
      "Answer a stream of JSON-lines requests (one JSON object per line; query \
       verbs %s; control verbs %s) and exit at end of input. Responses come in \
       request order; query outputs are byte-identical to the one-shot \
       subcommands. See README section \"The prediction service\"."
      (names queries) (names controls)
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const run $ jobs_arg $ max_request_bytes_arg $ file)

let hostport =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected HOST:PORT (e.g. 127.0.0.1:7070)")
    | Some i -> (
      let host = String.sub s 0 i in
      let p = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt p with
      | Some port when port >= 0 && port <= 65535 -> Ok (host, port)
      | _ -> Error (`Msg (Printf.sprintf "bad port %S (expected 0..65535)" p)))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let tcp_arg ~doc = Arg.(value & opt (some hostport) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let run jobs max_bytes socket tcp max_queue port_file =
    let cfg =
      Pperf_fleet.Fleet.config ~max_queue ~max_request_bytes:max_bytes
        ~jobs:(resolve_jobs jobs) ()
    in
    let listen addr =
      let code = Pperf_fleet.Fleet.serve_socket cfg addr ?port_file () in
      (* All connections are drained and the listener closed by now; the
         OCaml 5.1 runtime sometimes stalls ~2s tearing down the
         domain+systhread mix, so skip at_exit and leave immediately. *)
      flush stdout;
      flush stderr;
      Unix._exit code
    in
    try
      match (tcp, socket) with
      | Some (host, port), _ ->
        listen (Unix.ADDR_INET (Pperf_fleet.Fleet.resolve_host host, port))
      | None, Some path -> listen (Unix.ADDR_UNIX path)
      | None, None -> Pperf_fleet.Fleet.serve_channels cfg ~flush_each:true stdin stdout
    with
    | Pperf_fleet.Fleet.Already_serving p ->
      Printf.eprintf "ppredict: %s is owned by a live daemon; not starting\n" p;
      1
    | Failure msg | Sys_error msg ->
      Printf.eprintf "ppredict: %s\n" msg;
      1
    | Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "ppredict: %s: %s\n" fn (Unix.error_message e);
      1
  in
  let socket_arg =
    let doc =
      "Serve concurrent connections on a Unix socket at $(docv) instead of \
       stdin/stdout. The engine (and its warm result cache) is shared across \
       connections; a shutdown request stops the daemon, end of a connection \
       does not. A stale socket file left by a dead daemon is replaced; a live \
       one is refused."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp =
    tcp_arg
      ~doc:
        "Serve concurrent connections on a TCP listener at $(docv) (port 0 picks \
         an ephemeral port; see $(b,--port-file))."
  in
  let max_queue_arg =
    let doc =
      "Admission bound: at most $(docv) requests wait for a worker. Beyond it, \
       socket connections are shed with a structured $(i,overloaded) error \
       carrying a retry_after_ms hint; stdin waits for room."
    in
    Arg.(value & opt pos_int Pperf_fleet.Fleet.default_max_queue
         & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let port_file_arg =
    let doc = "Write the bound TCP port to $(docv) once listening (for port 0)." in
    Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"PATH" ~doc)
  in
  let doc =
    "Long-lived prediction daemon speaking the JSON-lines protocol of \
     $(b,ppredict batch): hot machine descriptions, a content-addressed result \
     cache, incremental predictors and $(b,--jobs) worker domains stay \
     resident between requests. Every worker takes requests from one queue \
     and shares the predictors, so repeat queries for a kernel meet its warm \
     predictor whichever worker runs them. \
     Every response is flushed as soon as it is in order; malformed input \
     yields a structured error response and the server keeps running. With \
     $(b,--socket) or $(b,--tcp) many connections are served concurrently; \
     SIGTERM/SIGINT drain in-flight requests before exit."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ jobs_arg $ max_request_bytes_arg $ socket_arg $ tcp $ max_queue_arg
          $ port_file_arg)

let loadgen_cmd =
  let run tcp socket script requests connections window seed samples json =
    let target =
      match (tcp, socket) with
      | Some (h, p), None -> Some (Pperf_fleet.Loadgen.Tcp (h, p))
      | None, Some path -> Some (Pperf_fleet.Loadgen.Unix_path path)
      | _ -> None
    in
    match target with
    | None ->
      prerr_endline "ppredict loadgen: pass exactly one of --tcp HOST:PORT or --socket PATH";
      2
    | Some target -> (
      try
        match script with
        | Some f -> Pperf_fleet.Loadgen.run_script target f
        | None ->
          Pperf_fleet.Loadgen.run_load target ~requests ~connections ~window ~seed
            ~samples ~json ()
      with
      | Failure msg | Sys_error msg ->
        Printf.eprintf "ppredict loadgen: %s\n" msg;
        1
      | Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "ppredict loadgen: %s: %s\n" fn (Unix.error_message e);
        1)
  in
  let tcp = tcp_arg ~doc:"Target daemon's TCP listener address." in
  let socket_arg =
    let doc = "Target daemon's Unix socket path." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let script_arg =
    let doc =
      "Replay $(docv) (one JSON request per line) serially and print each \
       response: the deterministic mode. Without it, run the synthetic load."
    in
    Arg.(value & opt (some file) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let requests_arg =
    let doc = "Total synthetic requests across all connections." in
    Arg.(value & opt pos_int 1000 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let connections_arg =
    let doc = "Concurrent client connections." in
    Arg.(value & opt pos_int 8 & info [ "c"; "connections" ] ~docv:"N" ~doc)
  in
  let window_arg =
    let doc = "Pipelined requests kept outstanding per connection." in
    Arg.(value & opt pos_int 32 & info [ "window" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed for the request mix (reproducible runs)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let samples_arg =
    let doc = "Directory of *.pf kernels to build the corpus from." in
    Arg.(value & opt dir "samples" & info [ "samples" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Machine-readable output only (the JSON summary)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "Drive a prediction daemon with load: either replay a request script \
     deterministically, or storm it with a seeded mix of hot and cold queries, \
     control verbs, malformed lines and deadline churn over many pipelined \
     connections, verifying in-order exactly-once responses and reporting \
     latency percentiles and throughput as JSON."
  in
  Cmd.v (Cmd.info "loadgen" ~doc)
    Term.(const run $ tcp $ socket_arg $ script_arg $ requests_arg
          $ connections_arg $ window_arg $ seed_arg $ samples_arg $ json_arg)

let () =
  let doc = "compile-time performance prediction for superscalar machines" in
  let info = Cmd.info "ppredict" ~version:"1.0.0" ~doc in
  let service = [ batch_cmd; serve_cmd; loadgen_cmd ] in
  exit (Cmd.eval' (Cmd.group info (List.map query_cmd Query.all @ service)))
