(* ppredict: command-line driver for the performance prediction framework.

   Subcommands:
     predict   FILE        symbolic performance expressions for each routine
     schedule  FILE        atomic ops + bin diagram of the innermost block
     compare   F1 F2       symbolic comparison of two variants
     bounds    FILE        three-bound analysis: bin-packing vs critical
                           path/LCD vs memory, per loop nest
     search    FILE        performance-guided restructuring
     lint      FILE        static diagnostics (defects + precision losses)
     ranges    FILE        interval abstract interpretation: loop/variable ranges
     machine   [NAME]      print a machine description (textual format)
     machines              list known machines (builtins + .pmach files)
     calibrate             fit an issue-port cost model by measurement
     batch     [FILE]      answer a file/stream of JSON-lines requests
     serve                 long-lived JSON-lines prediction daemon

   The query subcommands render through Pperf_server.Render, the same code
   the server verbs use, so serve/batch responses are byte-identical to
   the one-shot subcommands. *)

open Cmdliner
open Pperf_lang
open Pperf_machine
open Pperf_sched
open Pperf_core

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* one "load the machine once" helper for every subcommand and the server:
   builtins resolve directly, description files are parsed once per content
   digest and their derived tables pre-built *)
let machine_of_spec = Pperf_server.Machines.load

let machine_arg =
  let doc = "Target machine: power1, power1x2, alpha21064, scalar, or a description file." in
  Arg.(value & opt string "power1" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let memory_arg =
  let doc = "Include the cache cost model." in
  Arg.(value & flag & info [ "memory" ] ~doc)

let file_arg idx name =
  Arg.(required & pos idx (some file) None & info [] ~docv:name ~doc:"PF source file")

(* validate binding/range syntax at parse time: a malformed value is a
   clean cmdliner usage error, not a mid-run failure *)
let binding_conv =
  let parse s =
    match String.index_opt s '=' with
    | None -> Error (`Msg (Printf.sprintf "malformed binding '%s': expected VAR=VALUE" s))
    | Some i -> (
      let value = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt value with
      | Some _ -> Ok s
      | None ->
        Error (`Msg (Printf.sprintf "malformed binding '%s': '%s' is not a number" s value)))
  in
  Arg.conv ~docv:"VAR=VALUE" (parse, Format.pp_print_string)

let range_conv =
  let parse s =
    let bad reason = Error (`Msg (Printf.sprintf "malformed range '%s': %s" s reason)) in
    match String.split_on_char '=' s with
    | [ _; range ] -> (
      match String.split_on_char ':' range with
      | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some _, Some _ -> Ok s
        | _ -> bad "bounds must be integers")
      | _ -> bad "expected VAR=LO:HI")
    | _ -> bad "expected VAR=LO:HI"
  in
  Arg.conv ~docv:"VAR=LO:HI" (parse, Format.pp_print_string)

let eval_arg =
  let doc = "Evaluate the expression at VAR=VALUE (repeatable). --bind is a synonym." in
  Arg.(value & opt_all binding_conv [] & info [ "eval"; "bind" ] ~docv:"VAR=VALUE" ~doc)

let strict_arg =
  let doc = "Treat binding mismatches (unbound or unused variable names) as errors." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let stats_arg =
  let doc = "Append a JSON object of internal operation counters to the output." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_arg =
  let doc =
    "Append a JSON span tree of the evaluation: per-phase (parse, typecheck, \
     aggregate, ...) wall time with self/total split."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

(* reset the registry, run the command, then append the requested
   telemetry: the span tree under --trace, the counters under --stats *)
let with_telemetry ?(stats = false) ?(trace = false) f =
  Pperf_obs.Obs.reset_all ();
  let code =
    if trace then (
      let code, node = Pperf_obs.Obs.Trace.collect f in
      print_string (Pperf_obs.Obs.Trace.to_json node ^ "\n");
      code)
    else f ()
  in
  if stats then print_string (Pperf_obs.Obs.to_json () ^ "\n");
  code

let with_stats ?(stats = false) ?(trace = false) f =
  ignore (with_telemetry ~stats ~trace (fun () -> f (); 0))

let parse_bindings = Pperf_server.Render.parse_bindings

let warn_stderr m = Printf.eprintf "warning: %s\n%!" m

let options_of ~memory =
  Pperf_server.Options.(to_aggregate { default with memory })

let ranges_flag =
  let doc =
    "Run the interval abstract interpretation first and use the inferred \
     variable ranges (tighter trip counts, statically decided comparisons, \
     fewer false positives)."
  in
  Arg.(value & flag & info [ "ranges" ] ~doc)

let domain_arg =
  let domains = List.map (fun d -> (d, d)) Pperf_absint.Absint.all_domains in
  let doc =
    "Abstract domain for the range analysis: $(b,interval) (the default), \
     $(b,octagon) (difference constraints ±x ± y <= c), $(b,affine) (exact \
     equalities x = Σ aᵢ·yᵢ + c), or $(b,product) (both with mutual \
     reduction). Relational domains decide comparisons and rebut \
     diagnostics that intervals alone cannot."
  in
  Arg.(value & opt (some (enum domains)) None & info [ "domain" ] ~docv:"DOMAIN" ~doc)

(* the enum already validated the name, so an unknown string is impossible *)
let resolve_domain = function
  | None -> Pperf_absint.Absint.Box
  | Some d -> (
    match Pperf_absint.Absint.domain_of_string d with
    | Some dom -> dom
    | None -> Pperf_absint.Absint.Box)

let handle_code f =
  try f () with
  | Parser.Error (msg, loc) ->
    Printf.eprintf "parse error at %s: %s\n" (Srcloc.to_string loc) msg;
    1
  | Typecheck.Type_error (msg, loc) ->
    Printf.eprintf "type error at %s: %s\n" (Srcloc.to_string loc) msg;
    1
  | Descr.Parse_error msg ->
    Printf.eprintf "machine description error: %s\n" msg;
    1
  | Machine.Unknown_atomic { machine; op } ->
    Printf.eprintf "error: machine %s has no atomic operation %s\n" machine op;
    1
  | Pperf_server.Render.Bad_flag msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Pperf_backend.Pipeline.Livelock { cycle; unissued } ->
    Printf.eprintf
      "error: pipeline schedule livelocked after %d cycles with %d operation(s) unissued\n"
      cycle unissued;
    1
  | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let handle f =
  handle_code (fun () ->
      f ();
      0)

(* ---- predict ---- *)

let interproc_arg =
  let doc = "Charge call sites with callee performance expressions (§3.5)." in
  Arg.(value & flag & info [ "interprocedural"; "i" ] ~doc)

let predict_cmd =
  let run mspec memory interproc use_ranges domain strict stats trace evals file =
    handle (fun () ->
        with_stats ~stats ~trace (fun () ->
        let machine = machine_of_spec mspec in
        (* the same Options record the server parses from request flags:
           one canonicalization, one Aggregate mapping for both surfaces *)
        let opts =
          { Pperf_server.Options.default with
            memory; ranges = use_ranges; interproc; strict; trace; eval = evals;
            domain }
        in
        let options = Pperf_server.Options.to_aggregate opts in
        print_string
          (Pperf_server.Render.predict ~machine ~options ~interproc:opts.interproc
             ~strict:opts.strict ~evals:opts.eval ~warn:warn_stderr (read_file file))))
  in
  let doc = "Predict performance expressions for each routine in a PF file." in
  Cmd.v (Cmd.info "predict" ~doc)
    Term.(const run $ machine_arg $ memory_arg $ interproc_arg $ ranges_flag $ domain_arg
          $ strict_arg $ stats_arg $ trace_arg $ eval_arg $ file_arg 0 "FILE")

(* ---- schedule ---- *)

let schedule_cmd =
  let run mspec file =
    handle (fun () ->
        let machine = machine_of_spec mspec in
        let checked = Typecheck.check_program (Parser.parse_program (read_file file)) in
        List.iter
          (fun (c : Typecheck.checked) ->
            Format.printf "routine %s:@." c.routine.rname;
            List.iter
              (fun (loops, body) ->
                let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
                let assigned = Analysis.assigned_vars c.routine.body in
                let invariants =
                  Analysis.SSet.diff
                    (Analysis.SSet.union (Analysis.used_vars c.routine.body) assigned)
                    assigned
                in
                let res =
                  Pperf_translate.Translator.translate_block ~machine ~symtab:c.symbols
                    ~loop_vars ~invariants body
                in
                Format.printf "@.innermost block under loops [%s]:@.%a@."
                  (String.concat "," loop_vars) Dag.pp res.body;
                let bins = Bins.create machine in
                let s = Bins.drop_dag bins res.body in
                Format.printf "%a@." Bins.pp bins;
                Format.printf
                  "cost %d cycles | critical path %d | operation count %d | reference %d@."
                  s.cost (Dag.critical_path res.body)
                  (Bins.Opcount.cost res.body)
                  (Pperf_backend.Pipeline.reference_cycles machine res.body))
              (Analysis.innermost_bodies c.routine.body))
          checked)
  in
  let doc = "Show the translated atomic operations and their bin schedule." in
  Cmd.v (Cmd.info "schedule" ~doc) Term.(const run $ machine_arg $ file_arg 0 "FILE")

(* ---- compare ---- *)

let range_arg =
  let doc = "Range of an unknown: VAR=LO:HI (repeatable)." in
  Arg.(value & opt_all range_conv [] & info [ "range" ] ~docv:"VAR=LO:HI" ~doc)

let compare_cmd =
  let run mspec memory ranges use_ranges domain stats trace f1 f2 =
    handle (fun () ->
        with_stats ~stats ~trace (fun () ->
        let machine = machine_of_spec mspec in
        let opts =
          { Pperf_server.Options.default with
            memory; ranges = use_ranges; trace; range = ranges; domain }
        in
        let options = Pperf_server.Options.to_aggregate opts in
        print_string
          (Pperf_server.Render.compare
             ~domain:(Pperf_server.Options.domain opts)
             ~machine ~options ~use_ranges:opts.ranges ~ranges:opts.range
             (read_file f1) (read_file f2))))
  in
  let doc = "Compare two program variants symbolically." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ machine_arg $ memory_arg $ range_arg $ ranges_flag $ domain_arg
          $ stats_arg $ trace_arg $ file_arg 0 "FILE1" $ file_arg 1 "FILE2")

(* ---- bounds ---- *)

let bounds_cmd =
  let run mspec memory json stats trace evals file =
    handle (fun () ->
        with_stats ~stats ~trace (fun () ->
        let machine = machine_of_spec mspec in
        print_string
          (Pperf_server.Render.bounds ~machine ~memory ~json ~evals (read_file file))))
  in
  let json_arg =
    let doc = "Emit the bound summary as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "Three-bound analysis of every loop nest: the paper's bin-packing \
     (throughput) bound, the critical path and loop-carried-dependence (LCD) \
     latency bound, and (with --memory) the cache-line bound, each totalled \
     symbolically over the trip counts. The steady-state classification takes \
     the max; a bound-disagreement event marks nests where the packing model \
     is provably optimistic."
  in
  Cmd.v (Cmd.info "bounds" ~doc)
    Term.(const run $ machine_arg $ memory_arg $ json_arg $ stats_arg $ trace_arg
          $ eval_arg $ file_arg 0 "FILE")

(* ---- search ---- *)

let search_cmd =
  let run mspec memory file =
    handle (fun () ->
        let machine = machine_of_spec mspec in
        let options = options_of ~memory in
        let checked = Typecheck.check_routine (Parser.parse_routine (read_file file)) in
        let out = Pperf_transform.Search.run ~machine ~options ~max_nodes:150 ~max_depth:3 checked in
        Format.printf "explored %d states@." out.explored;
        Format.printf "sequence: %s@."
          (if out.trace = [] then "(none)"
           else
             String.concat " ; "
               (List.map (fun (s : Pperf_transform.Search.step) -> s.action) out.trace));
        Format.printf "predicted: %a  ->  %a@." Perf_expr.pp out.initial Perf_expr.pp
          out.predicted;
        if out.blocked <> [] then (
          Format.printf "@.blocked by dependences:@.";
          List.iter
            (fun (b : Pperf_transform.Search.blocked) ->
              Format.printf "  %s at %a: %a@." b.action Pperf_transform.Transformations.pp_path
                b.at Pperf_lint.Diagnostic.pp_short b.why)
            out.blocked);
        Format.printf "@.%s" (Pp_ast.routine_to_string out.best.routine))
  in
  let doc = "Performance-guided automatic restructuring (A*-style search)." in
  Cmd.v (Cmd.info "search" ~doc) Term.(const run $ machine_arg $ memory_arg $ file_arg 0 "FILE")

(* ---- report ---- *)

let report_cmd =
  let run mspec memory ranges file =
    handle (fun () ->
        let machine = machine_of_spec mspec in
        let options = options_of ~memory in
        let env = Pperf_server.Render.range_env ranges in
        List.iter
          (fun checked ->
            let r = Report.generate ~options ~env ~machine checked in
            Format.printf "%a@." Report.pp r)
          (Typecheck.check_program (Parser.parse_program (read_file file))))
  in
  let doc = "Full prediction report: expression, unknowns, sensitivity, hot spots." in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ machine_arg $ memory_arg $ range_arg $ file_arg 0 "FILE")

(* ---- deps ---- *)

let deps_cmd =
  let run file =
    handle (fun () ->
        let checked = Typecheck.check_program (Parser.parse_program (read_file file)) in
        List.iter
          (fun (c : Typecheck.checked) ->
            Format.printf "routine %s:@." c.routine.rname;
            let deps = Depend.dependences_in c.routine.body in
            if deps = [] then Format.printf "  no data dependences@."
            else
              List.iter
                (fun (d : Depend.dependence) ->
                  Format.printf "  %a  (line %d -> line %d)@." Depend.pp_dependence d
                    d.src.Analysis.at.Srcloc.line d.dst.Analysis.at.Srcloc.line)
                deps;
            (* interchange legality of each outer perfect nest *)
            Ast.iter_stmts
              (fun s ->
                match s.Ast.kind with
                | Ast.Do d when (match d.body with [ { kind = Ast.Do _; _ } ] -> true | _ -> false) ->
                  Format.printf "  nest at line %d: interchange %s@." s.loc.Srcloc.line
                    (if Depend.interchange_legal d then "legal" else "ILLEGAL")
                | _ -> ())
              c.routine.body)
          checked)
  in
  let doc = "Report data dependences and interchange legality." in
  Cmd.v (Cmd.info "deps" ~doc) Term.(const run $ file_arg 0 "FILE")

(* ---- run (interpreter + profile) ---- *)

let run_cmd =
  let run mspec evals file =
    handle (fun () ->
        let machine = machine_of_spec mspec in
        let bindings = parse_bindings evals in
        let args =
          List.map (fun (v, f) ->
              (v, if Float.is_integer f then Pperf_exec.Interp.VInt (int_of_float f)
                  else Pperf_exec.Interp.VReal f))
            bindings
        in
        let res = Pperf_exec.Interp.run_source ~machine ~args (read_file file) in
        Format.printf "dynamic cycles: %.0f@." res.cycles;
        Format.printf "profile:@.%a" Pperf_exec.Interp.Profile.pp res.profile;
        (* compare with the static prediction at the same bindings *)
        let p = Predict.of_source ~machine (read_file file) in
        let static = Predict.eval p bindings in
        Format.printf "static prediction %a = %.0f (%.2f%% from dynamic)@." Predict.pp p static
          (100.0 *. Float.abs (static -. res.cycles) /. Float.max 1.0 res.cycles))
  in
  let doc = "Interpret the program, profile it, and validate the static prediction." in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ machine_arg $ eval_arg $ file_arg 0 "FILE")

(* ---- lint ---- *)

let lint_cmd =
  let run json use_ranges domain trace file =
    handle_code (fun () ->
        with_telemetry ~trace (fun () ->
            let output, code =
              Pperf_server.Render.lint
                ~domain:(resolve_domain domain)
                ~json ~use_ranges (read_file file)
            in
            print_string output;
            code))
  in
  let json_arg =
    let doc = "Emit diagnostics as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "Run the static diagnostic checks over a PF file: program defects \
     (out-of-bounds subscripts, use before definition, zero loop steps, possible \
     division by zero, dead branches) and the places where the performance \
     prediction goes conservative (non-affine subscripts, unknown call costs). \
     Exit status is 2 when any error is reported, 1 when any warning, else 0."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ json_arg $ ranges_flag $ domain_arg $ trace_arg $ file_arg 0 "FILE")

(* ---- ranges ---- *)

let ranges_cmd =
  let run json domain stats trace file =
    handle (fun () ->
        with_stats ~stats ~trace (fun () ->
        print_string
          (Pperf_server.Render.ranges
             ~domain:(resolve_domain domain)
             ~json (read_file file))))
  in
  let json_arg =
    let doc = "Emit the ranges as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc =
    "Run the abstract interpretation over each routine and print the \
     inferred ranges: per-loop index and trip-count intervals (indented by \
     nesting depth) and the routine-wide variable range summary. A \
     relational --domain additionally prints the per-point and summary \
     relational constraints."
  in
  Cmd.v (Cmd.info "ranges" ~doc)
    Term.(const run $ json_arg $ domain_arg $ stats_arg $ trace_arg $ file_arg 0 "FILE")

(* ---- machine ---- *)

let machine_cmd =
  let run mspec =
    handle (fun () ->
        let m = machine_of_spec mspec in
        print_string (Descr.to_string m))
  in
  let doc = "Print a machine description in the portable textual format." in
  let spec = Arg.(value & pos 0 string "power1" & info [] ~docv:"MACHINE" ~doc:"machine name or file") in
  Cmd.v (Cmd.info "machine" ~doc) Term.(const run $ spec)

(* ---- machines ---- *)

let machines_cmd =
  let run dir = handle (fun () -> print_string (Pperf_server.Render.machines ~dir ())) in
  let dir_arg =
    let doc = "Directory of .pmach machine description files to list." in
    Arg.(value & opt string "machines" & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let doc =
    "List every known machine — the builtins plus the .pmach files of a \
     directory — with its cost-model kind (classic or ports), unit/port \
     count and issue width."
  in
  Cmd.v (Cmd.info "machines" ~doc) Term.(const run $ dir_arg)

(* ---- calibrate ---- *)

let calibrate_cmd =
  let run mspec tolerance out =
    handle_code (fun () ->
        let machine = machine_of_spec mspec in
        let r = Pperf_exec.Calibrate.run ~machine ?tolerance () in
        (* same bytes as the server's calibrate verb: both print
           Calibrate.report of a default-tolerance run *)
        print_string (Pperf_exec.Calibrate.report r);
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc r.Pperf_exec.Calibrate.description;
            close_out oc)
          out;
        if r.Pperf_exec.Calibrate.ok then 0 else 1)
  in
  let tolerance_arg =
    let doc =
      "Maximum acceptable relative error between a measurement and the \
       fitted machine's prediction of it (default 0.25). Exceeding it \
       makes the exit code 1."
    in
    Arg.(value & opt (some float) None & info [ "tolerance" ] ~docv:"T" ~doc)
  in
  let out_arg =
    let doc = "Write the fitted machine description (.pmach v2) to FILE." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let doc =
    "Fit an issue-port cost model to a machine by measurement: run \
     microbenchmark kernels through the interpreter, fit port structure, \
     µop counts and latencies, and report how well the fitted machine \
     reproduces every measurement."
  in
  Cmd.v (Cmd.info "calibrate" ~doc)
    Term.(const run $ machine_arg $ tolerance_arg $ out_arg)

(* ---- batch / serve ---- *)

(* jobs / shard counts are validated at parse time: 0 or negative is a
   usage error, not something to silently clamp *)
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

let cache_capacity_arg =
  let doc = "Capacity (entries) of the content-addressed result cache." in
  Arg.(value & opt (some int) None & info [ "cache-capacity" ] ~docv:"N" ~doc)

let resolve_jobs = function
  | Some n -> n
  | None -> Pperf_fleet.Fleet.recommended_jobs ()

let batch_cmd =
  let run jobs max_bytes cache_capacity file =
    let cfg =
      Pperf_fleet.Fleet.config ?cache_capacity ~max_request_bytes:max_bytes
        ~jobs:(resolve_jobs jobs) ()
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
    "Answer a stream of JSON-lines requests (one JSON object per line; verbs \
     predict, compare, ranges, lint, ping, stats, shutdown) and exit at end of \
     input. Responses come in request order; query outputs are byte-identical \
     to the one-shot subcommands. See README section \"The prediction service\"."
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const run $ jobs_arg $ max_request_bytes_arg $ cache_capacity_arg $ file)

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

let sched_conv =
  let parse s =
    match Pperf_fleet.Sched.of_string s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  let print ppf p = Format.pp_print_string ppf (Pperf_fleet.Sched.name p) in
  Arg.conv (parse, print)

let tcp_arg ~doc = Arg.(value & opt (some hostport) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let run jobs max_bytes cache_capacity socket tcp sched max_queue port_file
      no_affinity =
    let cfg =
      Pperf_fleet.Fleet.config ~sched ~max_queue ?cache_capacity
        ~max_request_bytes:max_bytes ~affinity:(not no_affinity)
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
  let sched_arg =
    let doc =
      "Scheduling policy of the worker shards: $(b,fifo) (admission order), \
       $(b,lifo) (newest first), or $(b,ws) (fifo plus work stealing of \
       affinity-free requests by idle shards)."
    in
    Arg.(value & opt sched_conv (module Pperf_fleet.Sched.Fifo : Pperf_fleet.Sched.POLICY)
         & info [ "sched" ] ~docv:"POLICY" ~doc)
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
  let no_affinity_arg =
    let doc =
      "Disable affinity routing: place every request on the least-loaded shard \
       (baseline for measuring what affinity buys)."
    in
    Arg.(value & flag & info [ "no-affinity" ] ~doc)
  in
  let doc =
    "Long-lived prediction daemon speaking the JSON-lines protocol of \
     $(b,ppredict batch): hot machine descriptions, a content-addressed result \
     cache, and $(b,--jobs) worker shards stay resident between requests. \
     Requests go to shards by cache-key affinity, so repeat queries for a \
     kernel stay on the worker whose incremental predictor is already warm. \
     Every response is flushed as soon as it is in order; malformed input \
     yields a structured error response and the server keeps running. With \
     $(b,--socket) or $(b,--tcp) many connections are served concurrently; \
     SIGTERM/SIGINT drain in-flight requests before exit."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ jobs_arg $ max_request_bytes_arg $ cache_capacity_arg
          $ socket_arg $ tcp $ sched_arg $ max_queue_arg $ port_file_arg
          $ no_affinity_arg)

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
  exit (Cmd.eval' (Cmd.group info [ predict_cmd; schedule_cmd; compare_cmd; bounds_cmd; search_cmd; run_cmd; deps_cmd; report_cmd; lint_cmd; ranges_cmd; machine_cmd; machines_cmd; calibrate_cmd; batch_cmd; serve_cmd; loadgen_cmd ]))
