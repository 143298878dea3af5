(* The query verbs, one row each: the only description of a verb, read
   by the one-shot CLI subcommand, the server verb and the parity test
   alike. A row names the verb, the sources it takes and the flags the
   CLI exposes for it, and holds its one renderer; [run] turns options, a
   machine and source texts into output, warnings and status. The CLI
   prints those to stdout, stderr and its exit code; the server puts them
   in a response. Beside the rows sits the one table from exceptions to
   error codes and messages. *)

open Pperf_lang
open Pperf_machine
open Pperf_core

type payload = { output : string; warnings : string list; status : int }

type machine_arg = No_machine | Machine_option | Machine_positional

type t = {
  verb : Protocol.verb;
  doc : string;
  sources : string list;
  machine : machine_arg;
  stats : bool;
  flags : Options.flag list;
  inputs : unit -> string;
  render :
    ?predictor:(Typecheck.checked -> Aggregate.prediction) ->
    warn:(string -> unit) ->
    Options.t ->
    Machine.t ->
    string list ->
    string * int;
}

let name q = Protocol.verb_string q.verb
let no_inputs () = ""

(* a renderer gets exactly as many sources as its row names: the CLI's
   positional arguments, or the server's through [required] *)
let predict =
  { verb = Protocol.Predict; sources = [ "FILE" ]; machine = Machine_option; stats = true;
    flags = Options.Flag.[ memory; interproc; ranges; domain; strict; trace; eval ];
    inputs = no_inputs;
    doc = "Predict performance expressions for each routine in a PF file.";
    render =
      (fun ?predictor ~warn o machine srcs ->
        ( Render.predict ?predictor ~machine ~options:(Options.to_aggregate o)
            ~interproc:o.interproc ~strict:o.strict ~evals:o.eval ~warn (List.hd srcs),
          0 )) }

let compare =
  { verb = Protocol.Compare; sources = [ "FILE1"; "FILE2" ]; machine = Machine_option;
    stats = true; flags = Options.Flag.[ memory; range; ranges; domain; trace ];
    inputs = no_inputs;
    doc = "Compare two program variants symbolically.";
    render =
      (fun ?predictor:_ ~warn:_ o machine srcs ->
        ( Render.compare ~domain:(Options.domain o) ~machine ~options:(Options.to_aggregate o)
            ~use_ranges:o.ranges ~ranges:o.range (List.nth srcs 0) (List.nth srcs 1),
          0 )) }

let bounds =
  { verb = Protocol.Bounds; sources = [ "FILE" ]; machine = Machine_option; stats = true;
    flags = Options.Flag.[ memory; json; trace; eval ];
    inputs = no_inputs;
    doc =
      "Three-bound analysis of every loop nest: the paper's bin-packing \
       (throughput) bound, the critical path and loop-carried-dependence (LCD) \
       latency bound, and (with --memory) the cache-line bound, each totalled \
       symbolically over the trip counts. The steady-state classification takes \
       the max; a bound-disagreement event marks nests where the packing model \
       is provably optimistic.";
    render =
      (fun ?predictor:_ ~warn:_ o machine srcs ->
        (Render.bounds ~machine ~memory:o.memory ~json:o.json ~evals:o.eval (List.hd srcs), 0)) }

let lint =
  { verb = Protocol.Lint; sources = [ "FILE" ]; machine = No_machine; stats = false;
    flags = Options.Flag.[ json; ranges; domain; trace ];
    inputs = no_inputs;
    doc =
      "Run the static diagnostic checks over a PF file: program defects \
       (out-of-bounds subscripts, use before definition, zero loop steps, possible \
       division by zero, dead branches) and the places where the performance \
       prediction goes conservative (non-affine subscripts, unknown call costs). \
       Exit status is 2 when any error is reported, 1 when any warning, else 0.";
    render =
      (fun ?predictor:_ ~warn:_ o _ srcs ->
        Render.lint ~domain:(Options.domain o) ~json:o.json ~use_ranges:o.ranges (List.hd srcs)) }

let ranges =
  { verb = Protocol.Ranges; sources = [ "FILE" ]; machine = No_machine; stats = true;
    flags = Options.Flag.[ json; domain; trace ];
    inputs = no_inputs;
    doc =
      "Run the abstract interpretation over each routine and print the \
       inferred ranges: per-loop index and trip-count intervals (indented by \
       nesting depth) and the routine-wide variable range summary. A \
       relational --domain additionally prints the per-point and summary \
       relational constraints.";
    render =
      (fun ?predictor:_ ~warn:_ o _ srcs ->
        (Render.ranges ~domain:(Options.domain o) ~json:o.json (List.hd srcs), 0)) }

let machines_dir = "machines"

(* the listing reads a directory, not a source: its key input is the
   directory's file names and contents, so an added, removed or edited
   .pmach invalidates a cached table *)
let dir_digest dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pmach")
    |> List.sort String.compare
    |> List.map (fun f ->
           let p = Filename.concat dir f in
           f ^ ":" ^ (try Digest.to_hex (Digest.file p) with Sys_error _ -> "unreadable"))
    |> String.concat ";"
  else ""

let machines ?(dir = machines_dir) () =
  { verb = Protocol.Machines; sources = []; machine = No_machine; stats = false; flags = [];
    inputs = (fun () -> dir_digest dir);
    doc =
      "List every known machine — the builtins plus the .pmach files of a \
       directory — with its cost-model kind (classic or ports), unit/port \
       count and issue width.";
    render = (fun ?predictor:_ ~warn:_ _ _ _ -> (Render.machines ~dir (), 0)) }

let calibrate ?tolerance ?out () =
  { verb = Protocol.Calibrate; sources = []; machine = Machine_option; stats = false;
    flags = []; inputs = no_inputs;
    doc =
      "Fit an issue-port cost model to a machine by measurement: run \
       microbenchmark kernels through the interpreter, fit port structure, \
       µop counts and latencies, and report how well the fitted machine \
       reproduces every measurement.";
    render =
      (fun ?predictor:_ ~warn:_ _ machine _ ->
        let r = Pperf_exec.Calibrate.run ~machine ?tolerance () in
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc -> output_string oc r.description))
          out;
        (Pperf_exec.Calibrate.report r, if r.ok then 0 else 1)) }

let schedule =
  { verb = Protocol.Schedule; sources = [ "FILE" ]; machine = Machine_option; stats = false;
    flags = []; inputs = no_inputs;
    doc = "Show the translated atomic operations and their bin schedule.";
    render =
      (fun ?predictor:_ ~warn:_ _ machine srcs -> (Render.schedule ~machine (List.hd srcs), 0)) }

let report =
  { verb = Protocol.Report; sources = [ "FILE" ]; machine = Machine_option; stats = false;
    flags = Options.Flag.[ memory; range ]; inputs = no_inputs;
    doc = "Full prediction report: expression, unknowns, sensitivity, hot spots.";
    render =
      (fun ?predictor:_ ~warn:_ o machine srcs ->
        ( Render.report ~machine ~options:(Options.to_aggregate o) ~ranges:o.range
            (List.hd srcs),
          0 )) }

let deps =
  { verb = Protocol.Deps; sources = [ "FILE" ]; machine = No_machine; stats = false; flags = [];
    inputs = no_inputs;
    doc = "Report data dependences and interchange legality.";
    render = (fun ?predictor:_ ~warn:_ _ _ srcs -> (Render.deps (List.hd srcs), 0)) }

let run_verb =
  { verb = Protocol.Run; sources = [ "FILE" ]; machine = Machine_option; stats = false;
    flags = Options.Flag.[ eval ]; inputs = no_inputs;
    doc = "Interpret the program, profile it, and validate the static prediction.";
    render =
      (fun ?predictor:_ ~warn:_ o machine srcs ->
        (Render.run ~machine ~evals:o.eval (List.hd srcs), 0)) }

let machine =
  { verb = Protocol.Machine; sources = []; machine = Machine_positional; stats = false;
    flags = []; inputs = no_inputs;
    doc = "Print a machine description in the portable textual format.";
    render = (fun ?predictor:_ ~warn:_ _ machine _ -> (Descr.to_string machine, 0)) }

let search =
  { verb = Protocol.Search; sources = [ "FILE" ]; machine = Machine_option; stats = false;
    flags = Options.Flag.[ memory ]; inputs = no_inputs;
    doc = "Performance-guided automatic restructuring (A*-style search).";
    render =
      (fun ?predictor:_ ~warn:_ o machine srcs ->
        (Render.search ~machine ~options:(Options.to_aggregate o) (List.hd srcs), 0)) }

let all =
  [ predict; compare; ranges; lint; bounds; machines (); calibrate (); schedule; report; deps;
    run_verb; machine; search ]

let find verb = List.find_opt (fun q -> q.verb = verb) all

let run ?predictor q options machine sources =
  let warnings = ref [] in
  let output, status =
    q.render ?predictor ~warn:(fun m -> warnings := m :: !warnings) options machine sources
  in
  { output; warnings = List.rev !warnings; status }

let source_text = function
  | Protocol.File p -> In_channel.with_open_bin p In_channel.input_all
  | Protocol.Text s -> s

exception Bad_req of string

let required q provided =
  List.mapi
    (fun i _ ->
      match List.nth provided i with
      | Some s -> s
      | None ->
        let n = if i = 0 then "" else string_of_int (i + 1) in
        raise
          (Bad_req (Printf.sprintf "verb %S needs a \"source%s\" or \"file%s\" field" (name q) n n)))
    q.sources

(* The one exception table: error code, message, and whether the message
   names its own kind (the CLI prints the others after "error: "). It is
   total, so neither surface ever reports a bare uncaught exception. *)
let describe = function
  | Bad_req msg | Render.Bad_flag msg -> (Protocol.Bad_request, false, msg)
  | Pperf_backend.Pipeline.Livelock { cycle; unissued } ->
    ( Protocol.Failed,
      false,
      Printf.sprintf
        "pipeline schedule livelocked after %d cycles with %d operation(s) unissued" cycle
        unissued )
  | Parser.Error (msg, loc) ->
    (Protocol.Parse_error, true, Printf.sprintf "parse error at %s: %s" (Srcloc.to_string loc) msg)
  | Typecheck.Type_error (msg, loc) ->
    (Protocol.Type_error, true, Printf.sprintf "type error at %s: %s" (Srcloc.to_string loc) msg)
  | Pperf_exec.Interp.Runtime_error (msg, loc) ->
    (Protocol.Failed, true, Printf.sprintf "runtime error at %s: %s" (Srcloc.to_string loc) msg)
  | Descr.Parse_error msg -> (Protocol.Machine_error, true, "machine description error: " ^ msg)
  | Machine.Unknown_atomic { machine; op } ->
    ( Protocol.Machine_error,
      false,
      Printf.sprintf "machine %s has no atomic operation %s" machine op )
  | Failure msg | Sys_error msg -> (Protocol.Failed, false, msg)
  | e -> (Protocol.Internal, false, "uncaught exception: " ^ Printexc.to_string e)

let error_of_exn e =
  let code, _, msg = describe e in
  (code, msg)

let cli_message e =
  match describe e with _, true, msg -> msg | _, false, msg -> "error: " ^ msg
