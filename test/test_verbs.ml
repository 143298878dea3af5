(* CLI ≡ server, driven by the verb table. For every row of Query.all,
   over the shipped samples, with default flags and with each of the
   row's flags turned on once, run the built ppredict subcommand and,
   while it runs, the server verb on one engine, and check that the
   response's output is the CLI's stdout, its status the CLI's exit code
   and its warnings the CLI's "warning: " lines (or, on failure, that the
   CLI printed the response's error message and exited 1, and that the
   error is not an uncaught exception), and that a repeat is served from
   the result cache with the same bytes. A row that never reads the machine leaves it out
   of the cache key, so its answer on a second machine already comes from
   the cache, with the first machine's bytes. A --json answer must be
   the line Json.to_string prints for the value it parses to.
   The argv and the request both come from the table's rows, so a verb or
   flag added there is covered here without editing this file. --trace
   and --stats are left out: they carry timings.

   The zero-source verbs also run on a machine whose calibration misses
   the default tolerance, so calibrate's failure status is compared too.

   Run with PPREDICT naming the ppredict executable (test/dune does). *)

open Pperf_server

let ppredict =
  match Sys.getenv_opt "PPREDICT" with
  | Some p when Filename.is_relative p -> Filename.concat (Sys.getcwd ()) p
  | Some p -> p
  | None -> failwith "set PPREDICT to the ppredict executable"

let log_dir = Filename.concat (Sys.getcwd ()) "_build/_tests"

(* work from the workspace root, where samples/ and machines/ are: the
   relative paths of the requests and of the machines listing resolve the
   same for the CLI child and for the in-process engine *)
let () = if not (Sys.file_exists "samples") then Sys.chdir ".."

let samples =
  Sys.readdir "samples" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pf")
  |> List.sort compare
  |> List.map (Filename.concat "samples")

let sample n = Filename.concat "samples" (n ^ ".pf")

(* power1x2 with an extra floating-point unit and skewed fadd/fmul
   costs: the fitted ports model misses it by 50% *)
let misfit_machine =
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec at i = if String.sub s i n = sub then i else at (i + 1) in
    let i = at 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let text =
    In_channel.with_open_bin "machines/power1x2.pmach" In_channel.input_all
    |> replace ~sub:"(FPU0 fpu)" ~by:"(FPU0 fpu) (FPU2 fpu)"
    |> replace ~sub:"(fadd (FPU0 1 1))" ~by:"(fadd (FPU0 1 5) (LSU0 2 0))"
    |> replace ~sub:"(fmul (FPU0 1 1))" ~by:"(fmul (FPU0 3 2) (FXU0 1 3))"
  in
  let path = Filename.temp_file "misfit" ".pmach" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  at_exit (fun () -> Sys.remove path);
  path

(* the source sets and machines a row runs on, by its source count *)
let inputs (q : Query.t) =
  match List.length q.sources with
  | 0 -> List.map (fun m -> (Some m, [])) [ "scalar"; misfit_machine ]
  | 1 -> List.map (fun f -> (None, [ f ])) samples
  | 2 ->
    [ (None, [ sample "daxpy"; sample "jacobi" ]); (None, [ sample "divloop"; sample "mulloop" ]) ]
  | n -> Alcotest.failf "no source sets for a %d-source verb" n

(* a flag turned on: its CLI arguments and its JSON flags member *)
let turned_on (Options.Flag f) =
  let spelling = List.hd f.names in
  let opt = if String.length spelling = 1 then "-" ^ spelling else "--" ^ spelling in
  match f.kind with
  | Options.Bool -> ([ opt ], [ (f.key, Json.Bool true) ])
  | Options.Strings { docv; _ } ->
    let v =
      match docv with
      | "VAR=VALUE" -> "n=100"
      | "VAR=LO:HI" -> "n=1:100"
      | d -> Alcotest.failf "no example value for %s" d
    in
    ([ opt; v ], [ (f.key, Json.List [ Json.String v ]) ])
  | Options.Choice { choices; _ } ->
    let v = List.nth choices (List.length choices - 1) in
    ([ opt ^ "=" ^ v ], [ (f.key, Json.String v) ])

let timed (Options.Flag f) = f.key = "trace"

(* every case of a row: the CLI argv and the same query as a request *)
let cases (q : Query.t) =
  let variants =
    ([], []) :: List.filter_map (fun f -> if timed f then None else Some (turned_on f)) q.flags
  in
  List.concat_map
    (fun (machine, files) ->
      List.map
        (fun (args, flags) ->
          let m_option, m_positional =
            match (machine, q.machine) with
            | Some m, Query.Machine_option -> ([ "-m"; m ], [])
            | Some m, Query.Machine_positional -> ([], [ m ])
            | _ -> ([], [])
          in
          let file i f = ((if i = 0 then "file" else Printf.sprintf "file%d" (i + 1)), Json.String f) in
          let fields =
            (("verb", Json.String (Query.name q))
            :: Option.to_list (Option.map (fun m -> ("machine", Json.String m)) machine))
            @ List.mapi file files
            @ if flags = [] then [] else [ ("flags", Json.Obj flags) ]
          in
          ((Query.name q :: m_option) @ args @ files @ m_positional, Json.Obj fields))
        variants)
    (inputs q)

type cli = { stdout : string; stderr : string; code : int }

(* start the ppredict child; the function returned waits for it and
   reads what it printed *)
let spawn argv =
  let out = Filename.temp_file "verbs" ".out" and err = Filename.temp_file "verbs" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fo = fd out and fe = fd err in
  let pid = Unix.create_process ppredict (Array.of_list (ppredict :: argv)) Unix.stdin fo fe in
  Unix.close fo;
  Unix.close fe;
  fun () ->
    let code =
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED c -> c
      | _ -> Alcotest.failf "ppredict %s died on a signal" (String.concat " " argv)
    in
    let read path =
      let s = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      s
    in
    let stdout = read out in
    { stdout; stderr = read err; code }

let cli argv = spawn argv ()

let engine = Engine.create ~jobs:1 ()

let handle request =
  match Protocol.request_of_json request with
  | Ok r -> Engine.handle engine ~received:(Unix.gettimeofday ()) r
  | Error (_, m) -> Alcotest.failf "request %s rejected: %s" (Json.to_string request) m

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let warning_prefix = "warning: "

let is_warning l =
  String.length l >= String.length warning_prefix
  && String.sub l 0 (String.length warning_prefix) = warning_prefix

(* [cached_as]: the output of the same request answered earlier on
   another machine, when the row leaves the machine out of its cache key *)
let check_case ?cached_as (argv, request) =
  let what = "ppredict " ^ String.concat " " argv in
  (* the engine answers while the child runs *)
  let wait = spawn argv in
  let first, repeat =
    try
      let first = handle request in
      (first, handle request)
    with e ->
      ignore (wait ());
      raise e
  in
  let c = wait () in
  match (first, repeat) with
  | Protocol.Ok_response r, Protocol.Ok_response r2 ->
    let warnings, other = List.partition is_warning (lines c.stderr) in
    let drop l = String.sub l (String.length warning_prefix) (String.length l - String.length warning_prefix) in
    Alcotest.(check string) (what ^ ": output = stdout") c.stdout r.output;
    Alcotest.(check int) (what ^ ": status = exit code") c.code r.status;
    Alcotest.(check (list string)) (what ^ ": warnings = stderr") (List.map drop warnings) r.warnings;
    Alcotest.(check (list string)) (what ^ ": nothing else on stderr") [] other;
    if Option.bind (Json.member "flags" request) (Json.member "json") = Some (Json.Bool true) then
      Alcotest.(check string) (what ^ ": stdout is Json's encoding")
        (Json.to_string (Json.of_string c.stdout) ^ "\n")
        c.stdout;
    (match cached_as with
     | None -> Alcotest.(check bool) (what ^ ": first answer evaluated") false r.cached
     | Some out ->
       Alcotest.(check bool) (what ^ ": cached from another machine") true r.cached;
       Alcotest.(check string) (what ^ ": that machine's bytes") out r.output);
    Alcotest.(check bool) (what ^ ": repeat cached") true r2.cached;
    Alcotest.(check string) (what ^ ": repeat output") r.output r2.output;
    Alcotest.(check int) (what ^ ": repeat status") r.status r2.status;
    Alcotest.(check (list string)) (what ^ ": repeat warnings") r.warnings r2.warnings;
    Some r.output
  | Protocol.Err_response e, Protocol.Err_response e2 ->
    if e.code = Protocol.Internal then Alcotest.failf "%s: internal error: %s" what e.message;
    Alcotest.(check string) (what ^ ": no stdout on error") "" c.stdout;
    Alcotest.(check int) (what ^ ": exit 1 on error") 1 c.code;
    Alcotest.(check bool) (what ^ ": stderr carries the error message") true
      (List.mem (lines c.stderr) [ [ e.message ]; [ "error: " ^ e.message ] ]);
    Alcotest.(check string) (what ^ ": repeat fails alike") e.message e2.message;
    None
  | _ ->
    Alcotest.failf "%s: answered %s then %s" what (Protocol.response_line first)
      (Protocol.response_line repeat)

let test_row (q : Query.t) () =
  let answered = Hashtbl.create 8 in
  List.iter
    (fun ((_, request) as case) ->
      let key =
        match request with
        | Json.Obj fields when q.machine = Query.No_machine ->
          Json.to_string (Json.Obj (List.remove_assoc "machine" fields))
        | _ -> Json.to_string request
      in
      let output = check_case ?cached_as:(Hashtbl.find_opt answered key) case in
      Option.iter (Hashtbl.replace answered key) output)
    (cases q)

(* the misfit fixture must keep exercising calibrate's failure status *)
let test_misfit_fails () =
  let c = cli [ "calibrate"; "-m"; misfit_machine ] in
  Alcotest.(check int) "calibrate exits 1 on the misfit machine" 1 c.code

let () =
  Alcotest.run ~log_dir "verbs"
    [ ( "parity",
        List.map (fun q -> Alcotest.test_case (Query.name q) `Quick (test_row q)) Query.all );
      ("fixtures", [ Alcotest.test_case "misfit calibration fails" `Quick test_misfit_fails ]) ]
