(* The JSON-lines request/response protocol of `ppredict batch` and
   `ppredict serve`. One request object per line in; one response object
   per line out, emitted in request order. See README "Prediction
   service" for the schema.

   Wire versioning: requests may carry "v": 1 (the only version so far;
   absent means 1). Unknown top-level fields are rejected with a
   structured bad_request under flags.strict and warned about otherwise,
   so clients probing a future field learn about it instead of being
   silently ignored. *)

type verb =
  | Predict | Compare | Ranges | Lint | Bounds | Machines | Calibrate
  | Schedule | Report | Deps | Run | Machine | Search
  | Ping | Stats | Metrics | Shutdown

let protocol_version = 1

let verb_string = function
  | Predict -> "predict"
  | Compare -> "compare"
  | Ranges -> "ranges"
  | Lint -> "lint"
  | Bounds -> "bounds"
  | Machines -> "machines"
  | Calibrate -> "calibrate"
  | Schedule -> "schedule"
  | Report -> "report"
  | Deps -> "deps"
  | Run -> "run"
  | Machine -> "machine"
  | Search -> "search"
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

let all_verbs =
  [ Predict; Compare; Ranges; Lint; Bounds; Machines; Calibrate; Schedule; Report; Deps;
    Run; Machine; Search; Ping; Stats; Metrics; Shutdown ]

let verb_of_string s = List.find_opt (fun v -> verb_string v = s) all_verbs

type source = File of string | Text of string

type flags = Options.t = {
  memory : bool;
  ranges : bool;
  interproc : bool;
  strict : bool;
  json : bool;
  trace : bool;
  eval : string list;
  range : string list;
  domain : string option;
}

let default_flags = Options.default

type request = {
  id : Json.t;
  verb : verb;
  machine : string;
  source : source option;
  source2 : source option;
  flags : flags;
  deadline_ms : float option;
  proto_warnings : string list;
}

type error_code =
  | Bad_json
  | Unknown_verb
  | Bad_request
  | Oversized
  | Parse_error
  | Type_error
  | Machine_error
  | Deadline_exceeded
  | Overloaded
  | Failed
  | Internal

let error_code_string = function
  | Bad_json -> "bad_json"
  | Unknown_verb -> "unknown_verb"
  | Bad_request -> "bad_request"
  | Oversized -> "oversized"
  | Parse_error -> "parse_error"
  | Type_error -> "type_error"
  | Machine_error -> "machine_error"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Failed -> "error"
  | Internal -> "internal"

(* ------------------------------------------------------------- requests *)

let ( let* ) = Result.bind

let strings_of name j =
  match Json.to_list_opt j with
  | Some items when List.for_all (fun x -> Json.to_string_opt x <> None) items ->
    Ok (List.filter_map Json.to_string_opt items)
  | _ -> Error (Bad_request, Printf.sprintf "field %S must be a list of strings" name)

(* a JSON flag value of the row's kind; list values are checked where
   they are used, so a malformed binding is a bad_request either way *)
let flag_value : type a. string -> a Options.kind -> Json.t -> (a, error_code * string) result
    =
 fun key kind j ->
  match kind with
  | Options.Bool -> (
    match Json.to_bool_opt j with
    | Some b -> Ok b
    | None -> Error (Bad_request, Printf.sprintf "flag %S must be a boolean" key))
  | Options.Strings _ -> strings_of key j
  | Options.Choice { choices; _ } -> (
    match Json.to_string_opt j with
    | Some d when List.mem d choices -> Ok (Some d)
    | Some d ->
      Error
        ( Bad_request,
          Printf.sprintf "unknown %s %S (expected one of %s)" key d
            (String.concat ", " choices) )
    | None -> Error (Bad_request, Printf.sprintf "field %S must be a string" key))

let parse_flags obj =
  match Json.member "flags" obj with
  | None -> Ok default_flags
  | Some (Json.Obj _ as f) ->
    List.fold_left
      (fun acc (Options.Flag r) ->
        let* o = acc in
        match Json.member r.key f with
        | None -> Ok o
        | Some j -> Result.map (r.set o) (flag_value r.key r.kind j))
      (Ok default_flags) Options.Flag.all
  | Some _ -> Error (Bad_request, "field \"flags\" must be an object")

let parse_source obj ~file_field ~text_field =
  match (Json.member file_field obj, Json.member text_field obj) with
  | None, None -> Ok None
  | Some _, Some _ ->
    Error
      ( Bad_request,
        Printf.sprintf "give %S or %S, not both" file_field text_field )
  | Some j, None -> (
    match Json.to_string_opt j with
    | Some p -> Ok (Some (File p))
    | None -> Error (Bad_request, Printf.sprintf "field %S must be a string" file_field))
  | None, Some j -> (
    match Json.to_string_opt j with
    | Some s -> Ok (Some (Text s))
    | None -> Error (Bad_request, Printf.sprintf "field %S must be a string" text_field))

(* every top-level field this protocol version understands *)
let known_fields =
  [ "v"; "id"; "verb"; "machine"; "file"; "source"; "file2"; "source2"; "flags";
    "deadline_ms" ]

let request_of_json j =
  match j with
  | Json.Obj fields ->
    let id = Option.value (Json.member "id" j) ~default:Json.Null in
    let* () =
      match Json.member "v" j with
      | None | Some (Json.Int 1) -> Ok ()
      | Some v ->
        Error
          ( Bad_request,
            Printf.sprintf "unsupported protocol version %s (this server speaks v%d)"
              (Json.to_string v) protocol_version )
    in
    let* verb =
      match Json.member "verb" j with
      | None -> Error (Bad_request, "missing \"verb\"")
      | Some v -> (
        match Json.to_string_opt v with
        | None -> Error (Bad_request, "field \"verb\" must be a string")
        | Some s -> (
          match verb_of_string s with
          | Some verb -> Ok verb
          | None -> Error (Unknown_verb, Printf.sprintf "unknown verb %S" s)))
    in
    let* machine =
      match Json.member "machine" j with
      | None -> Ok "power1"
      | Some v -> (
        match Json.to_string_opt v with
        | Some s -> Ok s
        | None -> Error (Bad_request, "field \"machine\" must be a string"))
    in
    let* source = parse_source j ~file_field:"file" ~text_field:"source" in
    let* source2 = parse_source j ~file_field:"file2" ~text_field:"source2" in
    let* flags = parse_flags j in
    let* deadline_ms =
      match Json.member "deadline_ms" j with
      | None -> Ok None
      | Some v -> (
        match Json.to_number_opt v with
        | Some f when f > 0.0 -> Ok (Some f)
        | _ -> Error (Bad_request, "field \"deadline_ms\" must be a positive number"))
    in
    let unknown =
      List.filter_map
        (fun (k, _) -> if List.mem k known_fields then None else Some k)
        fields
    in
    let* proto_warnings =
      match unknown with
      | [] -> Ok []
      | ks ->
        let listed = String.concat ", " (List.map (Printf.sprintf "%S") ks) in
        if flags.strict then
          Error
            ( Bad_request,
              Printf.sprintf "unknown field%s %s (this server speaks protocol v%d)"
                (if List.length ks = 1 then "" else "s")
                listed protocol_version )
        else
          Ok
            [ Printf.sprintf "ignoring unknown field%s %s (protocol v%d)"
                (if List.length ks = 1 then "" else "s")
                listed protocol_version ]
    in
    Ok { id; verb; machine; source; source2; flags; deadline_ms; proto_warnings }
  | _ -> Error (Bad_request, "request must be a JSON object")

let request_of_line line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Error (Bad_json, msg)
  | j -> request_of_json j

let flags_key = Options.to_canonical_string

(* ------------------------------------------------------------ responses *)

type timing = { queue_ns : int; eval_ns : int }

type response =
  | Ok_response of {
      id : Json.t;
      verb : verb;
      status : int;
      cached : bool;
      deadline_missed : bool;
      warnings : string list;
      output : string;
      stats : Json.t option;
      trace : Json.t option;
      timing : timing;
    }
  | Err_response of {
      id : Json.t;
      code : error_code;
      message : string;
      retry_after_ms : int option;
          (** backpressure hint: when the fleet sheds a request
              ([Overloaded]), roughly how long the client should wait
              before retrying *)
    }

let ok ?(status = 0) ?(cached = false) ?(deadline_missed = false) ?(warnings = [])
    ?stats ?trace ~id ~verb ~timing output =
  Ok_response
    { id; verb; status; cached; deadline_missed; warnings; output; stats; trace; timing }

let err ?retry_after_ms ~id code message = Err_response { id; code; message; retry_after_ms }

let response_to_json = function
  | Ok_response r ->
    Json.Obj
      ([ ("id", r.id); ("ok", Json.Bool true); ("verb", Json.String (verb_string r.verb));
         ("status", Json.Int r.status); ("cached", Json.Bool r.cached) ]
      @ (if r.deadline_missed then [ ("deadline_missed", Json.Bool true) ] else [])
      @ (if r.warnings = [] then []
         else [ ("warnings", Json.List (List.map (fun w -> Json.String w) r.warnings)) ])
      @ (match r.stats with Some s -> [ ("stats", s) ] | None -> [ ("output", Json.String r.output) ])
      @ (match r.trace with Some t -> [ ("trace", t) ] | None -> [])
      @ [ ("t", Json.Obj [ ("queue_ns", Json.Int r.timing.queue_ns);
                           ("eval_ns", Json.Int r.timing.eval_ns) ]) ])
  | Err_response r ->
    Json.Obj
      [ ("id", r.id); ("ok", Json.Bool false);
        ("error",
         Json.Obj
           ([ ("code", Json.String (error_code_string r.code));
              ("message", Json.String r.message) ]
           @
           match r.retry_after_ms with
           | Some ms -> [ ("retry_after_ms", Json.Int ms) ]
           | None -> [])) ]

let response_line r = Json.to_string (response_to_json r)
