(** The JSON-lines request/response protocol spoken by [ppredict batch]
    and [ppredict serve].

    One request object per input line; one response object per output
    line, in request order. The query verbs are the rows of {!Query}:
    [predict], [compare], [ranges], [lint], [bounds], [schedule],
    [report], [deps], [run] and [search] (restructure the source by A*
    search) carry a source (inline text or a file path), a machine spec
    and CLI-mirroring flags; [machines] (list known machines),
    [calibrate] (fit a ports cost model to the request's machine by
    measurement) and [machine] (print the request's machine description)
    take no source. Every query verb is cached, and its
    [output] field is byte-identical to the one-shot CLI subcommand's
    stdout. Control verbs: [ping], [stats], [metrics], [shutdown].

    {b Versioning.} Requests may carry an optional top-level [{"v": 1}]
    field; absent means version 1. Any other value is a [bad_request].
    Unknown top-level fields are a [bad_request] under [flags.strict] and
    a response warning otherwise, so old servers fail loudly (or at least
    visibly) on newer clients. *)

type verb =
  | Predict | Compare | Ranges | Lint | Bounds | Machines | Calibrate
  | Schedule | Report | Deps | Run | Machine | Search
  | Ping | Stats | Metrics | Shutdown

val all_verbs : verb list
(** Every verb of the protocol, query verbs first. *)

val verb_string : verb -> string

type source = File of string | Text of string

type flags = Options.t = {
  memory : bool;  (** include the cache cost model (CLI [--memory]) *)
  ranges : bool;  (** interval analysis first (CLI [--ranges]) *)
  interproc : bool;  (** call-site charging (CLI [-i], predict only) *)
  strict : bool;  (** binding/protocol mismatches are errors (CLI [--strict]) *)
  json : bool;  (** JSON output for [ranges]/[lint] (CLI [--json]) *)
  trace : bool;  (** append the span tree of the evaluation (CLI [--trace]) *)
  eval : string list;  (** [VAR=VALUE] bindings (CLI [--eval]) *)
  range : string list;  (** [VAR=LO:HI] ranges (CLI [--range], compare only) *)
  domain : string option;
      (** abstract domain for range analysis (CLI [--domain]); validated
          against {!Pperf_absint.Absint.all_domains} at parse time *)
}

val default_flags : flags

type request = {
  id : Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  verb : verb;
  machine : string;  (** builtin name or .pmach path; default ["power1"] *)
  source : source option;
  source2 : source option;  (** second variant, [compare] only *)
  flags : flags;
  deadline_ms : float option;
      (** budget from the moment the server reads the request: requests
          still queued past it are rejected with [deadline_exceeded];
          responses finishing past it carry [deadline_missed] *)
  proto_warnings : string list;
      (** non-strict protocol diagnoses (unknown top-level fields),
          surfaced in the response's [warnings] *)
}

type error_code =
  | Bad_json  (** the line is not valid JSON *)
  | Unknown_verb
  | Bad_request  (** well-formed JSON, ill-formed request *)
  | Oversized  (** line longer than the server's request budget *)
  | Parse_error  (** PF source failed to parse *)
  | Type_error  (** PF source failed to typecheck *)
  | Machine_error  (** unknown machine, bad description, missing atomic *)
  | Deadline_exceeded
  | Overloaded
      (** admission control shed the request (fleet queue full); the
          response carries a [retry_after_ms] hint *)
  | Failed  (** the analysis itself reported an error ([Failure]) *)
  | Internal  (** anything else; the server stays up *)

val error_code_string : error_code -> string

val request_of_json : Json.t -> (request, error_code * string) result
val request_of_line : string -> (request, error_code * string) result

val flags_key : flags -> string
(** Canonical flag rendering used in the result-cache key; an alias for
    {!Options.to_canonical_string}. *)

type timing = { queue_ns : int; eval_ns : int }

type response =
  | Ok_response of {
      id : Json.t;
      verb : verb;
      status : int;  (** the one-shot CLI's exit code (lint: 0/1/2) *)
      cached : bool;
      deadline_missed : bool;
      warnings : string list;  (** what the CLI would print to stderr *)
      output : string;  (** byte-identical to the CLI subcommand's stdout *)
      stats : Json.t option;  (** [stats] verb payload, replaces [output] *)
      trace : Json.t option;  (** span tree, present iff [flags.trace] *)
      timing : timing;
    }
  | Err_response of {
      id : Json.t;
      code : error_code;
      message : string;
      retry_after_ms : int option;
          (** rendered as ["retry_after_ms"] in the error object; only
              admission-control rejections set it *)
    }

val ok :
  ?status:int ->
  ?cached:bool ->
  ?deadline_missed:bool ->
  ?warnings:string list ->
  ?stats:Json.t ->
  ?trace:Json.t ->
  id:Json.t ->
  verb:verb ->
  timing:timing ->
  string ->
  response

val err : ?retry_after_ms:int -> id:Json.t -> error_code -> string -> response
val response_line : response -> string
