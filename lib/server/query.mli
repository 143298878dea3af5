(** The query verbs: one row per verb, the only place a verb is described.

    The CLI builds one subcommand per row and the server answers the verb
    of the same name; both call {!run}. What is left between them is
    transport: the CLI prints a payload's warnings to stderr as
    [warning: ...] lines and its output to stdout, and exits with its
    status; the server puts the three in a response. Failures go through
    one exception table, read by {!error_of_exn} and {!cli_message}. *)

open Pperf_lang
open Pperf_machine
open Pperf_core

type payload = { output : string; warnings : string list; status : int }
(** [status] is the CLI's exit code (lint: 0/1/2; calibrate: 1 when the
    fit misses its tolerance). *)

(** How a verb takes its machine. A server request names it in its
    [machine] field whatever the case. *)
type machine_arg =
  | No_machine
      (** the verb never reads the machine, so the result-cache key
          leaves it out *)
  | Machine_option  (** the CLI offers [-m MACHINE] *)
  | Machine_positional
      (** the CLI takes an optional [MACHINE] argument after the
          sources ([ppredict machine scalar]) *)

type t = {
  verb : Protocol.verb;
  doc : string;  (** the CLI subcommand's description *)
  sources : string list;  (** one CLI metavariable per PF source taken *)
  machine : machine_arg;
  stats : bool;  (** the CLI offers [--stats] *)
  flags : Options.flag list;  (** the options the CLI offers *)
  inputs : unit -> string;
      (** what the verb reads besides its sources and machine, for the
          result-cache key ([""] except for [machines]) *)
  render :
    ?predictor:(Typecheck.checked -> Aggregate.prediction) ->
    warn:(string -> unit) ->
    Options.t ->
    Machine.t ->
    string list ->
    string * int;  (** output and status; call it through {!run} *)
}

val name : t -> string

val machines_dir : string
(** ["machines"], the directory [machines] lists unless the CLI's
    [--dir] says otherwise. *)

val machines : ?dir:string -> unit -> t

val calibrate : ?tolerance:float -> ?out:string -> unit -> t
(** [tolerance] and [out] are the CLI's [--tolerance] and [--out]. *)

val all : t list
(** Every query verb, with the server's defaults. *)

val find : Protocol.verb -> t option
(** [None] for the control verbs. *)

val run :
  ?predictor:(Typecheck.checked -> Aggregate.prediction) ->
  t ->
  Options.t ->
  Machine.t ->
  string list ->
  payload
(** [run q options machine sources], one source text per entry of
    [q.sources]. [predictor] replaces [Aggregate.routine] in [predict]
    (the server passes its incremental predictor) and must give
    bit-identical predictions. *)

val source_text : Protocol.source -> string

exception Bad_req of string

val required : t -> string option list -> string list
(** A request's [source]/[source2] texts, one per entry of [q.sources].
    @raise Bad_req naming a missing field. *)

val error_of_exn : exn -> Protocol.error_code * string
(** The exception table. It is total: anything unforeseen is [Internal]. *)

val cli_message : exn -> string
(** The same message as the CLI prints it: after ["error: "] unless it
    names its own kind ([parse error at ...] and the like). *)
