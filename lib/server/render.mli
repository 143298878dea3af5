(** Renderers for the query verbs.

    {!Query}'s rows call these, and the one-shot CLI subcommands and the
    server verbs both run those rows, so a server response's [output]
    field is byte-identical to the CLI's stdout for the same machine,
    source, and flags — by construction, not by parallel maintenance of
    two formatting paths. A JSON rendering is built as a {!Json.t} and
    printed by {!Json.to_string}, on one line. *)

open Pperf_lang
open Pperf_machine
open Pperf_core

exception Bad_flag of string
(** A malformed [--eval]/[--bind]/[--range] value. The server maps it to a
    structured [bad_request] response; the CLI's cmdliner converters call
    {!parse_bindings} and {!range_env} on each value at parse time, so
    there it is a usage error instead. *)

val parse_bindings : string list -> (string * float) list
(** ["VAR=VALUE"] specs to bindings. @raise Bad_flag on malformed specs. *)

val range_env : string list -> Pperf_symbolic.Interval.Env.t
(** ["VAR=LO:HI"] specs to an interval environment.
    @raise Bad_flag on malformed specs. *)

val predict :
  ?predictor:(Typecheck.checked -> Aggregate.prediction) ->
  machine:Machine.t ->
  options:Aggregate.options ->
  interproc:bool ->
  strict:bool ->
  evals:string list ->
  warn:(string -> unit) ->
  string ->
  string
(** Render the prediction report for a program source. [predictor]
    substitutes for [Aggregate.routine ~machine ~options] in the
    intraprocedural path (the server passes its incremental engine);
    it must produce bit-identical predictions. *)

val compare :
  ?domain:Pperf_absint.Absint.domain ->
  machine:Machine.t ->
  options:Aggregate.options ->
  use_ranges:bool ->
  ranges:string list ->
  string ->
  string ->
  string
(** [compare ~machine ~options ~use_ranges ~ranges src1 src2]. A relational
    [domain] (default [Box]) implies range inference, prints the joined
    whole-routine relations, and feeds them to the decision procedure. *)

val bounds :
  machine:Machine.t -> memory:bool -> json:bool -> evals:string list -> string -> string
(** The three-bound summary (bin-packing vs critical-path/LCD vs memory)
    of every loop nest of every routine, text or JSON. [memory] folds the
    cache-line bound in; [evals] moves the classification's evaluation
    point (unbound unknowns default to 256). *)

val ranges : ?domain:Pperf_absint.Absint.domain -> json:bool -> string -> string
(** Under a relational [domain] the JSON gains a top-level ["domain"] key
    and per-routine ["relations"] / ["summary_relations"]; with the default
    [Box] the output is byte-identical to the historical format. *)

val lint :
  ?domain:Pperf_absint.Absint.domain ->
  json:bool ->
  use_ranges:bool ->
  string ->
  string * int
(** Returns the rendered report and the lint exit code. A relational
    [domain] implies [use_ranges]. *)

val trace_json : Pperf_obs.Obs.Trace.node -> Json.t
(** A span tree as [{"name":..,"total_ns":..,"self_ns":..,"children":[..]}]:
    the CLI's [--trace] line and the server's [trace] field. *)

val machines : dir:string -> unit -> string
(** One table of every known machine: the builtins plus each [.pmach]
    file of [dir] ({!Query.machines_dir} unless the CLI's [--dir] says
    otherwise) — name, cost-model kind
    ([classic]/[ports]), unit/port count, issue width, and provenance.
    Unreadable description files become one diagnostic line each instead
    of failing the whole listing. *)

val schedule : machine:Machine.t -> string -> string
(** Every innermost loop body of every routine, translated to atomic
    operations and dropped into the Tetris bins: the DAG, the bin chart,
    and its cost beside the critical path, the operation count and the
    pipeline reference. A body with control flow in it gets one line
    naming where, since it has no single schedule. *)

val report :
  machine:Machine.t -> options:Aggregate.options -> ranges:string list -> string -> string
(** {!Pperf_core.Report} of every routine; [ranges] (["VAR=LO:HI"]) bound
    the unknowns for the sensitivity samples. *)

val deps : string -> string
(** The data dependences of every routine and the interchange legality
    of each perfect nest. *)

val run : machine:Machine.t -> evals:string list -> string -> string
(** Interpret the program's first unit at the [evals] bindings (the other
    units are its callees), print the dynamic cycle count and profile,
    and set beside them its static prediction at the same bindings,
    predicted interprocedurally so calls cost what their callees do.
    @raise Pperf_exec.Interp.Runtime_error when the run fails. *)

val search : machine:Machine.t -> options:Aggregate.options -> string -> string
(** Performance-guided restructuring of the source's routine: an A*
    search over transformation sequences, scored by the predictor, within
    150 states and 3 transformations. Prints the states explored, the
    sequence applied, the predicted cost before and after, the reorderings
    refused by a carried dependence with the diagnostic that says why, and
    the best variant. *)
