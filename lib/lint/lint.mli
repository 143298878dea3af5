(** Running the diagnostic registry over routines and programs, and the
    text rendering the [ppredict lint] subcommand emits. The reports are
    plain values; [lint --json] is built from them in [lib/server]. *)

open Pperf_lang

type report = {
  routine : string;
  diagnostics : Diagnostic.t list;  (** in {!Diagnostic.compare} order *)
}

val run_checked :
  ?known:(string -> bool) ->
  ?ranges:bool ->
  ?domain:Pperf_absint.Absint.domain ->
  Typecheck.checked ->
  Diagnostic.t list
(** Every registry check over one routine. [known] marks routine names
    with a known cost (defaults to none). [ranges] (default false) runs
    the interval abstract interpretation first and hands the result to the
    checks: fewer out-of-bounds / div-by-zero false positives, dependence
    tests with variable ranges, and the [constant-condition] check.
    [domain] selects the abstract domain of that analysis — relational
    domains rebut further false positives (an [i + 1 <= n] guard inside an
    [i = 1..n] loop proves a subscript in range). *)

val run_program :
  ?ranges:bool -> ?domain:Pperf_absint.Absint.domain -> Typecheck.checked list -> report list
(** Routines defined in the program are [known] to each other. *)

val run_source :
  ?ranges:bool -> ?domain:Pperf_absint.Absint.domain -> string -> report list
(** Parse, check, lint. @raise Parser.Error / Typecheck.Type_error *)

val precision : Diagnostic.t list -> Diagnostic.t list
(** Only the [Precision] diagnostics — the subset predictions carry. *)

val run_precision : Typecheck.checked -> Diagnostic.t list
(** [precision (run_checked ?ranges ?domain c)] for every [ranges] and
    [domain], computed by the checks whose {!Checks.check.emits} tags
    include [Precision] alone, under {!Checks.default_ctx}: none of them
    reads the abstract interpretation, so neither the dependence tests nor
    the interpretation run. *)

val dedupe : Diagnostic.t list -> Diagnostic.t list
(** Sort and drop diagnostics that repeat an earlier (check, location)
    pair — used when merging aggregation events with lint passes. *)

val all_diagnostics : report list -> Diagnostic.t list
val exit_code : report list -> int

val pp : Format.formatter -> report list -> unit
