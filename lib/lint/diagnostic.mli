(** Structured static-analysis diagnostics for PF programs.

    The paper's framework is precise only while its static analyses hold:
    affine subscripts, decidable branches, known trip counts. Each
    diagnostic is a machine-checkable account of one place where a check
    found a defect ([Error]/[Warning]), where the analyzer's assumptions
    degrade the prediction ([Precision]), or where the code could be
    tightened ([Hint]). *)

open Pperf_lang

type severity =
  | Error  (** the program is wrong (out-of-bounds, zero step, ...) *)
  | Warning  (** likely wrong or meaningless (use before def, dead branch) *)
  | Precision  (** the prediction silently became conservative here *)
  | Hint  (** informational (dead store, carried dependence, ...) *)

type t = {
  severity : severity;
  check : string;  (** stable check identifier, e.g. ["oob-subscript"] *)
  loc : Srcloc.t;
  message : string;
  fix : string option;  (** optional remediation hint *)
}

val make : ?fix:string -> severity -> check:string -> loc:Srcloc.t -> string -> t

val severity_to_string : severity -> string

val max_severity : t list -> severity option

val exit_code : t list -> int
(** Shell convention for the [lint] subcommand: 2 when any [Error], 1 when
    any [Warning], 0 otherwise ([Precision] and [Hint] are informational). *)

val compare : t -> t -> int
(** Source order (line, then column), then decreasing severity, then check
    id — the order reports print in. *)

val pp_short : Format.formatter -> t -> unit
(** [LINE:COL severity[check] message] on one line, no fix hint. *)

val pp : Format.formatter -> t -> unit
(** {!pp_short}, plus a [fix:] line when present. *)
