(** The one set of query options shared by the CLI subcommands and the
    server verbs.

    Each field is described once, by a {!flag} row in {!Flag}: its CLI
    spellings, its JSON key in a request's [flags] object, its doc string
    and its value kind. [bin/ppredict] builds its cmdliner flags from the
    rows, {!Protocol} parses request flags by folding over them, and the
    result-cache key ({!to_canonical_string}) renders them — so a field
    added here reaches both surfaces and the cache identity at once. *)

type t = {
  memory : bool;  (** include the cache cost model (CLI [--memory]) *)
  ranges : bool;  (** interval analysis first (CLI [--ranges]) *)
  interproc : bool;  (** call-site charging (CLI [-i], predict only) *)
  strict : bool;  (** binding/protocol mismatches are errors (CLI [--strict]) *)
  json : bool;  (** JSON output for [ranges]/[lint]/[bounds] (CLI [--json]) *)
  trace : bool;  (** capture and append the span tree (CLI [--trace]) *)
  eval : string list;  (** [VAR=VALUE] bindings (CLI [--eval]) *)
  range : string list;  (** [VAR=LO:HI] ranges (CLI [--range], compare only) *)
  domain : string option;
      (** abstract domain for the range analysis (CLI [--domain]);
          [None] means interval. Part of the canonical string, so an
          octagon answer is never served from an interval cache entry. *)
}

val default : t

(** How a field's value is spelled on each surface. *)
type 'a kind =
  | Bool : bool kind  (** a CLI switch; a JSON boolean *)
  | Strings : { docv : string; check : string -> (unit, string) result } -> string list kind
      (** a repeatable CLI option; a JSON list of strings. [check] runs
          the parser that consumes the value ({!Render.parse_bindings},
          {!Render.range_env}) on it: the CLI rejects at parse time what
          the server rejects at run time, with the same message. *)
  | Choice : { docv : string; choices : string list } -> string option kind
      (** one of [choices], the first being the default; a JSON string *)

(** One field of {!t}: [key] in JSON, [names] on the command line. *)
type flag =
  | Flag : {
      key : string;
      names : string list;
      doc : string;
      kind : 'a kind;
      get : t -> 'a;
      set : t -> 'a -> t;
    }
      -> flag

(** The rows, named after their fields; [all] in canonical order. *)
module Flag : sig
  val memory : flag
  val ranges : flag
  val interproc : flag
  val strict : flag
  val json : flag
  val trace : flag
  val eval : flag
  val range : flag
  val domain : flag
  val all : flag list
end

val to_canonical_string : t -> string
(** Canonical rendering of every field in a fixed order: two option sets
    share a result-cache entry iff their canonical strings agree. *)

val domain : t -> Pperf_absint.Absint.domain
(** The parsed {!Pperf_absint.Absint.domain}; unknown or absent spellings
    fall back to [Box] (validation happens at the surfaces). *)

val to_aggregate : t -> Pperf_core.Aggregate.options
(** The {!Pperf_core.Aggregate.options} these flags select. A relational
    [domain] implies [ranges]. *)
