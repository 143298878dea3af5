(* Query options shared by the CLI subcommands and the server verbs —
   one record, and one row per field naming its CLI spellings, JSON key,
   doc string and value kind. The CLI derives its flags from the rows,
   Protocol.parse_flags folds over them, and the result-cache key renders
   them, so a field cannot be spelled, parsed or keyed differently on the
   two surfaces. *)

type t = {
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

let default =
  {
    memory = false;
    ranges = false;
    interproc = false;
    strict = false;
    json = false;
    trace = false;
    eval = [];
    range = [];
    domain = None;
  }

type 'a kind =
  | Bool : bool kind
  | Strings : { docv : string; check : string -> (unit, string) result } -> string list kind
  | Choice : { docv : string; choices : string list } -> string option kind

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

let row key names kind doc get set = Flag { key; names; doc; kind; get; set }

let checked parse s =
  match parse [ s ] with _ -> Ok () | exception Render.Bad_flag m -> Error m

(* the rows, one per field of [t], in canonical order; list values are
   checked by the functions that consume them, so the CLI rejects at parse
   time exactly what the server rejects at run time *)
module Flag = struct
  let memory =
    row "memory" [ "memory" ] Bool "Include the cache cost model."
      (fun o -> o.memory) (fun o memory -> { o with memory })

  let ranges =
    row "ranges" [ "ranges" ] Bool
      "Run the interval abstract interpretation first and use the inferred \
       variable ranges (tighter trip counts, statically decided comparisons, \
       fewer false positives)."
      (fun o -> o.ranges) (fun o ranges -> { o with ranges })

  let interproc =
    row "interproc" [ "interprocedural"; "i" ] Bool
      "Charge call sites with callee performance expressions (§3.5)."
      (fun o -> o.interproc) (fun o interproc -> { o with interproc })

  let strict =
    row "strict" [ "strict" ] Bool
      "Treat binding mismatches (unbound or unused variable names) as errors."
      (fun o -> o.strict) (fun o strict -> { o with strict })

  let json =
    row "json" [ "json" ] Bool "Emit the result as JSON instead of text."
      (fun o -> o.json) (fun o json -> { o with json })

  let trace =
    row "trace" [ "trace" ] Bool
      "Append a JSON span tree of the evaluation: per-phase (parse, typecheck, \
       aggregate, ...) wall time with self/total split."
      (fun o -> o.trace) (fun o trace -> { o with trace })

  let eval =
    row "eval" [ "eval"; "bind" ]
      (Strings { docv = "VAR=VALUE"; check = checked Render.parse_bindings })
      "Evaluate the expression at VAR=VALUE (repeatable). --bind is a synonym."
      (fun o -> o.eval) (fun o eval -> { o with eval })

  let range =
    row "range" [ "range" ]
      (Strings { docv = "VAR=LO:HI"; check = checked Render.range_env })
      "Range of an unknown: VAR=LO:HI (repeatable)."
      (fun o -> o.range) (fun o range -> { o with range })

  let domain =
    row "domain" [ "domain" ]
      (Choice { docv = "DOMAIN"; choices = Pperf_absint.Absint.all_domains })
      "Abstract domain for the range analysis: $(b,interval) (the default), \
       $(b,octagon) (difference constraints ±x ± y <= c), $(b,affine) (exact \
       equalities x = Σ aᵢ·yᵢ + c), or $(b,product) (both with mutual \
       reduction). Relational domains decide comparisons and rebut \
       diagnostics that intervals alone cannot."
      (fun o -> o.domain) (fun o domain -> { o with domain })

  let all = [ memory; ranges; interproc; strict; json; trace; eval; range; domain ]
end

(* every field, fixed order: two option sets share a cache entry iff
   their canonical strings agree; an absent choice renders as the first
   (default) one *)
let to_canonical_string o =
  String.concat ","
    (List.map
       (fun (Flag f) ->
         let value : string =
           match f.kind with
           | Bool -> string_of_bool (f.get o)
           | Strings _ -> "[" ^ String.concat ";" (f.get o) ^ "]"
           | Choice { choices; _ } -> Option.value (f.get o) ~default:(List.hd choices)
         in
         f.key ^ "=" ^ value)
       Flag.all)

let domain f =
  Option.bind f.domain Pperf_absint.Absint.domain_of_string
  |> Option.value ~default:Pperf_absint.Absint.Box

(* a relational domain is read only through the range analysis, so
   choosing one implies --ranges, as it does for lint and compare *)
let to_aggregate f =
  let range_domain = domain f in
  {
    Pperf_core.Aggregate.default_options with
    include_memory = f.memory;
    infer_ranges = f.ranges || range_domain <> Pperf_absint.Absint.Box;
    range_domain;
  }
