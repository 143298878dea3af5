open Pperf_lang

type report = { routine : string; diagnostics : Diagnostic.t list }

let run_checked ?known ?(ranges = false) ?domain (c : Typecheck.checked) =
  let ctx =
    {
      Checks.known = (match known with None -> (fun _ -> false) | Some f -> f);
      ranges = (if ranges then Some (Pperf_absint.Absint.analyze ?domain c) else None);
      nests = Some (Analysis.nests c.routine.body);
    }
  in
  List.concat_map (fun (check : Checks.check) -> check.run ctx c) Checks.registry
  |> List.sort Diagnostic.compare

let run_program ?(ranges = false) ?domain (checkeds : Typecheck.checked list) =
  let names = List.map (fun (c : Typecheck.checked) -> c.routine.Ast.rname) checkeds in
  let known f = List.mem f names in
  List.map
    (fun (c : Typecheck.checked) ->
      { routine = c.routine.Ast.rname; diagnostics = run_checked ~known ~ranges ?domain c })
    checkeds

let run_source ?ranges ?domain src =
  run_program ?ranges ?domain (Typecheck.check_program (Parser.parse_program src))

let precision = List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Precision)

let precision_checks =
  List.filter
    (fun (check : Checks.check) -> List.mem Diagnostic.Precision check.emits)
    Checks.registry

(* None of the precision checks reads [ranges], so the default context gives
   what the whole registry would, with or without the abstract
   interpretation. *)
let run_precision ?nests (c : Typecheck.checked) =
  let nests = match nests with Some t -> t | None -> Analysis.nests c.routine.body in
  let ctx = { Checks.default_ctx with nests = Some nests } in
  List.concat_map (fun (check : Checks.check) -> check.run ctx c) precision_checks
  |> precision
  |> List.sort Diagnostic.compare

let dedupe ds =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : Diagnostic.t) ->
      let k = (d.check, d.loc.Srcloc.line, d.loc.Srcloc.col) in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    (List.sort Diagnostic.compare ds)

let all_diagnostics reports = List.concat_map (fun r -> r.diagnostics) reports

let exit_code reports = Diagnostic.exit_code (all_diagnostics reports)

let pp fmt reports =
  List.iter
    (fun r ->
      if r.diagnostics = [] then Format.fprintf fmt "%s: clean@." r.routine
      else (
        Format.fprintf fmt "%s: %d diagnostic%s@." r.routine
          (List.length r.diagnostics)
          (if List.length r.diagnostics = 1 then "" else "s");
        List.iter (fun d -> Format.fprintf fmt "  %a@." Diagnostic.pp d) r.diagnostics))
    reports
