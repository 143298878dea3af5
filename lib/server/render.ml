(* The renderings of the query verbs. Each Query row calls one of these,
   and both the one-shot CLI subcommand and the server verb run that row,
   so a server response's [output] is byte-identical to the CLI's stdout
   by construction (test/test_verbs.ml checks it over the samples). *)

open Pperf_lang
open Pperf_core
module Obs = Pperf_obs.Obs
module Bounds = Pperf_bounds.Bounds

(* one span for the whole rendering of a query verb: in a trace it is the
   parent of the pipeline phase spans (parse, typecheck, aggregate, ...) *)
let sp_render = Obs.span "render"

let with_formatter f =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* a JSON answer is one line *)
let json_line v = Json.to_string v ^ "\n"

let json_strings l = Json.List (List.map (fun s -> Json.String s) l)

let rec trace_json (n : Obs.Trace.node) =
  Json.Obj
    [ ("name", Json.String n.name); ("total_ns", Json.Int n.total_ns);
      ("self_ns", Json.Int n.self_ns);
      ("children", Json.List (List.map trace_json n.children)) ]

exception Bad_flag of string
(* A malformed --eval/--bind/--range value: a cmdliner usage error at the
   CLI (its converters call the two parsers below), a structured
   bad_request at the server. *)

let parse_bindings specs =
  List.map
    (fun s ->
      match String.index_opt s '=' with
      | Some i -> (
        let value = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt value with
        | Some f -> (String.sub s 0 i, f)
        | None ->
          raise
            (Bad_flag
               (Printf.sprintf "malformed binding '%s': '%s' is not a number" s value)))
      | None ->
        raise
          (Bad_flag (Printf.sprintf "malformed binding '%s': expected VAR=VALUE" s)))
    specs

let range_env specs =
  List.fold_left
    (fun env spec ->
      match String.split_on_char '=' spec with
      | [ v; range ] -> (
        match String.split_on_char ':' range with
        | [ lo; hi ] -> (
          match (int_of_string_opt lo, int_of_string_opt hi) with
          | Some lo, Some hi ->
            Pperf_symbolic.Interval.Env.add v
              (Pperf_symbolic.Interval.of_ints lo hi)
              env
          | _ ->
            raise
              (Bad_flag
                 (Printf.sprintf "malformed range '%s': bounds must be integers" spec)))
        | _ ->
          raise
            (Bad_flag (Printf.sprintf "malformed range '%s': expected VAR=LO:HI" spec)))
      | _ ->
        raise
          (Bad_flag (Printf.sprintf "malformed range '%s': expected VAR=LO:HI" spec)))
    Pperf_symbolic.Interval.Env.empty specs

(* an --eval/--bind set that names variables the expression does not have,
   or misses variables it does, silently predicts with the wrong values
   (unbound probabilities default to Predict.default_prob, other unknowns
   to 1.0); say so *)
let check_bindings ~strict ~warn ~expr_vars ~prob_vars bindings =
  if bindings <> [] then (
    let bound = List.map fst bindings in
    let known v = List.mem v expr_vars || List.mem v prob_vars in
    let unused = List.filter (fun v -> not (known v)) bound in
    let unbound_probs, unbound =
      List.filter (fun v -> not (List.mem v bound)) expr_vars
      |> List.partition (fun v -> List.mem v prob_vars)
    in
    let one l a b = if List.length l = 1 then a else b in
    let msgs =
      (if unused = [] then []
       else
         [ Printf.sprintf
             "binding%s %s do%s not match any variable of the performance expression"
             (one unused "" "s") (String.concat ", " unused) (one unused "es" "") ])
      @ (if unbound = [] then []
         else
           [ Printf.sprintf "unbound variable%s %s default%s to 1.0" (one unbound "" "s")
               (String.concat ", " unbound) (one unbound "s" "") ])
      @
      if unbound_probs = [] then []
      else
        [ Printf.sprintf "unbound probabilit%s %s default%s to %g"
            (one unbound_probs "y" "ies")
            (String.concat ", " unbound_probs)
            (one unbound_probs "s" "") Predict.default_prob ]
    in
    if msgs <> [] then
      if strict then failwith (String.concat "; " msgs) else List.iter warn msgs)

(* ---- predict ---- *)

let predict ?predictor ~machine ~options ~interproc ~strict ~evals ~warn src =
  Obs.time sp_render @@ fun () ->
  let bindings = parse_bindings evals in
  with_formatter (fun fmt ->
      if interproc then (
        let t = Interproc.of_source ~options ~machine src in
        Format.fprintf fmt "%a" Interproc.pp t;
        if bindings <> [] then
          List.iter
            (fun (rp : Interproc.routine_prediction) ->
              let total = Perf_expr.total rp.prediction.cost in
              check_bindings ~strict ~warn ~expr_vars:(Pperf_symbolic.Poly.vars total)
                ~prob_vars:rp.prediction.prob_vars bindings;
              Format.fprintf fmt "  %s at bindings: %.0f cycles@." rp.checked.routine.rname
                (Predict.eval_prediction rp.prediction bindings))
            t.routines)
      else (
        let checkeds = Typecheck.check_program (Parser.parse_program src) in
        let predictions =
          List.map
            (fun (c : Typecheck.checked) ->
              let prediction =
                match predictor with
                | Some f -> f c
                | None -> Aggregate.routine ~machine ~options c
              in
              { Predict.routine = c.routine; symbols = c.symbols; machine; prediction })
            checkeds
        in
        List.iter
          (fun p ->
            Format.fprintf fmt "%a@." Predict.pp p;
            if Predict.prob_vars p <> [] then
              Format.fprintf fmt "  branch probabilities: %s (in [0,1])@."
                (String.concat ", " (Predict.prob_vars p));
            let diags = Predict.precision_diagnostics p in
            if diags <> [] then (
              Format.fprintf fmt "  precision diagnostics:@.";
              List.iter
                (fun d -> Format.fprintf fmt "    %a@." Pperf_lint.Diagnostic.pp_short d)
                diags);
            if bindings <> [] then (
              check_bindings ~strict ~warn
                ~expr_vars:(Pperf_symbolic.Poly.vars (Predict.total p))
                ~prob_vars:(Predict.prob_vars p) bindings;
              Format.fprintf fmt "  at %s: %.0f cycles@."
                (String.concat ", "
                   (List.map (fun (v, x) -> Printf.sprintf "%s=%g" v x) bindings))
                (Predict.eval p bindings)))
          predictions))

(* ---- compare ---- *)

let compare ?(domain = Pperf_absint.Absint.Box) ~machine ~options ~use_ranges ~ranges
    src1 src2 =
  Obs.time sp_render @@ fun () ->
  let user_env = range_env ranges in
  with_formatter (fun fmt ->
      let c1 = Typecheck.check_routine (Parser.parse_routine src1) in
      let c2 = Typecheck.check_routine (Parser.parse_routine src2) in
      let env, rel =
        if use_ranges || domain <> Pperf_absint.Absint.Box then
          Compare.inferred_rel ~base:user_env ~domain [ c1; c2 ]
        else (user_env, None)
      in
      (* the decision reads only the cost expressions, which the range
         analysis leaves alone: it adds precision events, not printed here *)
      let options = { options with Aggregate.infer_ranges = false } in
      (* one block table: what the second routine shares with the first is
         translated and dropped once *)
      let blocks = Aggregate.blocks () in
      let p1 = Predict.of_checked ~options ~blocks ~machine c1 in
      let p2 = Predict.of_checked ~options ~blocks ~machine c2 in
      Format.fprintf fmt "first:  %a@." Predict.pp p1;
      Format.fprintf fmt "second: %a@." Predict.pp p2;
      (match rel with
      | Some r when r.Compare.rel_show <> [] ->
        Format.fprintf fmt "relations (%s domain): %s@."
          (Pperf_absint.Absint.domain_to_string domain)
          (String.concat "; " r.Compare.rel_show)
      | _ -> ());
      let d = Compare.decide ?rel env (Predict.cost p1) (Predict.cost p2) in
      Format.fprintf fmt "%a@." Compare.pp_decision d;
      match d.verdict with
      | Pperf_symbolic.Signs.Undecided diff -> (
        (* before suggesting a measurement, consult the three-bound
           steady state: the tighter of the bin/LCD rates (plus the memory
           bound) can separate variants whose bin expressions cannot *)
        let include_memory = options.Aggregate.include_memory in
        (* the aggregations above translated and dropped every body *)
        let analyze (c : Typecheck.checked) =
          Bounds.steady_total
            (Bounds.analyze ~machine ~include_memory
               ~translated:(Aggregate.loop_body blocks ~machine ~symtab:c.symbols)
               c)
        in
        let b1 = analyze c1 in
        let b2 = analyze c2 in
        let module Poly = Pperf_symbolic.Poly in
        let consulted =
          if Poly.equal b1 (Predict.total p1) && Poly.equal b2 (Predict.total p2) then
            None
          else (
            let db = Compare.decide ?rel env (Perf_expr.of_cpu b1) (Perf_expr.of_cpu b2) in
            match db.verdict with
            | Pperf_symbolic.Signs.Always_le | Pperf_symbolic.Signs.Always_ge
            | Pperf_symbolic.Signs.Equal ->
              Some db
            | _ -> None)
        in
        match consulted with
        | Some db ->
          Format.fprintf fmt "three-bound steady state: first %s vs second %s@."
            (Poly.to_string b1) (Poly.to_string b2);
          Format.fprintf fmt "%a (decided by the tighter bound; no run-time test needed)@."
            Compare.pp_decision db
        | None ->
          let t = Runtime_test.of_difference env diff in
          Format.fprintf fmt "suggested run-time test: %a@." Runtime_test.pp t)
      | _ -> ())

(* ---- ranges ---- *)

let ranges ?(domain = Pperf_absint.Absint.Box) ~json src =
  Obs.time sp_render @@ fun () ->
  let module Absint = Pperf_absint.Absint in
  let module Lin = Pperf_absint.Lin in
  let module Interval = Pperf_symbolic.Interval in
  let relational = domain <> Absint.Box in
  let checkeds = Typecheck.check_program (Parser.parse_program src) in
  let analyzed =
    List.map (fun (c : Typecheck.checked) -> (c, Absint.analyze ~domain c)) checkeds
  in
  if json then (
    let loop (l : Absint.loop_range) =
      Json.Obj
        [ ("var", Json.String l.lvar); ("line", Json.Int l.at.Srcloc.line);
          ("depth", Json.Int l.depth); ("index", Json.String (Interval.to_string l.index));
          ("trip", Json.String (Interval.to_string l.trip)) ]
    in
    let routine ((c : Typecheck.checked), r) =
      let relations =
        if not relational then []
        else
          [ ( "relations",
              Json.List
                (List.map
                   (fun ((loc : Srcloc.t), cons) ->
                     Json.Obj
                       [ ("line", Json.Int loc.line);
                         ("facts", json_strings (List.map Lin.cons_to_string cons)) ])
                   (Absint.relation_points r)) );
            ( "summary_relations",
              json_strings (List.map Lin.cons_to_string (Absint.relations r)) ) ]
      in
      Json.Obj
        ([ ("routine", Json.String c.routine.rname);
           ("loops", Json.List (List.map loop (Absint.loops r)));
           ( "summary",
             Json.Obj
               (List.map
                  (fun (x, iv) -> (x, Json.String (Interval.to_string iv)))
                  (Interval.Env.bindings (Absint.summary r))) ) ]
        @ relations)
    in
    (* the domain and relations keys appear only under a relational domain,
       so interval output is byte-identical to the historical format *)
    let domain =
      if relational then [ ("domain", Json.String (Absint.domain_to_string domain)) ] else []
    in
    json_line (Json.Obj (domain @ [ ("routines", Json.List (List.map routine analyzed)) ])))
  else
    with_formatter (fun fmt ->
        List.iter
          (fun ((c : Typecheck.checked), r) ->
            Format.fprintf fmt "routine %s:@." c.routine.rname;
            (match Absint.loops r with
             | [] -> Format.fprintf fmt "  no loops@."
             | ls ->
               Format.fprintf fmt "  loops:@.";
               List.iter (fun l -> Format.fprintf fmt "    %a@." Absint.pp_loop_range l) ls);
            (match Interval.Env.bindings (Absint.summary r) with
            | [] -> Format.fprintf fmt "  no variable ranges inferred@."
            | bs ->
              Format.fprintf fmt "  variable ranges:@.";
              List.iter
                (fun (x, iv) -> Format.fprintf fmt "    %s in %s@." x (Interval.to_string iv))
                bs);
            if relational then (
              match Absint.relation_points r with
              | [] -> Format.fprintf fmt "  no relations inferred@."
              | pts ->
                Format.fprintf fmt "  relations (%s domain):@."
                  (Absint.domain_to_string domain);
                List.iter
                  (fun ((loc : Srcloc.t), cons) ->
                    Format.fprintf fmt "    line %d: %s@." loc.line
                      (String.concat "; " (List.map Lin.cons_to_string cons)))
                  pts;
                match Absint.relations r with
                | [] -> ()
                | cs ->
                  Format.fprintf fmt "    summary: %s@."
                    (String.concat "; " (List.map Lin.cons_to_string cs))))
          analyzed)

(* ---- bounds ---- *)

let bounds ~machine ~memory ~json ~evals src =
  Obs.time sp_render @@ fun () ->
  let bindings = parse_bindings evals in
  let mname = machine.Pperf_machine.Machine.name in
  let module Poly = Pperf_symbolic.Poly in
  let routines =
    List.map
      (Bounds.analyze ~machine ~include_memory:memory ~bindings)
      (Typecheck.check_program (Parser.parse_program src))
  in
  let point_string =
    String.concat ", " (List.map (fun (v, x) -> Printf.sprintf "%s=%g" v x) bindings)
  in
  let eval_at p =
    Poly.eval_float
      (fun v -> match List.assoc_opt v bindings with Some f -> f | None -> 256.0)
      p
  in
  if json then (
    let poly p = Json.String (Poly.to_string p) in
    let rat r = Json.String (Pperf_num.Rat.to_string r) in
    let carried (c : Bounds.carried) =
      Json.Obj
        [ ("array", Json.String c.carray); ("level", Json.String c.clevel);
          ("distance", Json.Int c.cdistance); ("exact", Json.Bool c.cexact);
          ("ratio", rat c.cratio) ]
    in
    let nest (n : Bounds.nest) =
      Json.Obj
        ([ ("line", Json.Int n.at.Srcloc.line);
           ("loops", json_strings n.loop_vars);
           ("trips", poly n.trips); ("bin_per_iter", Json.Int n.bin_per_iter);
           ("bin_once", Json.Int n.bin_once); ("critical_path", Json.Int n.critical_path);
           ("lcd_per_iter", rat n.lcd_per_iter);
           ("carried", Json.List (List.map carried n.carried)); ("bin_bound", poly n.bin_bound);
           ("lcd_bound", poly n.lcd_bound) ]
        @ (match n.mem_bound with Some m -> [ ("mem_bound", poly m) ] | None -> [])
        @ [ ("classification", Json.String (Bounds.classification_string n.classification)) ])
    in
    let event (d : Pperf_lint.Diagnostic.t) =
      Json.Obj
        [ ("check", Json.String d.check); ("line", Json.Int d.loc.Srcloc.line);
          ("message", Json.String d.message) ]
    in
    let routine (r : Bounds.routine) =
      Json.Obj
        [ ("routine", Json.String r.rname); ("machine", Json.String mname);
          ("nests", Json.List (List.map nest r.nests));
          ("events", Json.List (List.map event r.diagnostics)) ]
    in
    json_line (Json.Obj [ ("routines", Json.List (List.map routine routines)) ]))
  else
    with_formatter (fun fmt ->
        List.iter
          (fun (r : Bounds.routine) ->
            Format.fprintf fmt "routine %s on %s:@." r.rname mname;
            if r.nests = [] then Format.fprintf fmt "  no loop nests@."
            else
              List.iter
                (fun (n : Bounds.nest) ->
                  Format.fprintf fmt "  nest at line %d, loops [%s], trips %s:@."
                    n.at.Srcloc.line
                    (String.concat "," n.loop_vars)
                    (Poly.to_string n.trips);
                  Format.fprintf fmt "    bin-packing:   %d cycles/iter | total %s@."
                    n.bin_per_iter (Poly.to_string n.bin_bound);
                  Format.fprintf fmt
                    "    critical path: %d cycles (one iteration alone packs in %d)@."
                    n.critical_path n.bin_once;
                  (match n.carried with
                   | [] -> Format.fprintf fmt "    LCD:           no carried chain@."
                   | cs ->
                     Format.fprintf fmt "    LCD:           %s cycles/iter via %s | total %s@."
                       (Pperf_num.Rat.to_string n.lcd_per_iter)
                       (String.concat "; "
                          (List.map
                             (fun (c : Bounds.carried) ->
                               Printf.sprintf "%s (distance %d at loop %s%s)" c.carray
                                 c.cdistance c.clevel
                                 (if c.cexact then "" else ", assumed"))
                             cs))
                       (Poly.to_string n.lcd_bound));
                  (match n.mem_bound with
                   | Some m ->
                     Format.fprintf fmt "    memory:        total %s@." (Poly.to_string m)
                   | None -> ());
                  if bindings <> [] then
                    Format.fprintf fmt "    at %s: bin %.0f | lcd %.0f%s@." point_string
                      (eval_at n.bin_bound) (eval_at n.lcd_bound)
                      (match n.mem_bound with
                       | Some m -> Printf.sprintf " | mem %.0f" (eval_at m)
                       | None -> "");
                  Format.fprintf fmt "    steady state:  %s@."
                    (Bounds.classification_string n.classification))
                r.nests;
            List.iter
              (fun d ->
                Format.fprintf fmt "  %a@." Pperf_lint.Diagnostic.pp_short d)
              r.diagnostics)
          routines)

(* ---- machines ---- *)

let machines ~dir () =
  Obs.time sp_render @@ fun () ->
  let module M = Pperf_machine.Machine in
  let module C = Pperf_machine.Costmodel in
  let row name m origin =
    Printf.sprintf "%-12s %-8s %5d %6d  %s" name
      (C.kind_string (M.model m))
      (M.num_units m) m.M.issue_width origin
  in
  let builtins =
    List.sort String.compare Pperf_machine.Descr.builtin_names
    |> List.map (fun n -> row n (Machines.load n) "builtin")
  in
  let files =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".pmach")
      |> List.sort String.compare
      |> List.map (fun f ->
             let path = Filename.concat dir f in
             match Machines.load path with
             | m -> row m.M.name m path
             | exception Pperf_machine.Descr.Parse_error msg ->
               Printf.sprintf "%s: machine description error: %s" path msg
             | exception Sys_error msg -> Printf.sprintf "%s: %s" path msg)
    else []
  in
  String.concat "\n"
    ((Printf.sprintf "%-12s %-8s %5s %6s  %s" "machine" "model" "units" "width" "source"
     :: builtins)
    @ files)
  ^ "\n"

(* ---- lint ---- *)

let lint ?(domain = Pperf_absint.Absint.Box) ~json ~use_ranges src =
  Obs.time sp_render @@ fun () ->
  (* a relational domain is only consulted through the range analysis, so
     requesting one implies --ranges *)
  let use_ranges = use_ranges || domain <> Pperf_absint.Absint.Box in
  let module Lint = Pperf_lint.Lint in
  let module Diagnostic = Pperf_lint.Diagnostic in
  let reports = Lint.run_source ~ranges:use_ranges ~domain src in
  let code = Lint.exit_code reports in
  let output =
    if json then (
      let severity s = Json.String (Diagnostic.severity_to_string s) in
      let diagnostic (d : Diagnostic.t) =
        Json.Obj
          ([ ("severity", severity d.severity); ("check", Json.String d.check);
             ("line", Json.Int d.loc.Srcloc.line); ("col", Json.Int d.loc.Srcloc.col);
             ("message", Json.String d.message) ]
          @ match d.fix with Some f -> [ ("fix", Json.String f) ] | None -> [])
      in
      let report (r : Lint.report) =
        Json.Obj
          [ ("routine", Json.String r.routine);
            ("diagnostics", Json.List (List.map diagnostic r.diagnostics)) ]
      in
      json_line
        (Json.Obj
           [ ("routines", Json.List (List.map report reports));
             ( "max_severity",
               Option.fold ~none:Json.Null ~some:severity
                 (Diagnostic.max_severity (Lint.all_diagnostics reports)) );
             ("exit_code", Json.Int code) ]))
    else with_formatter (fun fmt -> Format.fprintf fmt "%a" Lint.pp reports)
  in
  (output, code)

(* ---- schedule ---- *)

(* every innermost block of every routine, translated and dropped into
   the bins; a block with control flow in it has no single schedule *)
let schedule ~machine src =
  Obs.time sp_render @@ fun () ->
  let module Translator = Pperf_translate.Translator in
  let module Dag = Pperf_sched.Dag in
  let module Bins = Pperf_sched.Bins in
  with_formatter (fun fmt ->
      List.iter
        (fun (c : Typecheck.checked) ->
          Format.fprintf fmt "routine %s:@." c.routine.rname;
          let declared = Analysis.declared_names c.symbols in
          List.iter
            (fun (loops, d, body) ->
              let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
              let under = String.concat "," loop_vars in
              match
                Translator.translate_block ~machine ~symtab:c.symbols ~loop_vars
                  ~invariants:(Analysis.loop_invariants ~declared d) body
              with
              | exception Translator.Not_straight_line loc ->
                Format.fprintf fmt
                  "@.innermost block under loops [%s]: control flow at %s, no single schedule@."
                  under (Srcloc.to_string loc)
              | res ->
                Format.fprintf fmt "@.innermost block under loops [%s]:@.%a@." under Dag.pp
                  res.body;
                let bins = Bins.create machine in
                let s = Bins.drop_dag bins res.body in
                Format.fprintf fmt "%a@." Bins.pp bins;
                Format.fprintf fmt
                  "cost %d cycles | critical path %d | operation count %d | reference %d@."
                  s.cost (Dag.critical_path res.body) (Bins.Opcount.cost res.body)
                  (Pperf_backend.Pipeline.reference_cycles machine res.body))
            (Analysis.innermost_nests c.routine.body))
        (Typecheck.check_program (Parser.parse_program src)))

(* ---- report ---- *)

let report ~machine ~options ~ranges src =
  Obs.time sp_render @@ fun () ->
  let env = range_env ranges in
  with_formatter (fun fmt ->
      List.iter
        (fun checked ->
          Format.fprintf fmt "%a@." Report.pp (Report.generate ~options ~env ~machine checked))
        (Typecheck.check_program (Parser.parse_program src)))

(* ---- deps ---- *)

let deps src =
  Obs.time sp_render @@ fun () ->
  with_formatter (fun fmt ->
      List.iter
        (fun (c : Typecheck.checked) ->
          Format.fprintf fmt "routine %s:@." c.routine.rname;
          (match Depend.dependences_in c.routine.body with
           | [] -> Format.fprintf fmt "  no data dependences@."
           | deps ->
             List.iter
               (fun (d : Depend.dependence) ->
                 Format.fprintf fmt "  %a  (line %d -> line %d)@." Depend.pp_dependence d
                   d.src.at.line d.dst.at.line)
               deps);
          (* interchange legality of each outer perfect nest *)
          Ast.iter_stmts
            (fun s ->
              match s.Ast.kind with
              | Ast.Do ({ body = [ { kind = Ast.Do _; _ } ]; _ } as d) ->
                Format.fprintf fmt "  nest at line %d: interchange %s@." s.loc.line
                  (if Depend.interchange_legal d then "legal" else "ILLEGAL")
              | _ -> ())
            c.routine.body)
        (Typecheck.check_program (Parser.parse_program src)))

(* ---- run ---- *)

(* interpret the first unit, the others being its callees, and set its
   static prediction beside the dynamic count: predicted over the whole
   program, so its calls are charged with the callees' costs *)
let run ~machine ~evals src =
  Obs.time sp_render @@ fun () ->
  let module Interp = Pperf_exec.Interp in
  let bindings = parse_bindings evals in
  let args =
    List.map
      (fun (v, f) ->
        (v, if Float.is_integer f then Interp.VInt (int_of_float f) else Interp.VReal f))
      bindings
  in
  let units = Typecheck.check_program (Parser.parse_program src) in
  let main, callees = Interp.split_program units in
  let res = Interp.run ~machine ~args ~program:callees main in
  let program = Interproc.predict_program ~machine units in
  let rp = Option.get (Interproc.find program main.routine.rname) in
  let p =
    { Predict.routine = main.routine; symbols = main.symbols; machine; prediction = rp.prediction }
  in
  let static = Predict.eval p bindings in
  with_formatter (fun fmt ->
      Format.fprintf fmt "dynamic cycles: %.0f@." res.cycles;
      Format.fprintf fmt "profile:@.%a" Interp.Profile.pp res.profile;
      Format.fprintf fmt "static prediction %a = %.0f (%.2f%% from dynamic)@." Predict.pp p static
        (100.0 *. Float.abs (static -. res.cycles) /. Float.max 1.0 res.cycles))

(* ---- search ---- *)

let search ~machine ~options src =
  Obs.time sp_render @@ fun () ->
  let module Search = Pperf_transform.Search in
  let checked = Typecheck.check_routine (Parser.parse_routine src) in
  let out = Search.run ~machine ~options ~max_nodes:150 ~max_depth:3 checked in
  with_formatter (fun fmt ->
      Format.fprintf fmt "explored %d states@." out.explored;
      Format.fprintf fmt "sequence: %s@."
        (if out.trace = [] then "(none)"
         else String.concat " ; " (List.map (fun (s : Search.step) -> s.action) out.trace));
      Format.fprintf fmt "predicted: %a  ->  %a@." Perf_expr.pp out.initial Perf_expr.pp
        out.predicted;
      if out.blocked <> [] then (
        Format.fprintf fmt "@.blocked by dependences:@.";
        List.iter
          (fun (b : Search.blocked) ->
            Format.fprintf fmt "  %s at %a: %a@." b.action Pperf_transform.Transformations.pp_path
              b.at Pperf_lint.Diagnostic.pp_short b.why)
          out.blocked);
      Format.fprintf fmt "@.%s" (Pp_ast.routine_to_string out.best.routine))
