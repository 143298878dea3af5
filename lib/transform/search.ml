open Pperf_num
open Pperf_lang
open Pperf_symbolic
open Pperf_core

type step = { action : string; at : Transformations.path }

type blocked = {
  action : string;
  at : Transformations.path;
  why : Pperf_lint.Diagnostic.t;
}

type outcome = {
  best : Typecheck.checked;
  trace : step list;
  predicted : Perf_expr.t;
  initial : Perf_expr.t;
  explored : int;
  blocked : blocked list;
}

(* reordering transformations the dependence tests refuse on the original
   routine, each citing the lint diagnostic that states the reason *)
let blocked_actions (r : Ast.routine) =
  List.concat_map
    (fun (p, (d : Ast.do_loop)) ->
      let loc =
        match Transformations.stmt_at r p with
        | Some s -> s.Ast.loc
        | None -> Srcloc.dummy
      in
      let cite action =
        let why =
          match Pperf_lint.Checks.loop_carried ~loc d with
          | diag :: _ -> diag
          | [] ->
            Pperf_lint.Diagnostic.make Pperf_lint.Diagnostic.Hint ~check:"carried-dep"
              ~loc
              (Printf.sprintf
                 "dependence analysis could not prove the loop over %s reorderable" d.var)
        in
        { action; at = p; why }
      in
      let perfect2 =
        match d.body with [ { Ast.kind = Ast.Do _; _ } ] -> true | _ -> false
      in
      let on_interchange =
        if perfect2 && not (Depend.interchange_legal d) then
          [ cite "interchange"; cite "tile" ]
        else []
      in
      let on_reverse =
        if Depend.carried_dependences d <> [] then [ cite "reverse" ] else []
      in
      on_interchange @ on_reverse)
    (Transformations.loops_in r)

let candidate_actions (r : Ast.routine) =
  let loops = Transformations.loops_in r in
  let at_loop (p, (d : Ast.do_loop)) =
    let wrap name f =
      ( name,
        p,
        fun (r : Ast.routine) ->
          match Transformations.stmt_at r p with
          | Some { Ast.kind = Ast.Do d'; _ } -> (
            match f d' with
            | Some repl -> Transformations.replace_at r p repl
            | None -> None)
          | _ -> None )
    in
    ignore d;
    [
      wrap "unroll2" (Transformations.unroll ~factor:2);
      wrap "unroll4" (Transformations.unroll ~factor:4);
      wrap "unroll8" (Transformations.unroll ~factor:8);
      wrap "interchange" Transformations.interchange;
      wrap "tile16" (Transformations.tile2 ~width:16);
      wrap "tile32" (Transformations.tile2 ~width:32);
      wrap "distribute" Transformations.distribute;
      wrap "reverse" Transformations.reverse;
    ]
  in
  let unary = List.concat_map at_loop loops in
  (* fusion of adjacent sibling loops *)
  let fusions =
    List.concat_map
      (fun (p, _) ->
        match List.rev p with
        | i :: rest_rev ->
          let sibling = List.rev (i + 1 :: rest_rev) in
          [
            ( "fuse",
              p,
              fun (r : Ast.routine) ->
                match (Transformations.stmt_at r p, Transformations.stmt_at r sibling) with
                | Some { Ast.kind = Ast.Do a; _ }, Some { Ast.kind = Ast.Do b; _ } -> (
                  match Transformations.fuse a b with
                  | Some repl -> (
                    (* remove the sibling first (higher index), then replace *)
                    match Transformations.replace_at r sibling [] with
                    | Some r' -> Transformations.replace_at r' p repl
                    | None -> None)
                  | None -> None)
                | _ -> None );
          ]
        | [] -> [])
      loops
  in
  unary @ fusions

let default_env = Interval.Env.empty

let score ~machine ~options ~env (checked : Typecheck.checked) =
  let pred = Aggregate.routine ~machine ~options checked in
  let total = Perf_expr.total pred.cost in
  let value =
    Poly.eval_float
      (fun v ->
        match Interval.Env.find_opt v env with
        | Some iv -> Rat.to_float (Interval.midpoint iv)
        | None ->
          if List.mem v pred.prob_vars then 0.5
          else if Analysis.is_trip_var v then 64.0
          else 128.0)
      total
  in
  (value, pred.cost)

module PQ = Map.Make (struct
  type t = float * int

  let compare = compare
end)

(* The seen-state key: a 128-bit digest of the printed routine. A
   colliding key silently drops a candidate as already seen; with a 30-bit
   hash the odds of that reach 1% near 5,000 states. *)
let seen_key r = Digest.string (Ast.show_routine r)

let run ~machine ?(options = Aggregate.default_options) ?(env = default_env)
    ?(max_nodes = 200) ?(max_depth = 4) (checked : Typecheck.checked) =
  let seen = Hashtbl.create 64 in
  let counter = ref 0 in
  let init_score, init_cost = score ~machine ~options ~env checked in
  let best = ref (checked, [], init_cost, init_score) in
  let frontier = ref PQ.empty in
  let push sc state =
    incr counter;
    frontier := PQ.add (sc, !counter) state !frontier
  in
  push init_score (checked, [], 0);
  Hashtbl.replace seen (seen_key checked.routine) ();
  let explored = ref 0 in
  while (not (PQ.is_empty !frontier)) && !explored < max_nodes do
    let (sc, id), (state, trace, depth) = PQ.min_binding !frontier in
    frontier := PQ.remove (sc, id) !frontier;
    incr explored;
    if depth < max_depth then
      List.iter
        (fun (name, p, apply) ->
          match apply state.Typecheck.routine with
          | None -> ()
          | Some r' -> (
            let key = seen_key r' in
            if not (Hashtbl.mem seen key) then (
              Hashtbl.replace seen key ();
              match Typecheck.check_routine r' with
              | exception _ -> ()
              | checked' ->
                let sc', cost' = score ~machine ~options ~env checked' in
                let trace' = trace @ [ { action = name; at = p } ] in
                let _, _, _, best_sc = !best in
                if sc' < best_sc then best := (checked', trace', cost', sc');
                push sc' (checked', trace', depth + 1))))
        (candidate_actions state.Typecheck.routine)
  done;
  let best_state, trace, cost, _ = !best in
  {
    best = best_state;
    trace;
    predicted = cost;
    initial = init_cost;
    explored = !explored;
    blocked = blocked_actions checked.Typecheck.routine;
  }

(* ---- §3.4 program versioning ---- *)

type versioned = {
  guard : Ast.expr;  (** true selects [when_true] *)
  routine : Ast.routine;  (** the combined two-version routine *)
  test : Runtime_test.test;
}

(** Combine two variants of a routine under a run-time guard: the §3.4
    "multiple branches of instructions guided by well-chosen run-time
    tests". *)
let make_versioned ~guard (a : Ast.routine) (b : Ast.routine) : Ast.routine =
  { a with body = [ Ast.mk (Ast.If ([ (guard, a.body) ], b.body)) ] }

(** Search, then decide between the original and the best variant over the
    variable ranges; when the winner depends on the unknowns (crossover or
    undecidable) and the guard is worth its cycles, emit a two-version
    routine. *)
let run_versioned ~machine ?options ?(env = default_env) ?max_nodes ?max_depth
    (checked : Typecheck.checked) : outcome * versioned option =
  let out = run ~machine ?options ?env:(Some env) ?max_nodes ?max_depth checked in
  if out.trace = [] then (out, None)
  else (
    let d = Compare.decide env out.predicted out.initial in
    match d.verdict with
    | Pperf_symbolic.Signs.Crossover _ | Pperf_symbolic.Signs.Undecided _ ->
      let test = Runtime_test.of_difference env d.difference in
      if Runtime_test.worthwhile env test d.difference then (
        let guard = Runtime_test.guard_expr test in
        let routine = make_versioned ~guard out.best.Typecheck.routine checked.routine in
        match Typecheck.check_routine (Parser.parse_routine (Pp_ast.routine_to_string routine)) with
        | exception _ -> (out, None)
        | _ -> (out, Some { guard; routine; test }))
      else (out, None)
    | _ -> (out, None))
