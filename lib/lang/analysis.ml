module SSet = Set.Make (String)

type loop_ctx = {
  lvar : string;
  llo : Ast.expr;
  lhi : Ast.expr;
  lstep : Ast.expr option;
}

type array_ref = {
  array : string;
  subs : Ast.expr list;
  is_write : bool;
  loops : loop_ctx list;
  at : Srcloc.t;
}

let ctx_of_do (d : Ast.do_loop) = { lvar = d.var; llo = d.lo; lhi = d.hi; lstep = d.step }

let rec expr_array_refs loops at acc (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Real _ | Ast.Logical _ | Ast.Var _ -> acc
  | Ast.Index (a, subs) ->
    let acc = { array = a; subs; is_write = false; loops; at } :: acc in
    List.fold_left (expr_array_refs loops at) acc subs
  | Ast.Call (_, args) -> List.fold_left (expr_array_refs loops at) acc args
  | Ast.Unop (_, a) -> expr_array_refs loops at acc a
  | Ast.Binop (_, a, b) -> expr_array_refs loops at (expr_array_refs loops at acc a) b

let array_refs stmts =
  let rec go loops acc stmts =
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        let at = s.loc in
        match s.kind with
        | Ast.Assign (lhs, e) ->
          let acc =
            if lhs.subs = [] then acc
            else (
              let acc = { array = lhs.base; subs = lhs.subs; is_write = true; loops; at } :: acc in
              List.fold_left (expr_array_refs loops at) acc lhs.subs)
          in
          expr_array_refs loops at acc e
        | Ast.If (branches, els) ->
          let acc =
            List.fold_left
              (fun acc (c, body) -> go loops (expr_array_refs loops at acc c) body)
              acc branches
          in
          go loops acc els
        | Ast.Do d ->
          let acc = List.fold_left (expr_array_refs loops at) acc (d.lo :: d.hi :: Option.to_list d.step) in
          go (loops @ [ ctx_of_do d ]) acc d.body
        | Ast.Call_stmt (_, args) -> List.fold_left (expr_array_refs loops at) acc args
        | Ast.Return -> acc)
      acc stmts
  in
  List.rev (go [] [] stmts)

let expr_reads e =
  Ast.fold_expr
    (fun acc e ->
      match e with
      | Ast.Var x -> SSet.add x acc
      | Ast.Index (a, _) -> SSet.add a acc
      | _ -> acc)
    SSet.empty e

let assigned_vars stmts =
  let acc = ref SSet.empty in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Assign (lhs, _) -> acc := SSet.add lhs.base !acc
      | Ast.Do d -> acc := SSet.add d.var !acc
      | Ast.Call_stmt (_, args) ->
        (* conservatively: any variable passed to a call may be modified *)
        List.iter
          (fun a ->
            match a with
            | Ast.Var x | Ast.Index (x, _) -> acc := SSet.add x !acc
            | _ -> ())
          args
      | _ -> ())
    stmts;
  !acc

let used_vars stmts =
  let acc = ref SSet.empty in
  let add_expr e = acc := SSet.union (expr_reads e) !acc in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Assign (lhs, e) ->
        List.iter add_expr lhs.subs;
        add_expr e
      | Ast.If (branches, _) -> List.iter (fun (c, _) -> add_expr c) branches
      | Ast.Do d ->
        add_expr d.lo;
        add_expr d.hi;
        Option.iter add_expr d.step
      | Ast.Call_stmt (_, args) -> List.iter add_expr args
      | Ast.Return -> ())
    stmts;
  !acc

let loop_indices stmts =
  let acc = ref SSet.empty in
  Ast.iter_stmts
    (fun s -> match s.Ast.kind with Ast.Do d -> acc := SSet.add d.var !acc | _ -> ())
    stmts;
  !acc

let rec has_call (e : Ast.expr) =
  match e with
  | Ast.Call _ -> true
  | Ast.Int _ | Ast.Real _ | Ast.Logical _ | Ast.Var _ -> false
  | Ast.Index (_, subs) -> List.exists has_call subs
  | Ast.Unop (_, a) -> has_call a
  | Ast.Binop (_, a, b) -> has_call a || has_call b

let rec perfect_nest (d : Ast.do_loop) =
  match d.body with
  | [ { Ast.kind = Ast.Do inner; _ } ] ->
    let inner_ctxs, body = perfect_nest inner in
    (ctx_of_do d :: inner_ctxs, body)
  | body -> ([ ctx_of_do d ], body)

let is_do (s : Ast.stmt) = match s.kind with Ast.Do _ -> true | _ -> false

let innermost_nests stmts =
  let out = ref [] in
  (* [enclosing] is the innermost loop around [stmts], [None] outside every loop *)
  let rec go loops enclosing stmts =
    match enclosing with
    | Some d when stmts <> [] && not (List.exists is_do stmts) ->
      out := (loops, d, stmts) :: !out
    | _ ->
      List.iter
        (fun (s : Ast.stmt) ->
          match s.kind with
          | Ast.Do d -> go (loops @ [ ctx_of_do d ]) (Some d) d.body
          | Ast.If (branches, els) ->
            List.iter (fun (_, b) -> go loops enclosing b) branches;
            go loops enclosing els
          | _ -> ())
        stmts
  in
  go [] None stmts;
  List.rev !out

let innermost_bodies stmts =
  List.map (fun (loops, _, body) -> (loops, body)) (innermost_nests stmts)

(* ---- the loop-costing rules ---- *)

let is_straight (s : Ast.stmt) =
  match s.kind with
  | Ast.Assign _ | Ast.Call_stmt _ | Ast.Return -> true
  | Ast.Do _ | Ast.If _ -> false

let split_run stmts =
  let rec take acc = function
    | s :: rest when is_straight s -> take (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  take [] stmts

let units body =
  let rec go acc = function
    | [] -> List.rev acc
    | s :: rest when not (is_straight s) -> go ([ s ] :: acc) rest
    | body ->
      let run, rest = split_run body in
      go (run :: acc) rest
  in
  go [] body

let declared_names symtab = SSet.of_list (List.map fst (Typecheck.symbols_list symtab))

let loop_invariants ~declared (d : Ast.do_loop) =
  SSet.diff (SSet.union (used_vars d.body) declared) (SSet.add d.var (assigned_vars d.body))

let trip_prefix = "trip_"
let trip_var index = trip_prefix ^ index
let is_trip_var v = String.starts_with ~prefix:trip_prefix v

let trip (l : loop_ctx) =
  match Sym_expr.trip_count ~lo:l.llo ~hi:l.lhi ~step:l.lstep with
  | Some p -> p
  | None -> Pperf_symbolic.Poly.var (trip_var l.lvar)

let wrap_nest loops body =
  List.fold_right
    (fun l inner ->
      [ Ast.mk (Ast.Do { Ast.var = l.lvar; lo = l.llo; hi = l.lhi; step = l.lstep; body = inner }) ])
    loops body

(* ---- running a nest on concrete integers ---- *)

exception Not_integer of Ast.expr

let rec eval_int env (e : Ast.expr) =
  match e with
  | Ast.Int i -> i
  | Ast.Var x -> env x
  | Ast.Unop (Ast.Neg, a) -> -eval_int env a
  | Ast.Binop (Ast.Add, a, b) -> eval_int env a + eval_int env b
  | Ast.Binop (Ast.Sub, a, b) -> eval_int env a - eval_int env b
  | Ast.Binop (Ast.Mul, a, b) -> eval_int env a * eval_int env b
  | Ast.Binop (Ast.Div, a, b) -> eval_int env a / eval_int env b
  | Ast.Call ("mod", [ a; b ]) -> eval_int env a mod eval_int env b
  | Ast.Call (("min" | "min0"), args) ->
    List.fold_left (fun acc a -> min acc (eval_int env a)) max_int args
  | Ast.Call (("max" | "max0"), args) ->
    List.fold_left (fun acc a -> max acc (eval_int env a)) min_int args
  | _ -> raise (Not_integer e)

let run_nest ~bounds ~skip ?(outer_iteration = ignore) assign loops body =
  (* report each offending source location once, however many iterations
     hit it *)
  let reported = Hashtbl.create 4 in
  let skip (loc : Srcloc.t) what e =
    if not (Hashtbl.mem reported (loc.line, loc.col, what)) then (
      Hashtbl.add reported (loc.line, loc.col, what) ();
      skip loc what e)
  in
  let rec exec ~outer env stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.kind with
        | Ast.Assign (lhs, e) -> assign ~skip env s.loc lhs e
        | Ast.Do d -> (
          match
            ( eval_int env d.lo,
              eval_int env d.hi,
              match d.step with None -> 1 | Some e -> eval_int env e )
          with
          | lo, hi, step ->
            let i = ref lo in
            while (step > 0 && !i <= hi) || (step < 0 && !i >= hi) do
              let env' x = if String.equal x d.var then !i else env x in
              exec ~outer:false env' d.body;
              if outer then outer_iteration ();
              i := !i + step
            done
          | exception Not_integer e -> skip s.loc "loop bound" e)
        | Ast.If (branches, els) -> (
          match branches with
          | (_, body) :: _ -> exec ~outer env body
          | [] -> exec ~outer env els)
        | Ast.Call_stmt _ | Ast.Return -> ())
      stmts
  in
  exec ~outer:true bounds (wrap_nest loops body)
