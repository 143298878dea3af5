module SSet = Set.Make (String)
module Poly = Pperf_symbolic.Poly

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

(* [visit scope at ~is_write array subs] on every array reference of
   [stmts] in textual order, [scope] being what [enter] made of the
   enclosing loops (outermost first); [around scope d refs] runs [refs],
   the visits of the loop's bound expressions and body, and [block stmts
   refs] the visits of each statement list: the walk {!array_refs} and
   the nest table share *)
let iter_refs ?(around = fun _ _ refs -> refs ()) ?(block = fun _ refs -> refs ()) ~enter ~visit
    scope stmts =
  let rec expr scope at (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Real _ | Ast.Logical _ | Ast.Var _ -> ()
    | Ast.Index (a, subs) ->
      visit scope at ~is_write:false a subs;
      List.iter (expr scope at) subs
    | Ast.Call (_, args) -> List.iter (expr scope at) args
    | Ast.Unop (_, a) -> expr scope at a
    | Ast.Binop (_, a, b) ->
      expr scope at a;
      expr scope at b
  in
  let rec go scope stmts =
    block stmts @@ fun () ->
    List.iter
      (fun (s : Ast.stmt) ->
        let at = s.loc in
        match s.kind with
        | Ast.Assign (lhs, e) ->
          if lhs.subs <> [] then (
            visit scope at ~is_write:true lhs.base lhs.subs;
            List.iter (expr scope at) lhs.subs);
          expr scope at e
        | Ast.If (branches, els) ->
          List.iter
            (fun (c, body) ->
              expr scope at c;
              go scope body)
            branches;
          go scope els
        | Ast.Do d ->
          around scope d (fun () ->
              List.iter (expr scope at) (d.lo :: d.hi :: Option.to_list d.step);
              go (enter scope d) d.body)
        | Ast.Call_stmt (_, args) -> List.iter (expr scope at) args
        | Ast.Return -> ())
      stmts
  in
  go scope stmts

let array_refs stmts =
  let acc = ref [] in
  iter_refs
    ~enter:(fun loops d -> loops @ [ ctx_of_do d ])
    ~visit:(fun loops at ~is_write array subs ->
      acc := { array; subs; is_write; loops; at } :: !acc)
    [] stmts;
  List.rev !acc

(* [acc] with the names the expression reads *)
let add_reads acc e =
  Ast.fold_expr
    (fun acc e ->
      match e with
      | Ast.Var x -> SSet.add x acc
      | Ast.Index (a, _) -> SSet.add a acc
      | _ -> acc)
    acc e

let expr_reads e = add_reads SSet.empty e

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
  let add_expr e = acc := add_reads !acc e in
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

(* ---- the loop-nest table ---- *)

let c_views = Pperf_obs.Obs.counter "analysis.affine_views"

type nest_loop = { lctx : loop_ctx; lbounds : (Poly.t option * Poly.t option) Lazy.t }

let nest_loop l = { lctx = l; lbounds = lazy (Sym_expr.to_poly l.llo, Sym_expr.to_poly l.lhi) }

(* one subscript expression: its polynomial, and its affine view over each
   list of index variables it has been viewed over; a table keeps one per
   distinct expression, so every reference that spells it shares them *)
type form = {
  poly : Poly.t option Lazy.t;
  mutable forms_views : (string list * (int list * Poly.t) option) list;
}

let form e = { poly = lazy (Sym_expr.to_poly e); forms_views = [] }

(* the loops around a reference: their entries, their variables, and
   whether a name repeats; shared by every reference under the same loop *)
type scope = { nloops : nest_loop list; vars : string array; distinct : bool }

let no_loops = { nloops = []; vars = [||]; distinct = true }

(* the scope inside one more loop *)
let inside sc l =
  {
    nloops = sc.nloops @ [ l ];
    vars = Array.append sc.vars [| l.lctx.lvar |];
    distinct = sc.distinct && not (Array.mem l.lctx.lvar sc.vars);
  }

type nest_ref = {
  aref : array_ref;
  scope : scope;
  forms : form list;  (** one per subscript *)
  mutable views : (int * int * (int list * Poly.t) option list) list;
      (** by window: its first loop and its length *)
}

let entry_ref e = e.aref
let entry_loops e = e.scope.nloops
let subscript_polys e = List.map (fun f -> Lazy.force f.poly) e.forms

let window_vars e ~from ~len = Array.to_list (Array.sub e.scope.vars from len)

(* the full view with the terms of the loops outside the window moved
   into the residue *)
let fold_window e ~from ~len (coeffs, rest) =
  let inside = ref [] and rest = ref rest in
  List.iteri
    (fun k c ->
      if k >= from && k < from + len then inside := c :: !inside
      else if c <> 0 then rest := Poly.add !rest (Poly.scale_int c (Poly.var e.scope.vars.(k))))
    coeffs;
  (List.rev !inside, !rest)

(* the subscript's view over [vars], computed once per form by [compute] *)
let form_view f vars compute =
  match List.find_opt (fun (vs, _) -> List.equal String.equal vs vars) f.forms_views with
  | Some (_, v) -> v
  | None ->
    let v = compute () in
    Pperf_obs.Obs.incr c_views;
    f.forms_views <- (vars, v) :: f.forms_views;
    v

let view_over f vars =
  form_view f vars (fun () -> Option.bind (Lazy.force f.poly) (Sym_expr.affine_of_poly vars))

let affine_view e ~from ~len =
  match List.find_opt (fun (f, l, _) -> f = from && l = len) e.views with
  | Some (_, _, v) -> v
  | None ->
    let wvars = window_vars e ~from ~len in
    let v =
      if (from = 0 && len = Array.length e.scope.vars) || not e.scope.distinct then
        List.map (fun f -> view_over f wvars) e.forms
      else (
        let all = Array.to_list e.scope.vars in
        List.map
          (fun f ->
            form_view f wvars (fun () ->
                match view_over f all with
                | Some view -> Some (fold_window e ~from ~len view)
                | None ->
                  (* outside the affine domain over every loop, maybe
                     not over the window's *)
                  Option.bind (Lazy.force f.poly) (Sym_expr.affine_of_poly wvars)))
          e.forms)
    in
    e.views <- (from, len, v) :: e.views;
    v

(* a loop of the table: its references are the entries from [first] to
   [last] (exclusive), its body's from [body] *)
type table_loop = {
  tdo : Ast.do_loop;
  depth : int;  (** enclosing loops *)
  first : int;
  mutable body : int;
  mutable last : int;
  parent : table_loop option;
}

type nests = {
  entries : nest_ref array;
  loops : table_loop list;
  blocks : (Ast.stmt list * int * int) list;
      (** each non-empty statement list with its references' range *)
}

module Forms = Hashtbl.Make (struct
  type t = Ast.expr

  let equal = Ast.equal_expr
  let hash = Hashtbl.hash
end)

let nests stmts =
  let acc = ref [] and count = ref 0 and table_loops = ref [] and entered = ref None
  and blocks = ref [] in
  let forms = Forms.create 16 in
  let form_of e =
    match Forms.find_opt forms e with
    | Some f -> f
    | None ->
      let f = form e in
      Forms.add forms e f;
      f
  in
  iter_refs
    ~around:(fun (loops, _, parent) d refs ->
      let tl = { tdo = d; depth = List.length loops; first = !count; body = 0; last = 0; parent } in
      entered := Some tl;
      refs ();
      tl.last <- !count;
      table_loops := tl :: !table_loops)
    ~block:(fun stmts refs ->
      let first = !count in
      refs ();
      if stmts <> [] then blocks := (stmts, first, !count) :: !blocks)
    ~enter:(fun (loops, sc, _) d ->
      (* the bound expressions are visited: the body starts here *)
      let tl = Option.get !entered in
      tl.body <- !count;
      let l = ctx_of_do d in
      (loops @ [ l ], inside sc (nest_loop l), Some tl))
    ~visit:(fun (loops, sc, _) at ~is_write array subs ->
      incr count;
      let r = { array; subs; is_write; loops; at } in
      acc := { aref = r; scope = sc; forms = List.map form_of subs; views = [] } :: !acc)
    ([], no_loops, None) stmts;
  { entries = Array.of_list (List.rev !acc); loops = !table_loops; blocks = !blocks }

let nest_refs t = t.entries

let slice t (first, last) = Array.sub t.entries first (last - first)
let table_loop t d = List.find (fun tl -> tl.tdo == d) t.loops

let loop_refs t d =
  let tl = table_loop t d in
  Array.map (fun e -> (e, tl.depth)) (slice t (tl.first, tl.last))

let block_range t = function
  | [] -> (0, 0)
  | stmts ->
    let _, first, last = List.find (fun (b, _, _) -> b == stmts) t.blocks in
    (first, last)

let body_refs t stmts = slice t (block_range t stmts)

let innermost_refs t d body =
  (* the bound expressions' ranges of [d] and its enclosing loops,
     outermost first *)
  let rec bounds tl acc =
    let acc = slice t (tl.first, tl.body) :: acc in
    match tl.parent with Some p -> bounds p acc | None -> acc
  in
  Array.map (fun e -> (e, 0)) (Array.concat (bounds (table_loop t d) [ body_refs t body ]))

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
  | None -> Poly.var (trip_var l.lvar)

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
