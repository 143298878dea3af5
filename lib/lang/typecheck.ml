type sym = {
  ty : Ast.dtype;
  dims : Ast.array_dim list;
  is_param : bool;
  element_bytes : int;
}

module SMap = Map.Make (String)

type symtab = sym SMap.t

exception Type_error of string * Srcloc.t

type checked = { routine : Ast.routine; symbols : symtab }

let is_float_type = function Ast.Treal | Ast.Tdouble -> true | Ast.Tint | Ast.Tlogical -> false

let type_bytes = function
  | Ast.Tint -> 4
  | Ast.Treal -> 4
  | Ast.Tdouble -> 8
  | Ast.Tlogical -> 4

(* Fortran implicit typing: names starting with i..n are integer, others real *)
let implicit_type name =
  if String.length name > 0 && name.[0] >= 'i' && name.[0] <= 'n' then Ast.Tint
  else Ast.Treal

let lookup tab name = SMap.find_opt name tab
let symbols_list tab = SMap.bindings tab

let err loc fmt = Printf.ksprintf (fun m -> raise (Type_error (m, loc))) fmt

let join_numeric loc a b =
  match (a, b) with
  | Ast.Tlogical, _ | _, Ast.Tlogical -> err loc "logical operand in numeric context"
  | Ast.Tdouble, _ | _, Ast.Tdouble -> Ast.Tdouble
  | Ast.Treal, _ | _, Ast.Treal -> Ast.Treal
  | Ast.Tint, Ast.Tint -> Ast.Tint

(* the type of [e] from its direct subexpressions' types, which [sub]
   gives (raising as this does on an ill-typed one) *)
let node_type_loc tab loc sub (e : Ast.expr) : Ast.dtype =
  match e with
  | Ast.Int _ -> Ast.Tint
  | Ast.Real (_, ty) -> ty
  | Ast.Logical _ -> Ast.Tlogical
  | Ast.Var x -> (
    match SMap.find_opt x tab with
    | Some s ->
      if s.dims <> [] then err loc "array %s used without subscripts" x;
      s.ty
    | None -> implicit_type x)
  | Ast.Index (a, subs) -> (
    match SMap.find_opt a tab with
    | Some s ->
      if s.dims = [] then err loc "scalar %s used with subscripts" a;
      if List.length subs <> List.length s.dims then
        err loc "array %s has %d dimensions but %d subscripts" a (List.length s.dims)
          (List.length subs);
      List.iter
        (fun e ->
          match sub e with
          | Ast.Tint -> ()
          | _ -> err loc "non-integer subscript of %s" a)
        subs;
      s.ty
    | None -> err loc "reference to undeclared array or function %s" a)
  | Ast.Call (f, args) -> (
    match Intrinsics.find f with
    | Some info ->
      if info.arity >= 0 && List.length args <> info.arity then
        err loc "intrinsic %s expects %d arguments" f info.arity;
      if info.arity < 0 && List.length args < 2 then
        err loc "intrinsic %s expects at least 2 arguments" f;
      let arg_types = List.map sub args in
      if List.exists (fun t -> t = Ast.Tlogical) arg_types then
        err loc "logical argument to intrinsic %s" f;
      (* generic min/max follow their arguments (Fortran 90 semantics) *)
      if info.cost = Intrinsics.Minmax then
        List.fold_left (join_numeric loc) Ast.Tint arg_types
      else if info.result_real then
        if List.exists (fun t -> t = Ast.Tdouble) arg_types then Ast.Tdouble else Ast.Treal
      else Ast.Tint
    | None ->
      (* external function: implicit result type; whole arrays may be
         passed by reference *)
      List.iter
        (fun a ->
          match a with
          | Ast.Var x when (match SMap.find_opt x tab with Some s -> s.dims <> [] | None -> false) -> ()
          | _ -> ignore (sub a))
        args;
      implicit_type f)
  | Ast.Unop (Ast.Neg, a) ->
    let t = sub a in
    if t = Ast.Tlogical then err loc "negation of a logical";
    t
  | Ast.Unop (Ast.Not, a) ->
    if sub a <> Ast.Tlogical then err loc ".not. of a non-logical";
    Ast.Tlogical
  | Ast.Binop (op, a, b) -> (
    let ta = sub a and tb = sub b in
    match op with
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> join_numeric loc ta tb
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      ignore (join_numeric loc ta tb);
      Ast.Tlogical
    | Ast.And | Ast.Or ->
      if ta <> Ast.Tlogical || tb <> Ast.Tlogical then err loc "logical operator on non-logicals";
      Ast.Tlogical)

let expr_type_loc tab loc e =
  let rec go e = node_type_loc tab loc go e in
  go e

let node_type tab sub e = node_type_loc tab Srcloc.dummy sub e

let expr_type tab e = expr_type_loc tab Srcloc.dummy e

(* rewrite Index -> Call when the base is not an array in scope *)
let rec resolve_expr tab (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Int _ | Ast.Real _ | Ast.Logical _ | Ast.Var _ -> e
  | Ast.Index (a, subs) ->
    let subs = List.map (resolve_expr tab) subs in
    (match SMap.find_opt a tab with
     | Some _ -> Ast.Index (a, subs) (* declared scalar: flagged by the checker *)
     | None -> Ast.Call (a, subs))
  | Ast.Call (f, args) -> Ast.Call (f, List.map (resolve_expr tab) args)
  | Ast.Unop (op, a) -> Ast.Unop (op, resolve_expr tab a)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, resolve_expr tab a, resolve_expr tab b)

let rec resolve_stmt tab (s : Ast.stmt) : Ast.stmt =
  let kind =
    match s.Ast.kind with
    | Ast.Assign (lhs, e) -> Ast.Assign ({ lhs with subs = List.map (resolve_expr tab) lhs.subs }, resolve_expr tab e)
    | Ast.If (branches, els) ->
      Ast.If
        ( List.map (fun (c, b) -> (resolve_expr tab c, List.map (resolve_stmt tab) b)) branches,
          List.map (resolve_stmt tab) els )
    | Ast.Do d ->
      Ast.Do
        {
          d with
          lo = resolve_expr tab d.lo;
          hi = resolve_expr tab d.hi;
          step = Option.map (resolve_expr tab) d.step;
          body = List.map (resolve_stmt tab) d.body;
        }
    | Ast.Call_stmt (f, args) -> Ast.Call_stmt (f, List.map (resolve_expr tab) args)
    | Ast.Return -> Ast.Return
  in
  { s with kind }

let rec check_stmt tab (s : Ast.stmt) : unit =
  let loc = s.Ast.loc in
  match s.Ast.kind with
  | Ast.Assign (lhs, e) ->
    let lhs_ty =
      if lhs.subs = [] then (
        match SMap.find_opt lhs.base tab with
        | Some sym ->
          if sym.dims <> [] then err loc "assignment to whole array %s" lhs.base;
          sym.ty
        | None -> implicit_type lhs.base)
      else expr_type_loc tab loc (Ast.Index (lhs.base, lhs.subs))
    in
    let rhs_ty = expr_type_loc tab loc e in
    (match (lhs_ty, rhs_ty) with
     | Ast.Tlogical, Ast.Tlogical -> ()
     | Ast.Tlogical, _ | _, Ast.Tlogical -> err loc "mixed logical/numeric assignment"
     | _ -> () (* numeric coercions are implicit *))
  | Ast.If (branches, els) ->
    List.iter
      (fun (c, body) ->
        if expr_type_loc tab loc c <> Ast.Tlogical then err loc "if condition is not logical";
        List.iter (check_stmt tab) body)
      branches;
    List.iter (check_stmt tab) els
  | Ast.Do d ->
    (match SMap.find_opt d.var tab with
     | Some { ty = Ast.Tint; dims = []; _ } | None -> ()
     | Some { ty; dims = []; _ } when ty <> Ast.Tint -> err loc "do index %s is not integer" d.var
     | Some _ -> err loc "do index %s is an array" d.var);
    List.iter
      (fun e ->
        if expr_type_loc tab loc e <> Ast.Tint then err loc "loop bound is not an integer")
      (d.lo :: d.hi :: Option.to_list d.step);
    List.iter (check_stmt tab) d.body
  | Ast.Call_stmt (_, args) ->
    List.iter
      (fun a ->
        match a with
        | Ast.Var x when (match SMap.find_opt x tab with Some s -> s.dims <> [] | None -> false) ->
          () (* whole array passed by reference *)
        | _ -> ignore (expr_type_loc tab loc a))
      args
  | Ast.Return -> ()

let build_symtab (r : Ast.routine) : symtab =
  let tab = ref SMap.empty in
  List.iter
    (fun (d : Ast.decl) ->
      if SMap.mem d.dname !tab then
        raise (Type_error ("duplicate declaration of " ^ d.dname, Srcloc.dummy));
      tab :=
        SMap.add d.dname
          {
            ty = d.dty;
            dims = d.dims;
            is_param = List.mem d.dname r.params;
            element_bytes = type_bytes d.dty;
          }
          !tab)
    r.decls;
  (* parameters without declarations get implicit types *)
  List.iter
    (fun p ->
      if not (SMap.mem p !tab) then
        tab :=
          SMap.add p
            { ty = implicit_type p; dims = []; is_param = true; element_bytes = type_bytes (implicit_type p) }
            !tab)
    r.params;
  !tab

let sp_typecheck = Pperf_obs.Obs.span "typecheck"

let check_routine (r : Ast.routine) : checked =
  Pperf_obs.Obs.time sp_typecheck (fun () ->
      let tab = build_symtab r in
      let body = List.map (resolve_stmt tab) r.body in
      let routine = { r with body } in
      List.iter (check_stmt tab) body;
      { routine; symbols = tab })

let check_program (p : Ast.program) : checked list = List.map check_routine p

let array_extent (s : sym) : Pperf_symbolic.Poly.t list =
  let module Poly = Pperf_symbolic.Poly in
  List.map
    (fun (d : Ast.array_dim) ->
      let hi = match Sym_expr.to_poly d.dim_hi with Some p -> p | None -> Poly.var "?dim" in
      match d.dim_lo with
      | None -> hi (* 1-based: extent = hi *)
      | Some lo ->
        let lo = match Sym_expr.to_poly lo with Some p -> p | None -> Poly.zero in
        Poly.add (Poly.sub hi lo) Poly.one)
    s.dims
