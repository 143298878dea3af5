(** Pretty-printing PF programs back to concrete syntax.

    Output re-parses to an equal AST (round-trip property-tested), which
    matters because the restructurer prints transformed programs. *)

let binop_str = function
  | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/" | Ast.Pow -> "**"
  | Ast.Eq -> "==" | Ast.Ne -> "/=" | Ast.Lt -> "<" | Ast.Le -> "<=" | Ast.Gt -> ">" | Ast.Ge -> ">="
  | Ast.And -> ".and." | Ast.Or -> ".or."

let prec = function
  | Ast.Or -> 1
  | Ast.And -> 2
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 3
  | Ast.Add | Ast.Sub -> 4
  | Ast.Mul | Ast.Div -> 5
  | Ast.Pow -> 7

let rec pp_expr ?(parent = 0) fmt (e : Ast.expr) =
  match e with
  | Ast.Int i -> Format.fprintf fmt "%d" i
  | Ast.Real (f, ty) ->
    let s = Printf.sprintf "%.17g" f in
    let s = if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s else s ^ ".0" in
    let s = match ty with Ast.Tdouble -> (match String.index_opt s 'e' with
        | Some i -> String.mapi (fun j c -> if j = i then 'd' else c) s
        | None -> s ^ "d0")
      | _ -> s
    in
    Format.pp_print_string fmt s
  | Ast.Logical b -> Format.pp_print_string fmt (if b then ".true." else ".false.")
  | Ast.Var x -> Format.pp_print_string fmt x
  | Ast.Index (a, subs) | Ast.Call (a, subs) ->
    Format.fprintf fmt "%s(%a)" a
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") (pp_expr ~parent:0))
      subs
  | Ast.Unop (Ast.Neg, a) ->
    if parent > 4 then Format.fprintf fmt "(-%a)" (pp_expr ~parent:6) a
    else Format.fprintf fmt "-%a" (pp_expr ~parent:6) a
  | Ast.Unop (Ast.Not, a) -> Format.fprintf fmt ".not. %a" (pp_expr ~parent:6) a
  | Ast.Binop (op, a, b) ->
    let p = prec op in
    let needs_parens = p < parent || (p = parent && (op = Ast.Sub || op = Ast.Div || op = Ast.Pow)) in
    let body fmt () =
      (* left operand printed at own precedence, right one notch higher for
         the non-associative cases *)
      Format.fprintf fmt "%a %s %a" (pp_expr ~parent:p) a (binop_str op) (pp_expr ~parent:(p + 1)) b
    in
    if needs_parens then Format.fprintf fmt "(%a)" body () else body fmt ()

let expr_to_string e = Format.asprintf "%a" (pp_expr ~parent:0) e

let dtype_str = function
  | Ast.Tint -> "integer"
  | Ast.Treal -> "real"
  | Ast.Tdouble -> "double precision"
  | Ast.Tlogical -> "logical"

let pp_lhs fmt (l : Ast.lhs) =
  if l.subs = [] then Format.pp_print_string fmt l.base
  else
    Format.fprintf fmt "%s(%a)" l.base
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") (pp_expr ~parent:0))
      l.subs

let rec pp_stmt indent fmt (s : Ast.stmt) =
  let pad = String.make indent ' ' in
  match s.Ast.kind with
  | Ast.Assign (lhs, e) -> Format.fprintf fmt "%s%a = %a@." pad pp_lhs lhs (pp_expr ~parent:0) e
  | Ast.Do d ->
    Format.fprintf fmt "%sdo %s = %a, %a%t@." pad d.var (pp_expr ~parent:0) d.lo
      (pp_expr ~parent:0) d.hi
      (fun fmt ->
        match d.step with
        | Some st -> Format.fprintf fmt ", %a" (pp_expr ~parent:0) st
        | None -> ());
    List.iter (pp_stmt (indent + 2) fmt) d.body;
    Format.fprintf fmt "%send do@." pad
  | Ast.If (branches, els) ->
    List.iteri
      (fun i (c, body) ->
        Format.fprintf fmt "%s%s (%a) then@." pad
          (if i = 0 then "if" else "else if")
          (pp_expr ~parent:0) c;
        List.iter (pp_stmt (indent + 2) fmt) body)
      branches;
    if els <> [] then (
      Format.fprintf fmt "%selse@." pad;
      List.iter (pp_stmt (indent + 2) fmt) els);
    Format.fprintf fmt "%send if@." pad
  | Ast.Call_stmt (f, []) -> Format.fprintf fmt "%scall %s@." pad f
  | Ast.Call_stmt (f, args) ->
    Format.fprintf fmt "%scall %s(%a)@." pad f
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") (pp_expr ~parent:0))
      args
  | Ast.Return -> Format.fprintf fmt "%sreturn@." pad

let pp_decl indent fmt (d : Ast.decl) =
  let pad = String.make indent ' ' in
  if d.dims = [] then Format.fprintf fmt "%s%s %s@." pad (dtype_str d.dty) d.dname
  else
    Format.fprintf fmt "%s%s %s(%a)@." pad (dtype_str d.dty) d.dname
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (fun fmt (dim : Ast.array_dim) ->
           match dim.dim_lo with
           | None -> pp_expr ~parent:0 fmt dim.dim_hi
           | Some lo -> Format.fprintf fmt "%a:%a" (pp_expr ~parent:0) lo (pp_expr ~parent:0) dim.dim_hi))
      d.dims

let pp_routine fmt (r : Ast.routine) =
  (match r.rkind with
   | Ast.Main -> Format.fprintf fmt "program %s@." r.rname
   | Ast.Subroutine ->
     if r.params = [] then Format.fprintf fmt "subroutine %s@." r.rname
     else
       Format.fprintf fmt "subroutine %s(%a)@." r.rname
         (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") Format.pp_print_string)
         r.params
   | Ast.Function ty ->
     Format.fprintf fmt "%s function %s(%a)@." (dtype_str ty) r.rname
       (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") Format.pp_print_string)
       r.params);
  List.iter (pp_decl 2 fmt) r.decls;
  List.iter (pp_stmt 2 fmt) r.body;
  Format.fprintf fmt "end@."

let routine_to_string r = Format.asprintf "%a" pp_routine r
let stmts_to_string ss = Format.asprintf "%a" (fun fmt -> List.iter (pp_stmt 0 fmt)) ss
