(** Pretty-printing PF programs back to concrete syntax.

    Output re-parses to an equal AST (property-tested round trip) — the
    restructurer prints transformed programs, so this is a functional
    requirement, not a convenience. *)

val pp_expr : ?parent:int -> Format.formatter -> Ast.expr -> unit
(** [parent] is the enclosing operator precedence, for minimal
    parenthesization. *)

val expr_to_string : Ast.expr -> string
val pp_stmt : int -> Format.formatter -> Ast.stmt -> unit
(** The [int] is the indentation depth in spaces. *)

val pp_decl : int -> Format.formatter -> Ast.decl -> unit
val pp_routine : Format.formatter -> Ast.routine -> unit
val pp_program : Format.formatter -> Ast.program -> unit
val routine_to_string : Ast.routine -> string
val stmts_to_string : Ast.stmt list -> string
val dtype_str : Ast.dtype -> string
val binop_str : Ast.binop -> string
