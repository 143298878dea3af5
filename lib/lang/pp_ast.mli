(** Pretty-printing PF programs back to concrete syntax.

    Output re-parses to an equal AST (property-tested round trip) — the
    restructurer prints transformed programs, so this is a functional
    requirement, not a convenience. *)

val expr_to_string : Ast.expr -> string
val routine_to_string : Ast.routine -> string
val stmts_to_string : Ast.stmt list -> string
