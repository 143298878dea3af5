(** Name resolution and type checking for PF routines.

    Also resolves the Fortran parse ambiguity between array references and
    function calls: [a(i)] parses as an array reference and is rewritten to
    a call when [a] is not declared as an array. Undeclared names receive
    Fortran implicit types (I-N integer, the rest real). *)

type sym = {
  ty : Ast.dtype;
  dims : Ast.array_dim list;  (** [[]] for scalars *)
  is_param : bool;
  element_bytes : int;
}

type symtab

exception Type_error of string * Srcloc.t

type checked = {
  routine : Ast.routine;  (** with Index/Call ambiguities resolved *)
  symbols : symtab;
}

val check_routine : Ast.routine -> checked
val check_program : Ast.program -> checked list

val lookup : symtab -> string -> sym option
val symbols_list : symtab -> (string * sym) list

val expr_type : symtab -> Ast.expr -> Ast.dtype
(** @raise Type_error on ill-typed expressions. *)

val node_type : symtab -> (Ast.expr -> Ast.dtype) -> Ast.expr -> Ast.dtype
(** One step of {!expr_type}: the type of an expression given the types
    of its direct subexpressions, which the function returns. A pass that
    types every node bottom-up calls it once per node.
    @raise Type_error as {!expr_type} does. *)

val is_float_type : Ast.dtype -> bool

val array_extent : sym -> Pperf_symbolic.Poly.t list
(** Per-dimension element counts as symbolic polynomials (bounds may
    mention unknowns like [n]). *)
