(** Program analysis over PF ASTs: loop structure, variable def/use, and
    array reference collection.

    The paper's framework assumes "the cost model does not need to do most
    of the analysis needed for these tasks since [the] program analyzer can
    provide these information" (§2.2.2) — this module is that analyzer. *)

module SSet : Set.S with type elt = string

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
  loops : loop_ctx list;  (** enclosing loops, outermost first *)
  at : Srcloc.t;
}

val array_refs : Ast.stmt list -> array_ref list
(** All array references in textual order, with their loop context. *)

val assigned_vars : Ast.stmt list -> SSet.t
(** Scalars and arrays that may be written (loop indices included). *)

val used_vars : Ast.stmt list -> SSet.t
(** Scalars and arrays read. *)

val invariant_vars : Ast.stmt list -> SSet.t
(** [used_vars \ assigned_vars]: what the fragment reads but never
    writes, which every block inside it may treat as loop-invariant. *)

val expr_reads : Ast.expr -> SSet.t

val loop_indices : Ast.stmt list -> SSet.t
(** All [do] indices in the fragment. *)

val has_call : Ast.expr -> bool
(** Whether the expression contains any function call. *)

val is_invariant_expr : SSet.t -> Ast.expr -> bool
(** [is_invariant_expr assigned e]: no variable read by [e] is in
    [assigned] and [e] has no calls (calls may have side effects). *)

val perfect_nest : Ast.do_loop -> loop_ctx list * Ast.stmt list
(** Longest chain of singly-nested loops from this loop inward, and the
    innermost body. *)

val innermost_bodies : Ast.stmt list -> (loop_ctx list * Ast.stmt list) list
(** Every maximal innermost loop body (no [do] inside) with its loop
    context — the granularity of straight-line cost estimation. *)

val count_statements : Ast.stmt list -> int

val scalar_expansion_candidates : Ast.stmt list -> SSet.t
(** Scalars both written and read within the fragment (e.g. reduction
    accumulators), relevant to the sum-reduction pattern (§2.2.2). *)
