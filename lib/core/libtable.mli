(** Procedure and library-routine cost interface (§3.5).

    "Table look-up of the performance expression can be used to find the
    cost of external function calls or library routines. ... The
    performance expressions are parameterized with the formal parameters.
    Actual parameters are substituted at the call site to get more specific
    performance expressions." *)

open Pperf_lang

type entry = {
  formals : string list;  (** names the stored expression is written in *)
  cost : Perf_expr.t;
}

type t

val create : unit -> t
val register : t -> string -> formals:string list -> Perf_expr.t -> unit
val mem : t -> string -> bool

val call_cost : t -> string -> Ast.expr list -> Perf_expr.t option
(** Substitute the actual arguments for the formals. A non-polynomial
    actual leaves its formal in place, renamed [<callee>.<formal>], so it
    remains a distinct unknown rather than a wrong guess. *)
