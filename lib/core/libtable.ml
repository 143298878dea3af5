(** Procedure and library-routine cost interface (§3.5).

    "Table look-up of the performance expression can be used to find the
    cost of external function calls or library routines. ... The
    performance expressions are parameterized with the formal parameters.
    Actual parameters are substituted at the call site to get more specific
    performance expressions." *)

open Pperf_symbolic
open Pperf_lang

type entry = {
  formals : string list;  (** names the stored expression is written in *)
  cost : Perf_expr.t;
}

type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 16

let register t name ~formals cost = Hashtbl.replace t name { formals; cost }

let mem t name = Hashtbl.mem t name

(** Substitute actual arguments for formals; non-polynomial actuals leave
    the formal in place, renamed to [<callee>.<formal>] so it stays a
    distinct unknown. *)
let call_cost t name (actuals : Ast.expr list) : Perf_expr.t option =
  match Hashtbl.find_opt t name with
  | None -> None
  | Some entry ->
    let substitute poly =
      let n = List.length entry.formals in
      let pairs =
        List.mapi
          (fun i formal ->
            let replacement =
              if i < List.length actuals then
                match Sym_expr.to_poly (List.nth actuals i) with
                | Some p -> p
                | None -> Poly.var (name ^ "." ^ formal)
              else Poly.var (name ^ "." ^ formal)
            in
            (formal, replacement))
          entry.formals
      in
      ignore n;
      List.fold_left (fun acc (formal, repl) -> Poly.subst formal repl acc) poly pairs
    in
    Some (Perf_expr.map substitute entry.cost)
