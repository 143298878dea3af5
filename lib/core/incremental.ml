(** Incremental update of predictions (§3.3.1).

    "Each transformation defines an affected region of performance based on
    the structure it changes"; everything outside the region keeps its
    cached estimate. We realize the affected-region idea structurally: the
    predictor memoizes per-unit predictions — a unit is a maximal
    straight-line run or a single loop/conditional, exactly the granularity
    {!Aggregate.stmts} aggregates at — keyed by the unit's structure and
    context (routine name, symbol table, probability offset), so
    re-predicting a transformed program recomputes exactly the
    units the transformation rebuilt; the untouched ones (and unchanged
    duplicates) hit the cache.

    Cached units reproduce the from-scratch prediction bit-for-bit: each
    unit is costed with the probability-variable counter pre-advanced to
    its position in the whole body ([Aggregate.stmts ~prob_offset]), so
    [p1, p2, ...] names agree with a whole-routine aggregation, and the
    offset is part of the cache key so an edit that inserts or removes a
    probability variable upstream re-predicts the downstream units whose
    names change.

    A statistics counter exposes the hit rate so the incremental-vs-full
    benchmark (PERF-INC in DESIGN.md) can report honest numbers. *)

open Pperf_lang
open Pperf_machine

module Memo = Pperf_obs.Memo

(* a unit's cache key: its context (everything that changes a unit's
   prediction: the routine name, its symbol table, whose variable types,
   array dimensions and element sizes set unit costs, and the
   probability-variable offset) and its statements. Hashing traverses the
   structure (cheap, no string building); equality compares it in full,
   so a hash collision can never return a stale prediction. *)
type key = {
  routine : string;
  syms : (string * Typecheck.sym) list;
  symtab_fp : int;
  prob_offset : int;
  stmts : Ast.stmt list;
}

let key_hash k =
  Hashtbl.hash
    ( k.routine,
      k.symtab_fp,
      k.prob_offset,
      Hashtbl.hash_param 4096 4096 (List.map (fun (s : Ast.stmt) -> s.Ast.kind) k.stmts) )

let sym_equal (a : Typecheck.sym) (b : Typecheck.sym) =
  Ast.equal_dtype a.ty b.ty
  && a.is_param = b.is_param
  && a.element_bytes = b.element_bytes
  && List.equal Ast.equal_array_dim a.dims b.dims

let key_equal a b =
  String.equal a.routine b.routine
  && a.symtab_fp = b.symtab_fp
  && a.prob_offset = b.prob_offset
  && List.equal Ast.equal_stmt a.stmts b.stmts
  && List.equal (fun (n1, s1) (n2, s2) -> String.equal n1 n2 && sym_equal s1 s2) a.syms b.syms

type t = {
  machine : Machine.t;
  options : Aggregate.options;
  units : (key, Aggregate.prediction) Memo.t;
}

let units_memo = "incremental.units"

(* 4,096 units keep a long-lived predictor's memory flat while holding
   the units of every sample and search variant several times over. The
   table is shared, so the server's worker domains can use one predictor. *)
let create ?(options = Aggregate.default_options) machine =
  {
    machine;
    options;
    units = Memo.create ~hash:key_hash ~equal:key_equal Memo.Shared units_memo ~capacity:4096;
  }

let stats t =
  let s = Memo.stats t.units in
  (s.hits, s.misses)

let totals () =
  match List.assoc_opt units_memo (Memo.report ()) with
  | Some s -> (s.hits, s.misses)
  | None -> (0, 0)

let clear t = Memo.clear t.units

(* Predict a routine re-using cached per-unit predictions. With
   [infer_ranges] on, the interval analysis reads the whole body, so units
   are not independent and we fall back to a from-scratch aggregation. *)
let predict_checked t (checked : Typecheck.checked) : Aggregate.prediction =
  if t.options.Aggregate.infer_ranges then
    Aggregate.routine ~machine:t.machine ~options:t.options checked
  else (
    let name = checked.routine.rname in
    let symtab = checked.symbols in
    let syms = Typecheck.symbols_list symtab in
    let symtab_fp = Hashtbl.hash_param 4096 4096 syms in
    let cost, prob_vars, diags, _ =
      List.fold_left
        (fun (cost, vars, diags, prob_offset) unit ->
          let key = { routine = name; syms; symtab_fp; prob_offset; stmts = unit } in
          let p =
            Memo.find_or_add t.units key (fun () ->
                Aggregate.stmts ~machine:t.machine ~options:t.options ~prob_offset ~symtab unit)
          in
          ( Perf_expr.add cost p.Aggregate.cost,
            vars @ p.prob_vars,
            diags @ p.diagnostics,
            prob_offset + List.length p.prob_vars ))
        (Perf_expr.zero, [], [], 0)
        (Analysis.units checked.routine.body)
    in
    { Aggregate.cost; prob_vars; diagnostics = Pperf_lint.Lint.dedupe diags })

let predict t checked = (predict_checked t checked).Aggregate.cost
