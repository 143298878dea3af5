open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_sched
module Translator = Pperf_translate.Translator
module Memcost = Pperf_memcost.Memcost
module Diagnostic = Pperf_lint.Diagnostic
module Obs = Pperf_obs.Obs

let sp_bounds = Obs.span "bounds"
let c_nests = Obs.counter "bounds.nests"
let c_chains = Obs.counter "bounds.lcd_chains"
let c_disagreements = Obs.counter "bounds.disagreements"
let c_compute = Obs.counter "bounds.compute_bound"
let c_latency = Obs.counter "bounds.latency_bound"
let c_memory = Obs.counter "bounds.memory_bound"

type carried = {
  carray : string;
  clevel : string;
  cdistance : int;
  cexact : bool;
  cratio : Rat.t;
}

type classification = Compute_bound | Latency_bound | Memory_bound

type nest = {
  at : Srcloc.t;
  loop_vars : string list;
  trips : Poly.t;
  bin_per_iter : int;
  bin_once : int;
  critical_path : int;
  lcd_per_iter : Rat.t;
  carried : carried list;
  bin_bound : Poly.t;
  lcd_bound : Poly.t;
  mem_bound : Poly.t option;
  classification : classification;
  disagreement : Diagnostic.t option;
}

type routine = { rname : string; nests : nest list; diagnostics : Diagnostic.t list }

let classification_string = function
  | Compute_bound -> "compute-bound"
  | Latency_bound -> "LCD-bound"
  | Memory_bound -> "memory-bound"

(* ---------------------------------------------------- carried distances *)

(* distances farther out than this contribute < 1 cycle/iter for any
   realistic latency and would blow up the lifted DAG *)
let max_distance = 16

(* the coefficient of [v]^1 when [p] is affine in [v] and the coefficient
   is a constant *)
let coeff1 v p =
  if Poly.degree_in v p <> 1 then None
  else
    match List.assoc_opt 1 (Poly.coeffs_in v p) with
    | Some c -> Poly.to_const c
    | None -> None

(* The iteration distance of a carried dependence at loop [lvar]: the
   source writes a*i + c_s, the destination reads a*i + c_d, so the read
   at iteration i touches what was written d = (c_s - c_d)/a iterations
   earlier. Solved per subscript; all subscripts that vary in [lvar] must
   agree, else the distance is unknown. *)
let distance_of ~lvar (dep : Depend.dependence) =
  if List.length dep.src.Analysis.subs <> List.length dep.dst.Analysis.subs then None
  else (
    let candidates =
      List.filter_map
        (fun (es, ed) ->
          match (Sym_expr.to_poly es, Sym_expr.to_poly ed) with
          | Some ps, Some pd
            when Poly.degree_in lvar ps = 1 || Poly.degree_in lvar pd = 1 -> (
            match (coeff1 lvar ps, coeff1 lvar pd) with
            | Some a, Some b when Rat.equal a b && not (Rat.is_zero a) ->
              let diff = Poly.sub ps pd in
              if Poly.is_const diff then (
                let d = Rat.div (Poly.constant_term diff) a in
                if Rat.is_integer d then Rat.to_int d else None)
              else None
            | _ -> None)
          | _ -> None)
        (List.combine dep.src.Analysis.subs dep.dst.Analysis.subs)
    in
    match candidates with
    | d :: rest when List.for_all (fun x -> x = d) rest -> Some d
    | _ -> None)

(* the first loop level (outermost first) whose direction is not Eq *)
let carrying_level directions =
  let rec go i = function
    | [] -> None
    | Depend.Eq :: rest -> go (i + 1) rest
    | (Depend.Lt | Depend.Gt) :: _ -> Some i
  in
  go 0 directions

(* ------------------------------------------------ iteration-crossing DAG *)

(* the body nodes that load or store an element of [array] *)
let nodes_of array refs = List.filter_map (fun (a, k) -> if String.equal a array then Some k else None) refs

(* [body] replicated [k] times with carry edges: each (prod, cons, dist)
   adds a dependence from copy t's [cons] back to copy (t - dist)'s
   [prod] — Dag.repeat generalized to distances > 1 *)
let lift body carries k =
  let nb = Dag.length body in
  let arr =
    Array.init (k * nb) (fun idx ->
        let t = idx / nb and i = idx mod nb in
        let n = Dag.node body i in
        let deps = List.map (fun d -> d + (t * nb)) n.Dag.deps in
        let deps =
          List.fold_left
            (fun acc (prod, cons, dist) ->
              if cons = i && t >= dist then (prod + ((t - dist) * nb)) :: acc else acc)
            deps carries
        in
        (n.Dag.op, deps, n.Dag.label))
  in
  Dag.make arr

(* critical-path slope of the lifted DAG: cycles per iteration once the
   transient has died out. Warm up past the longest distance, then measure
   over a window that is a multiple of every distance <= max_distance. *)
let chain_ratio body carries =
  match carries with
  | [] -> Rat.zero
  | _ ->
    let dmax = List.fold_left (fun acc (_, _, d) -> max acc d) 1 carries in
    let k1 = 4 * dmax and k2 = 8 * dmax in
    let cp1 = Dag.critical_path (lift body carries k1) in
    let cp2 = Dag.critical_path (lift body carries k2) in
    Rat.max Rat.zero (Rat.of_ints (cp2 - cp1) (k2 - k1))

(* ------------------------------------------------------------- per nest *)

(* the carried flow dependences of the nest, with resolved distances *)
let carried_chains ~(loops : Analysis.loop_ctx list) body =
  let deps = Depend.dependences_in (Analysis.wrap_nest loops body) in
  List.filter_map
    (fun (dep : Depend.dependence) ->
      if dep.kind <> Depend.Flow then None
      else
        match carrying_level dep.directions with
        | None -> None
        | Some lvl -> (
          match List.nth_opt loops lvl with
          | None -> None
          | Some l -> (
            let solved = distance_of ~lvar:l.Analysis.lvar dep in
            match solved with
            | Some d when d <= 0 || d > max_distance -> None
            | Some d -> Some (dep.src.Analysis.array, l.Analysis.lvar, d, true)
            | None ->
              (* conservative: an unresolved carried flow chain is
                 assumed to serialize consecutive iterations *)
              Some (dep.src.Analysis.array, l.Analysis.lvar, 1, false))))
    deps
  (* one chain per (array, level, distance): uniformly generated pairs
     produce duplicate dependences *)
  |> List.sort_uniq compare

let point bindings v =
  match List.assoc_opt v bindings with Some f -> f | None -> 256.0

let pp_rat fmt r =
  if Rat.is_integer r then Format.fprintf fmt "%s" (Rat.to_string r)
  else Format.fprintf fmt "%s (~%.1f)" (Rat.to_string r) (Rat.to_float r)

let rat_string r = Format.asprintf "%a" pp_rat r

let analyze_nest ~machine ~include_memory ~bindings ~symtab ~invariants
    (loops, body) =
  match body with
  | [] -> None
  | (first : Ast.stmt) :: _ -> (
    let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
    match
      Translator.translate_block ~machine ~symtab ~loop_vars ~invariants body
    with
    | exception _ -> None
    | res ->
      Obs.incr c_nests;
      (* bin-packing: the aggregate's steady state of the body plus loop
         control, and the standalone one-iteration cost *)
      let bin_once, bin_per_iter =
        Bins.steady_state (Bins.create machine)
          (Dag.concat res.Translator.body (Translator.loop_overhead_dag ~machine ()))
      in
      let critical_path = Dag.critical_path res.Translator.body in
      (* LCD: carry edges from each store of the carried array to each of
         its loads, at the dependence distance *)
      let chains = carried_chains ~loops body in
      let carry_edges (a, _, d, _) =
        let stores = nodes_of a res.Translator.array_stores in
        let loads = nodes_of a res.Translator.array_loads in
        List.concat_map (fun s -> List.map (fun l -> (s, l, d)) loads) stores
      in
      let carried =
        List.filter_map
          (fun ((a, lvl, d, exact) as chain) ->
            match carry_edges chain with
            | [] -> None
            | edges ->
              Obs.incr c_chains;
              Some
                {
                  carray = a;
                  clevel = lvl;
                  cdistance = d;
                  cexact = exact;
                  cratio = chain_ratio res.Translator.body edges;
                })
          chains
      in
      let all_edges = List.concat_map carry_edges chains in
      let lcd_per_iter = chain_ratio res.Translator.body all_edges in
      let trips = List.fold_left (fun acc l -> Poly.mul acc (Analysis.trip l)) Poly.one loops in
      let bin_bound = Poly.scale_int bin_per_iter trips in
      let lcd_bound = Poly.scale lcd_per_iter trips in
      let mem_bound =
        if include_memory then
          Some (Memcost.nest_cost ~machine ~symtab loops body)
        else None
      in
      (* classify at a concrete point: the bound expressions are
         polynomials, so "which is largest" needs values *)
      let ev p = Poly.eval_float (point bindings) p in
      let b_bin = ev bin_bound and b_lcd = ev lcd_bound in
      let b_mem = Option.map ev mem_bound in
      let classification =
        match b_mem with
        | Some m when m > b_bin && m > b_lcd -> Memory_bound
        | _ when b_lcd > b_bin -> Latency_bound
        | _ -> Compute_bound
      in
      (match classification with
       | Compute_bound -> Obs.incr c_compute
       | Latency_bound -> Obs.incr c_latency
       | Memory_bound -> Obs.incr c_memory);
      let disagreement =
        match classification with
        | Compute_bound -> None
        | Latency_bound ->
          Obs.incr c_disagreements;
          Some
            (Diagnostic.make Diagnostic.Precision ~check:"bound-disagreement"
               ~loc:first.Ast.loc
               (Printf.sprintf
                  "LCD bound %s (%s cycles/iter through the carried chain%s) exceeds \
                   the bin-packing bound %s (%d cycles/iter); the schedule-packing \
                   model is optimistic for this nest"
                  (Poly.to_string lcd_bound) (rat_string lcd_per_iter)
                  (match carried with
                   | { carray; clevel; cdistance; _ } :: _ ->
                     Printf.sprintf " on %s, distance %d at loop %s" carray cdistance
                       clevel
                   | [] -> "")
                  (Poly.to_string bin_bound) bin_per_iter))
        | Memory_bound ->
          Obs.incr c_disagreements;
          let mem = Option.get mem_bound in
          Some
            (Diagnostic.make Diagnostic.Precision ~check:"bound-disagreement"
               ~loc:first.Ast.loc
               (Printf.sprintf
                  "memory bound %s exceeds the bin-packing bound %s (%.0f vs %.0f \
                   cycles at the evaluation point); the nest streams more lines than \
                   the schedule hides"
                  (Poly.to_string mem) (Poly.to_string bin_bound)
                  (Option.get b_mem) b_bin))
      in
      Some
        {
          at = first.Ast.loc;
          loop_vars;
          trips;
          bin_per_iter;
          bin_once;
          critical_path;
          lcd_per_iter;
          carried;
          bin_bound;
          lcd_bound;
          mem_bound;
          classification;
          disagreement;
        })

(* every innermost nest of the fragment; [bindings] supply concrete values
   for the classification comparison, unbound unknowns default to 256 *)
let analyze_stmts ~machine ?(include_memory = false) ?(bindings = []) ~symtab body =
  Obs.time sp_bounds @@ fun () ->
  let declared = Analysis.declared_names symtab in
  let nests =
    List.filter_map
      (fun (loops, d, body) ->
        (* the body translates as the aggregation translates it: with the
           invariants of its innermost enclosing loop *)
        let invariants = Analysis.loop_invariants ~declared d in
        analyze_nest ~machine ~include_memory ~bindings ~symtab ~invariants (loops, body))
      (Analysis.innermost_nests body)
  in
  (nests, List.filter_map (fun n -> n.disagreement) nests)

let analyze ~machine ?include_memory ?bindings (checked : Typecheck.checked) =
  let nests, diagnostics =
    analyze_stmts ~machine ?include_memory ?bindings ~symtab:checked.symbols
      checked.routine.Ast.body
  in
  { rname = checked.routine.Ast.rname; nests; diagnostics }

let steady_total r =
  List.fold_left
    (fun acc n ->
      let rate_bound =
        (* valid for every positive trip count: both totals are the same
           trips polynomial scaled by their per-iteration rate *)
        if Rat.compare n.lcd_per_iter (Rat.of_int n.bin_per_iter) > 0 then n.lcd_bound
        else n.bin_bound
      in
      let acc = Poly.add acc rate_bound in
      match n.mem_bound with Some m -> Poly.add acc m | None -> acc)
    Poly.zero r.nests
