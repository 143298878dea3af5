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
   realistic latency and would blow up the iteration-crossing DAG *)
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
   earlier. Solved per subscript from the two references' subscript
   polynomials; all subscripts that vary in [lvar] must agree, else the
   distance is unknown. *)
let distance_of ~lvar src dst =
  if List.length src <> List.length dst then None
  else (
    let candidates =
      List.filter_map
        (fun (ps, pd) ->
          match (ps, pd) with
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
        (List.combine src dst)
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

(* Critical-path slope of [body] replicated with carry edges: each (prod,
   cons, dist) makes copy t's [cons] wait for copy (t - dist)'s [prod].
   The slope is cycles per iteration once the transient has died out:
   warm up past the longest distance, then measure over a window that is a
   multiple of every distance <= max_distance. One pass of finish times
   over 8 * dmax copies reads both critical paths, since the first
   4 * dmax copies never wait on later ones. *)
let chain_ratio body carries =
  match carries with
  | [] -> Rat.zero
  | _ ->
    let dmax = List.fold_left (fun acc (_, _, d) -> max acc d) 1 carries in
    let k1 = 4 * dmax and k2 = 8 * dmax in
    let nb = Dag.length body in
    let finish = Array.make (k2 * nb) 0 in
    let cp = ref 0 and cp1 = ref 0 in
    for t = 0 to k2 - 1 do
      if t = k1 then cp1 := !cp;
      for i = 0 to nb - 1 do
        let n = Dag.node body i in
        let base = t * nb in
        let ready = List.fold_left (fun acc d -> max acc finish.(base + d)) 0 n.Dag.deps in
        let ready =
          List.fold_left
            (fun acc (prod, cons, dist) ->
              if cons = i && t >= dist then max acc finish.(((t - dist) * nb) + prod) else acc)
            ready carries
        in
        let f = ready + Pperf_machine.Atomic_op.result_latency n.Dag.op in
        finish.(base + i) <- f;
        cp := max !cp f
      done
    done;
    Rat.max Rat.zero (Rat.of_ints (!cp - !cp1) (k2 - k1))

(* ------------------------------------------------------------- per nest *)

(* the carried flow dependences of the nest, with resolved distances *)
let carried_chains ~nests ~(loops : Analysis.loop_ctx list) d body =
  let refs = Analysis.innermost_refs nests d body in
  (* the dependences name the entries' references *)
  let polys r =
    Option.get
      (Array.find_map
         (fun (e, _) -> if Analysis.entry_ref e == r then Some (Analysis.subscript_polys e) else None)
         refs)
  in
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
            let solved = distance_of ~lvar:l.Analysis.lvar (polys dep.src) (polys dep.dst) in
            match solved with
            | Some d when d <= 0 || d > max_distance -> None
            | Some d -> Some (dep.src.Analysis.array, l.Analysis.lvar, d, true)
            | None ->
              (* conservative: an unresolved carried flow chain is
                 assumed to serialize consecutive iterations *)
              Some (dep.src.Analysis.array, l.Analysis.lvar, 1, false))))
    (Depend.dependences_among ~flow_only:true refs)
  (* one chain per (array, level, distance): uniformly generated pairs
     produce duplicate dependences *)
  |> List.sort_uniq compare

let point bindings v =
  match List.assoc_opt v bindings with Some f -> f | None -> 256.0

let pp_rat fmt r =
  if Rat.is_integer r then Format.fprintf fmt "%s" (Rat.to_string r)
  else Format.fprintf fmt "%s (~%.1f)" (Rat.to_string r) (Rat.to_float r)

let rat_string r = Format.asprintf "%a" pp_rat r

type translated = {
  res : Translator.result;
  once : int;  (** the body plus loop control dropped alone *)
  per_iter : int;  (** its two-drop steady state *)
}

(* the body translated as the aggregation translates it, and dropped
   with the loop control into fresh bins twice *)
let translate_nest ~machine ~symtab ~loop_vars ~invariants body =
  let res = Translator.translate_block ~machine ~symtab ~loop_vars ~invariants body in
  let once, per_iter =
    Bins.steady_state (Bins.create machine)
      (Dag.concat res.Translator.body (Translator.loop_overhead_dag ~machine ()))
  in
  { res; once; per_iter }

let analyze_nest ~machine ~include_memory ~bindings ~symtab ~nests ~translated ~invariants
    (loops, d, body) =
  match body with
  | [] -> None
  | (first : Ast.stmt) :: _ -> (
    let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
    match
      match translated ~loop_vars ~invariants body with
      | Some t -> t
      | None -> translate_nest ~machine ~symtab ~loop_vars ~invariants body
    with
    | exception _ -> None
    | { res; once = bin_once; per_iter = bin_per_iter } ->
      Obs.incr c_nests;
      let critical_path = Dag.critical_path res.Translator.body in
      (* LCD: carry edges from each store of the carried array to each of
         its loads, at the dependence distance *)
      let chains = carried_chains ~nests ~loops d body in
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
          Some (Memcost.nest_cost ~nests ~machine ~symtab loops body)
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

let no_translation ~loop_vars:_ ~invariants:_ _ = None

(* every innermost nest of the routine; [bindings] supply concrete values
   for the classification comparison, unbound unknowns default to 256 *)
let analyze ~machine ?(include_memory = false) ?(bindings = []) ?nests
    ?(translated = no_translation) (checked : Typecheck.checked) =
  Obs.time sp_bounds @@ fun () ->
  let symtab = checked.symbols and body = checked.routine.Ast.body in
  let table = match nests with Some t -> t | None -> Analysis.nests body in
  let declared = Analysis.declared_names symtab in
  let nests =
    List.filter_map
      (fun (loops, d, body) ->
        (* the body translates as the aggregation translates it: with the
           invariants of its innermost enclosing loop *)
        let invariants = Analysis.loop_invariants ~declared d in
        analyze_nest ~machine ~include_memory ~bindings ~symtab ~nests:table ~translated
          ~invariants (loops, d, body))
      (Analysis.innermost_nests body)
  in
  {
    rname = checked.routine.Ast.rname;
    nests;
    diagnostics = List.filter_map (fun n -> n.disagreement) nests;
  }

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
