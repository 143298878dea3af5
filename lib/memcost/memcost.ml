open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine

type ref_group = {
  array : string;
  leader : Analysis.array_ref;
  members : int;
  elements : Poly.t;
  lines : Poly.t;
  min_stride_bytes : int option;
}

(* linearized element address of a reference (column-major), as a
   polynomial over loop indices and symbolic extents; None when a
   subscript is not polynomial *)
let linearize ~symtab (r : Analysis.array_ref) : Poly.t option =
  match Typecheck.lookup symtab r.array with
  | None -> None
  | Some sym ->
    let extents = Typecheck.array_extent sym in
    let lower (d : Ast.array_dim) =
      match d.dim_lo with
      | None -> Some Poly.one
      | Some lo -> Sym_expr.to_poly lo
    in
    let rec go subs dims exts scale acc =
      match (subs, dims, exts) with
      | [], [], _ -> Some acc
      | sub :: subs', dim :: dims', ext :: exts' -> (
        match (Sym_expr.to_poly sub, lower dim) with
        | Some sp, Some lp ->
          let term = Poly.mul (Poly.sub sp lp) scale in
          go subs' dims' exts' (Poly.mul scale ext) (Poly.add acc term)
        | _ -> None)
      | _ -> None
    in
    go r.subs sym.dims extents Poly.one Poly.zero

(* constant integer coefficient of a degree-1 variable, if any *)
let const_coeff var poly =
  let cs = Poly.coeffs_in var poly in
  if List.exists (fun (k, _) -> k < 0 || k > 1) cs then None
  else
    match List.assoc_opt 1 cs with
    | None -> Some 0
    | Some c -> (
      match Poly.to_const c with
      | Some r when Rat.is_integer r -> Rat.to_int r
      | _ -> None)

(* Can lines touched by the loops inside [outer_idx] survive in the cache
   so that the next outer iteration reuses them? Needs concrete trip counts;
   accounts for set conflicts when the stride is line-aligned. *)
let reuse_fits ~machine ~bounds inner_lines stride_bytes =
  let cache = machine.Machine.cache in
  match bounds with
  | None -> false (* symbolically unknown: be conservative, no cross-loop reuse *)
  | Some b ->
    let lines =
      match Rat.to_int (Poly.eval (fun v -> Rat.of_int (b v)) inner_lines) with
      | Some v -> max 1 v
      | None -> max_int
    in
    let assoc = if cache.associativity <= 0 then cache.cache_bytes / cache.line_bytes else cache.associativity in
    let num_sets = max 1 (cache.cache_bytes / (cache.line_bytes * assoc)) in
    (* effective capacity: a line-aligned power-of-two-ish stride hits only
       a fraction of the sets *)
    let effective_sets =
      match stride_bytes with
      | Some s when s >= cache.line_bytes && s mod cache.line_bytes = 0 ->
        let stride_lines = s / cache.line_bytes in
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        num_sets / gcd stride_lines num_sets |> max 1
      | _ -> num_sets
    in
    lines * cache.line_bytes <= effective_sets * assoc * cache.line_bytes

let analyze_nest ?bounds ~machine ~symtab loops stmts =
  let cache = machine.Machine.cache in
  let refs = Analysis.array_refs stmts in
  (* group by (array, linear part); the constant offset is dropped *)
  let tbl : (string, Analysis.array_ref * Poly.t option * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun (r : Analysis.array_ref) ->
      let lin = linearize ~symtab r in
      let key =
        match lin with
        | Some p ->
          let linear_part = Poly.sub p (Poly.const (Poly.constant_term p)) in
          r.array ^ "|" ^ Poly.to_string linear_part
        | None -> r.array ^ "|?" ^ string_of_int (Hashtbl.length tbl)
      in
      match Hashtbl.find_opt tbl key with
      | Some (_, _, count) -> incr count
      | None ->
        Hashtbl.add tbl key (r, lin, ref 1);
        order := key :: !order)
    refs;
  let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
  List.rev !order
  |> List.map (fun key ->
         let r, lin, count = Hashtbl.find tbl key in
         let elem_bytes =
           match Typecheck.lookup symtab r.array with
           | Some s -> s.element_bytes
           | None -> 4
         in
         match lin with
         | None ->
           (* unanalyzable: every iteration may touch a new line *)
           let all_trips =
             List.fold_left (fun acc l -> Poly.mul acc (Analysis.trip l)) Poly.one loops
           in
           {
             array = r.array;
             leader = r;
             members = !count;
             elements = all_trips;
             lines = all_trips;
             min_stride_bytes = None;
           }
         | Some addr ->
           (* loops whose index the address depends on *)
           let varying =
             List.filter (fun (l : Analysis.loop_ctx) -> Poly.mem_var l.lvar addr) loops
           in
           let elements =
             List.fold_left (fun acc l -> Poly.mul acc (Analysis.trip l)) Poly.one varying
           in
           (* per-loop constant strides, innermost first *)
           let stride_of (l : Analysis.loop_ctx) =
             match const_coeff l.Analysis.lvar addr with
             | Some c ->
               let step =
                 match l.lstep with
                 | None -> 1
                 | Some (Ast.Int s) -> abs s
                 | Some _ -> 1
               in
               Some (abs c * step * elem_bytes)
             | None -> None
           in
           (* walk loops innermost -> outermost, accumulating the lines the
              sub-nest touches. A loop whose stride is below the line size
              shares lines along its direction: always for the innermost
              varying loop (a contiguous streak), and for an outer loop only
              when the inner sub-nest's lines provably survive in the cache
              (Ferrante-Sarkar-Thrash localized iteration space). *)
           let inner_first = List.rev varying in
           (* stride of the innermost varying loop, for set-conflict
              estimation of the surviving lines *)
           let s_inner_of_group =
             match inner_first with [] -> None | l :: _ -> stride_of l
           in
           let lines, _ =
             List.fold_left
               (fun (cum, is_innermost) (l : Analysis.loop_ctx) ->
                 let trip = Analysis.trip l in
                 let s = stride_of l in
                 let shares =
                   match s with
                   | Some s when s > 0 && s < cache.line_bytes ->
                     is_innermost || reuse_fits ~machine ~bounds cum s_inner_of_group
                   | _ -> false
                 in
                 let contribution =
                   if shares then
                     Poly.scale (Rat.of_ints (Option.get s) cache.line_bytes) trip
                   else trip
                 in
                 (Poly.mul cum contribution, false))
               (Poly.one, true) inner_first
           in
           let stride_bytes =
             match inner_first with
             | [] -> Some 0
             | l :: _ -> stride_of l
           in
           {
             array = r.array;
             leader = r;
             members = !count;
             elements;
             lines;
             min_stride_bytes = stride_bytes;
           })
  |> List.filter (fun g -> ignore loop_vars; not (Poly.is_zero g.lines))

let nest_cost ?bounds ~machine ~symtab loops stmts =
  let cache = machine.Machine.cache in
  let groups = analyze_nest ?bounds ~machine ~symtab loops stmts in
  List.fold_left
    (fun acc g ->
      let miss_cost = Poly.scale_int cache.miss_cycles g.lines in
      let tlb_cost =
        match g.min_stride_bytes with
        | Some s when s >= cache.page_bytes ->
          (* page-grained strides thrash the TLB: one TLB miss per element *)
          Poly.scale_int cache.tlb_miss_cycles g.elements
        | _ -> Poly.zero
      in
      Poly.add acc (Poly.add miss_cost tlb_cost))
    Poly.zero groups

let footprint_bytes ~machine ~symtab loops stmts =
  let groups = analyze_nest ~machine ~symtab loops stmts in
  List.fold_left
    (fun acc g ->
      let elem_bytes =
        match Typecheck.lookup symtab g.array with Some s -> s.element_bytes | None -> 4
      in
      Poly.add acc (Poly.scale_int elem_bytes g.elements))
    Poly.zero groups

module Sim = struct
  type t = {
    params : Machine.cache_params;
    sets : int;
    assoc : int;
    tags : int array array;  (** [set][way] = line tag, -1 empty *)
    lru : int array array;  (** last-use stamps *)
    mutable clock : int;
    mutable misses : int;
    mutable accesses : int;
  }

  let create (params : Machine.cache_params) =
    let assoc = if params.associativity <= 0 then params.cache_bytes / params.line_bytes else params.associativity in
    let sets = max 1 (params.cache_bytes / (params.line_bytes * assoc)) in
    {
      params;
      sets;
      assoc;
      tags = Array.make_matrix sets assoc (-1);
      lru = Array.make_matrix sets assoc 0;
      clock = 0;
      misses = 0;
      accesses = 0;
    }

  let access t addr =
    t.clock <- t.clock + 1;
    t.accesses <- t.accesses + 1;
    let line = addr / t.params.line_bytes in
    let set = line mod t.sets in
    let tags = t.tags.(set) and lru = t.lru.(set) in
    let hit = ref false in
    (try
       for w = 0 to t.assoc - 1 do
         if tags.(w) = line then (
           lru.(w) <- t.clock;
           hit := true;
           raise Exit)
       done
     with Exit -> ());
    if not !hit then (
      t.misses <- t.misses + 1;
      (* evict LRU way *)
      let victim = ref 0 in
      for w = 1 to t.assoc - 1 do
        if lru.(w) < lru.(!victim) then victim := w
      done;
      tags.(!victim) <- line;
      lru.(!victim) <- t.clock);
    not !hit

  let misses t = t.misses
  let accesses t = t.accesses

  let run_nest ?(on_diag = fun (_ : Pperf_lint.Diagnostic.t) -> ()) ~machine ~symtab
      ~bounds loops stmts =
    let cache = create machine.Machine.cache in
    (* lay arrays out at disjoint bases *)
    let bases = Hashtbl.create 8 in
    let next_base = ref 0 in
    let base_of name =
      match Hashtbl.find_opt bases name with
      | Some entry -> entry
      | None ->
        let sym = Typecheck.lookup symtab name in
        let elem_bytes, extents, lows =
          match sym with
          | Some s ->
            let exts =
              List.map
                (fun p ->
                  let v = Poly.eval (fun x -> Rat.of_int (bounds x)) p in
                  match Rat.to_int v with Some i -> max 1 i | None -> 1)
                (Typecheck.array_extent s)
            in
            let lows =
              List.map
                (fun (d : Ast.array_dim) ->
                  match d.dim_lo with None -> 1 | Some e -> Analysis.eval_int bounds e)
                s.dims
            in
            (s.element_bytes, exts, lows)
          | None -> (4, [ 1024 ], [ 1 ])
        in
        let size = elem_bytes * List.fold_left ( * ) 1 extents in
        let b = !next_base in
        next_base := b + size + machine.Machine.cache.line_bytes (* pad *);
        Hashtbl.add bases name (b, (elem_bytes, extents, lows));
        (b, (elem_bytes, extents, lows))
    in
    let touch ~skip env (r : Analysis.array_ref) =
      try
        let b, (elem_bytes, extents, lows) = base_of r.array in
        let idxs = List.map (Analysis.eval_int env) r.subs in
        let rec addr idxs extents lows scale acc =
          match (idxs, extents, lows) with
          | [], _, _ -> acc
          | i :: is, e :: es, l :: ls -> addr is es ls (scale * e) (acc + ((i - l) * scale))
          | i :: is, [], [] -> addr is [] [] scale (acc + ((i - 1) * scale))
          | _ -> acc
        in
        let a = addr idxs extents lows 1 0 in
        ignore (access cache (b + (a * elem_bytes)))
      with Analysis.Not_integer e -> skip r.at "array reference" e
    in
    Analysis.run_nest ~bounds
      ~skip:(fun loc what e ->
        on_diag
          (Pperf_lint.Diagnostic.make Pperf_lint.Diagnostic.Precision
             ~check:"sim-non-integer" ~loc
             (Printf.sprintf
                "cache simulation skipped this %s: '%s' does not evaluate to an integer"
                what (Pp_ast.expr_to_string e))))
      (fun ~skip env at lhs e ->
        (* reads first, then the write *)
        List.iter (touch ~skip env)
          (Analysis.array_refs [ Ast.mk (Ast.Assign ({ lhs with subs = [] }, e)) ]);
        if lhs.subs <> [] then
          touch ~skip env { array = lhs.base; subs = lhs.subs; is_write = true; loops = []; at })
      loops stmts;
    (misses cache, accesses cache)
end
