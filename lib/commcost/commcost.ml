open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine

type distribution = Block | Cyclic | Replicated | Collapsed

type layout = { ldist : distribution list }

type layouts = (string * layout) list

type pattern =
  | Shift of { offset : int; bytes_per_proc : Poly.t }
  | Broadcast of { bytes : Poly.t }
  | Reduce of { bytes : Poly.t }
  | Gather of { bytes_per_proc : Poly.t }
  | Local

type event = { array : string; pattern : pattern; at : Srcloc.t }

let rat_of_float f = Rat.of_float_approx f

let message (c : Machine.comm_params) ~bytes =
  Poly.add (Poly.of_int c.startup_cycles) (Poly.scale (rat_of_float c.per_byte_cycles) bytes)

let ceil_log2 n =
  let rec go k acc = if acc >= n then k else go (k + 1) (acc * 2) in
  go 0 1

let pattern_cost (c : Machine.comm_params) = function
  | Local -> Poly.zero
  | Shift { bytes_per_proc; _ } ->
    (* send + receive one boundary message on the critical path *)
    Poly.scale_int 2 (message c ~bytes:bytes_per_proc)
  | Broadcast { bytes } | Reduce { bytes } ->
    Poly.scale_int (ceil_log2 (max 2 c.processors)) (message c ~bytes)
  | Gather { bytes_per_proc } ->
    Poly.scale_int (max 1 (c.processors - 1)) (message c ~bytes:bytes_per_proc)

(* which dimension of an array is distributed (first Block/Cyclic) *)
let distributed_dim (l : layout) =
  let rec go i = function
    | [] -> None
    | (Block | Cyclic) :: _ -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 l.ldist

let elem_bytes symtab name =
  match Typecheck.lookup symtab name with Some s -> s.Typecheck.element_bytes | None -> 4

(* bytes of one "surface" of the iteration space: the product of trip
   counts of the loops other than [skip_var], times the element size *)
let surface_bytes symtab loops skip_var name =
  let trips =
    List.filter_map
      (fun (l : Analysis.loop_ctx) ->
        if String.equal l.lvar skip_var then None else Some (Analysis.trip l))
      loops
  in
  Poly.scale_int (elem_bytes symtab name) (List.fold_left Poly.mul Poly.one trips)

(* classify one rhs read of a distributed array against the lhs write *)
let classify_read ~symtab ~layouts loops (lhs : Analysis.array_ref option)
    (r : Analysis.array_ref) : pattern =
  match List.assoc_opt r.array layouts with
  | None -> Local
  | Some lay -> (
    match distributed_dim lay with
    | None -> Local
    | Some d -> (
      match List.nth_opt r.subs d with
      | None -> Local
      | Some sub ->
        (* find the loop index used in the distributed dimension *)
        let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
        (match Sym_expr.affine_in loop_vars sub with
         | None -> Gather { bytes_per_proc = surface_bytes symtab loops "" r.array }
         | Some (coeffs, rest) -> (
           let nz = List.combine loop_vars coeffs |> List.filter (fun (_, c) -> c <> 0) in
           match nz with
           | [] ->
             (* constant index in the distributed dim: everyone reads one
                owner's data -> broadcast of the surface *)
             Broadcast { bytes = surface_bytes symtab loops "" r.array }
           | [ (v, 1) ] -> (
             (* aligned walk: compare with the lhs distributed index *)
             let offset =
               match Poly.to_const rest with
               | Some c when Rat.is_integer c -> Rat.to_int c
               | _ -> None
             in
             let lhs_offset =
               match lhs with
               | None -> Some 0
               | Some l -> (
                 match List.assoc_opt l.array layouts with
                 | None -> Some 0
                 | Some llay -> (
                   match distributed_dim llay with
                   | None -> Some 0
                   | Some ld -> (
                     match List.nth_opt l.subs ld with
                     | None -> Some 0
                     | Some lsub -> (
                       match Sym_expr.affine_in loop_vars lsub with
                       | Some (lcoeffs, lrest)
                         when List.exists2
                                (fun lv lc -> String.equal lv v && lc = 1)
                                loop_vars lcoeffs -> (
                         match Poly.to_const lrest with
                         | Some c when Rat.is_integer c -> Rat.to_int c
                         | _ -> None)
                       | _ -> None))))
             in
             match (offset, lhs_offset) with
             | Some o, Some lo ->
               let delta = o - lo in
               if delta = 0 then Local
               else Shift { offset = delta; bytes_per_proc = Poly.scale_int (abs delta) (surface_bytes symtab loops v r.array) }
             | _ -> Gather { bytes_per_proc = surface_bytes symtab loops v r.array })
           | _ -> Gather { bytes_per_proc = surface_bytes symtab loops "" r.array }))))

let is_reduction_stmt (s : Ast.stmt) =
  match s.kind with
  | Ast.Assign ({ base; subs = [] }, Ast.Binop ((Ast.Add | Ast.Sub), Ast.Var x, _))
  | Ast.Assign ({ base; subs = [] }, Ast.Binop (Ast.Add, _, Ast.Var x)) ->
    String.equal base x
  | _ -> false

let analyze_nest ~comm ~symtab ~layouts loops stmts =
  ignore comm;
  let events = ref [] in
  let rec go loops (ss : Ast.stmt list) =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.kind with
        | Ast.Assign (lhs, e) ->
          let lhs_ref =
            if lhs.subs = [] then None
            else
              Some
                { Analysis.array = lhs.base; subs = lhs.subs; is_write = true; loops; at = s.loc }
          in
          let reads =
            Analysis.array_refs [ Ast.mk ~loc:s.loc (Ast.Assign ({ lhs with subs = [] }, e)) ]
          in
          (* a scalar reduction over distributed data needs a global reduce *)
          if is_reduction_stmt s && reads <> [] then (
            let r = List.hd reads in
            if List.mem_assoc r.array layouts then
              events :=
                { array = r.array; pattern = Reduce { bytes = Poly.of_int (elem_bytes symtab lhs.base) }; at = s.loc }
                :: !events);
          List.iter
            (fun (r : Analysis.array_ref) ->
              match classify_read ~symtab ~layouts loops lhs_ref { r with loops } with
              | Local -> ()
              | p -> events := { array = r.array; pattern = p; at = s.loc } :: !events)
            reads
        | Ast.Do d -> go (loops @ [ Analysis.{ lvar = d.var; llo = d.lo; lhi = d.hi; lstep = d.step } ]) d.body
        | Ast.If (branches, els) ->
          List.iter (fun (_, b) -> go loops b) branches;
          go loops els
        | Ast.Call_stmt _ | Ast.Return -> ())
      ss
  in
  go loops stmts;
  List.rev !events

let nest_cost ~comm ~symtab ~layouts loops stmts =
  let events = analyze_nest ~comm ~symtab ~layouts loops stmts in
  List.fold_left (fun acc e -> Poly.add acc (pattern_cost comm e.pattern)) Poly.zero events

module Sim = struct
  (* owner-computes execution: iterate the (concrete) iteration space; the
     owner of the written element executes; each distinct (owner, remote
     element) pair read from another processor is a fetch; fetches are
     aggregated into one message per (src,dst) pair per outer-iteration
     "communication phase" (vectorized messages), matching what an HPF
     compiler generates for shift-style patterns. *)

  let owner_of ~layouts ~symtab ~bounds name idxs =
    match List.assoc_opt name layouts with
    | None -> 0
    | Some lay -> (
      match
        (match List.assoc_opt name layouts with Some l -> distributed_dim l | None -> None)
      with
      | None -> 0
      | Some d -> (
        ignore lay;
        let idx = List.nth idxs d in
        let extent =
          match Typecheck.lookup symtab name with
          | Some s -> (
            match List.nth_opt (Typecheck.array_extent s) d with
            | Some p -> (
              match Rat.to_int (Poly.eval (fun x -> Rat.of_int (bounds x)) p) with
              | Some v -> max 1 v
              | None -> 1024)
            | None -> 1024)
          | None -> 1024
        in
        let p = max 1 (bounds "p") in
        match List.nth (List.assoc name layouts).ldist d with
        | Block ->
          let chunk = max 1 ((extent + p - 1) / p) in
          min (p - 1) ((idx - 1) / chunk)
        | Cyclic -> (idx - 1) mod p
        | _ -> 0))

  let count_messages ?(on_diag = fun (_ : Pperf_lint.Diagnostic.t) -> ()) ~comm ~symtab
      ~layouts ~bounds loops stmts =
    ignore comm;
    let messages = ref 0 and bytes = ref 0 in
    (* per outermost iteration, aggregate (src,dst,array) -> element set *)
    let phase : (int * int * string, (int list, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
    let flush_phase () =
      Hashtbl.iter
        (fun (_, _, name) elems ->
          let eb = elem_bytes symtab name in
          incr messages;
          bytes := !bytes + (Hashtbl.length elems * eb))
        phase;
      Hashtbl.reset phase
    in
    let record src dst name idxs =
      if src <> dst then (
        let key = (src, dst, name) in
        let set =
          match Hashtbl.find_opt phase key with
          | Some s -> s
          | None ->
            let s = Hashtbl.create 16 in
            Hashtbl.add phase key s;
            s
        in
        Hashtbl.replace set idxs ())
    in
    let ints env subs = List.map (Analysis.eval_int env) subs in
    Analysis.run_nest ~bounds
      ~skip:(fun loc what e ->
        on_diag
          (Pperf_lint.Diagnostic.make Pperf_lint.Diagnostic.Precision
             ~check:"sim-non-integer" ~loc
             (Printf.sprintf
                "communication simulation skipped this %s: '%s' does not evaluate to \
                 an integer"
                what (Pp_ast.expr_to_string e))))
      ~outer_iteration:flush_phase
      (fun ~skip env at lhs e ->
        match
          if lhs.subs = [] then 0 else owner_of ~layouts ~symtab ~bounds lhs.base (ints env lhs.subs)
        with
        | exception Analysis.Not_integer ex -> skip at "assignment target" ex
        | owner ->
          List.iter
            (fun (r : Analysis.array_ref) ->
              if List.mem_assoc r.array layouts then (
                try
                  let idxs = ints env r.subs in
                  record (owner_of ~layouts ~symtab ~bounds r.array idxs) owner r.array idxs
                with Analysis.Not_integer ex -> skip r.at "array reference" ex))
            (Analysis.array_refs [ Ast.mk (Ast.Assign ({ lhs with subs = [] }, e)) ]))
      loops stmts;
    flush_phase ();
    (!messages, !bytes)
end
