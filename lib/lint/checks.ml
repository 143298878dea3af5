open Pperf_num
open Pperf_symbolic
open Pperf_lang
module SSet = Analysis.SSet
module Absint = Pperf_absint.Absint

type ctx = {
  known : string -> bool;
  ranges : Absint.result option;
      (** interval abstract interpretation of the routine; when present the
          checks consult flow-sensitive ranges to avoid false positives and
          decide more conditions *)
  nests : Analysis.nests option;  (** the routine's loop-nest table *)
}

let default_ctx = { known = (fun _ -> false); ranges = None; nests = None }

let nests_of ctx (c : Typecheck.checked) =
  match ctx.nests with Some t -> t | None -> Analysis.nests c.routine.body

type check = {
  id : string;
  about : string;
  emits : Diagnostic.severity list;
  run : ctx -> Typecheck.checked -> Diagnostic.t list;
}

(* ---- shared helpers ---- *)

let const_of e =
  match Sym_expr.to_poly e with Some p -> Poly.to_const p | None -> None

let is_scalar symtab x =
  match Typecheck.lookup symtab x with Some s -> s.Typecheck.dims = [] | None -> true

(* scalar names read by an expression (array elements read the array, not a
   scalar; their subscripts are visited by the fold) *)
let scalar_reads symtab e =
  Ast.fold_expr
    (fun acc e ->
      match e with
      | Ast.Var x when is_scalar symtab x -> SSet.add x acc
      | _ -> acc)
    SSet.empty e

(* the range of a loop index as an interval, from whatever bounds are
   constant; the sign of the step orients which bound is which *)
let extend_env env (d : Ast.do_loop) =
  let step = match d.step with None -> Some Rat.one | Some e -> const_of e in
  let lo = const_of d.lo and hi = const_of d.hi in
  let iv =
    match (lo, hi, step) with
    | Some lo, Some hi, Some s when Rat.sign s <> 0 ->
      Interval.of_rats (Rat.min lo hi) (Rat.max lo hi)
    | Some lo, None, Some s when Rat.sign s > 0 -> Interval.make (Interval.Fin lo) Interval.Pos_inf
    | None, Some hi, Some s when Rat.sign s > 0 -> Interval.make Interval.Neg_inf (Interval.Fin hi)
    | Some lo, None, Some s when Rat.sign s < 0 -> Interval.make Interval.Neg_inf (Interval.Fin lo)
    | None, Some hi, Some s when Rat.sign s < 0 -> Interval.make (Interval.Fin hi) Interval.Pos_inf
    | _ -> Interval.full
  in
  Interval.Env.add d.var iv env

(* [f env s] on every statement, outermost first, [env] holding the
   enclosing loops' index ranges *)
let iter_ranged f stmts =
  let rec walk env stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        f env s;
        match s.Ast.kind with
        | Ast.If (branches, els) ->
          List.iter (fun (_, body) -> walk env body) branches;
          walk env els
        | Ast.Do d -> walk (extend_env env d) d.body
        | Ast.Assign _ | Ast.Call_stmt _ | Ast.Return -> ())
      stmts
  in
  walk Interval.Env.empty stmts

let bound_le0 = function
  | Interval.Neg_inf -> true
  | Interval.Fin r -> Rat.sign r <= 0
  | Interval.Pos_inf -> false

let bound_ge0 = function
  | Interval.Neg_inf -> false
  | Interval.Fin r -> Rat.sign r >= 0
  | Interval.Pos_inf -> true

(* ---- 1. use before def ---- *)

let use_before_def _ctx (c : Typecheck.checked) =
  let symtab = c.symbols in
  let diags = ref [] and flagged = ref SSet.empty in
  let report loc x =
    if not (SSet.mem x !flagged) then (
      flagged := SSet.add x !flagged;
      diags :=
        Diagnostic.make Diagnostic.Warning ~check:"use-before-def" ~loc
          (Printf.sprintf "scalar %s may be read before it is assigned" x)
          ~fix:(Printf.sprintf "assign %s before this statement" x)
        :: !diags)
  in
  let check_reads defined loc e =
    SSet.iter (fun x -> if not (SSet.mem x defined) then report loc x) (scalar_reads symtab e)
  in
  let rec walk defined stmts =
    List.fold_left
      (fun defined (s : Ast.stmt) ->
        let loc = s.Ast.loc in
        match s.Ast.kind with
        | Ast.Assign (lhs, e) ->
          List.iter (check_reads defined loc) lhs.subs;
          check_reads defined loc e;
          if lhs.subs = [] && is_scalar symtab lhs.base then SSet.add lhs.base defined
          else defined
        | Ast.If (branches, els) ->
          List.iter (fun (cond, _) -> check_reads defined loc cond) branches;
          let outs = List.map (fun (_, body) -> walk defined body) branches in
          let outs = walk defined els :: outs in
          (* only definitions made on every path survive the join *)
          List.fold_left SSet.inter (List.hd outs) (List.tl outs)
        | Ast.Do d ->
          List.iter (check_reads defined loc) (d.lo :: d.hi :: Option.to_list d.step);
          let defined' = SSet.add d.var defined in
          ignore (walk defined' d.body);
          (* the body may execute zero times: only the index is surely set *)
          defined'
        | Ast.Call_stmt (_, args) ->
          (* bare scalar arguments may be written by the callee: not flagged
             as reads, and defined afterwards *)
          List.iter
            (fun a ->
              match a with
              | Ast.Var x when is_scalar symtab x -> ()
              | _ -> check_reads defined loc a)
            args;
          List.fold_left
            (fun def a ->
              match a with
              | Ast.Var x when is_scalar symtab x -> SSet.add x def
              | _ -> def)
            defined args
        | Ast.Return -> defined)
      defined stmts
  in
  let init = List.fold_left (fun s p -> SSet.add p s) SSet.empty c.routine.params in
  ignore (walk init c.routine.body);
  List.rev !diags

(* ---- 2a. unused variables ---- *)

let unused_var _ctx (c : Typecheck.checked) =
  let used = Analysis.used_vars c.routine.body in
  let assigned = Analysis.assigned_vars c.routine.body in
  (* names referenced by declaration dimensions count as used *)
  let dim_used =
    List.fold_left
      (fun acc (d : Ast.decl) ->
        List.fold_left
          (fun acc (dim : Ast.array_dim) ->
            let acc = SSet.union acc (SSet.of_list (Ast.expr_vars dim.dim_hi)) in
            match dim.dim_lo with
            | Some e -> SSet.union acc (SSet.of_list (Ast.expr_vars e))
            | None -> acc)
          acc d.dims)
      SSet.empty c.routine.decls
  in
  List.filter_map
    (fun (d : Ast.decl) ->
      if
        List.mem d.dname c.routine.params
        || SSet.mem d.dname used || SSet.mem d.dname assigned || SSet.mem d.dname dim_used
      then None
      else
        Some
          (Diagnostic.make Diagnostic.Hint ~check:"unused-var" ~loc:Srcloc.dummy
             (Printf.sprintf "variable %s is declared but never referenced" d.dname)
             ~fix:(Printf.sprintf "remove the declaration of %s" d.dname)))
    c.routine.decls

(* ---- 2b. dead stores ---- *)

let dead_store _ctx (c : Typecheck.checked) =
  let used = Analysis.used_vars c.routine.body in
  let result_name =
    match c.routine.rkind with Ast.Function _ -> Some c.routine.rname | _ -> None
  in
  let diags = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Assign (lhs, _)
        when lhs.subs = []
             && is_scalar c.symbols lhs.base
             && (not (List.mem lhs.base c.routine.params))
             && Some lhs.base <> result_name
             && not (SSet.mem lhs.base used) ->
        diags :=
          Diagnostic.make Diagnostic.Warning ~check:"dead-store" ~loc:s.Ast.loc
            (Printf.sprintf "value stored to %s is never read" lhs.base)
            ~fix:(Printf.sprintf "delete the assignment or use %s afterwards" lhs.base)
          :: !diags
      | _ -> ())
    c.routine.body;
  List.rev !diags

(* ---- 3. symbolic out-of-bounds subscripts ---- *)

(* iteration range of one loop as [min; max] bound polynomials, oriented by
   the (constant) step sign; [None] when the bounds are not polynomial *)
let loop_range (nl : Analysis.nest_loop) =
  let step =
    match nl.lctx.lstep with
    | None -> Some 1
    | Some e -> (
      match const_of e with Some c -> Rat.to_int c | None -> None)
  in
  match (Lazy.force nl.lbounds, step) with
  | (Some lo, Some hi), Some s when s > 0 -> Some (lo, hi)
  | (Some lo, Some hi), Some s when s < 0 -> Some (hi, lo)
  | _ -> None

(* each subscript's affine view over all of the reference's loops *)
let full_view e =
  Analysis.affine_view e ~from:0 ~len:(List.length (Analysis.entry_loops e))

let oob_subscript ctx (c : Typecheck.checked) =
  let diags = ref [] in
  let flag severity loc msg fix = diags := Diagnostic.make severity ~check:"oob-subscript" ~loc msg ~fix :: !diags in
  (* flow-sensitive rebuttal: a violation derived from the full iteration
     space is dropped when the ranges holding at the reference (branch
     refinements included) prove the margin polynomial non-negative *)
  let ranges_refute at margin =
    match ctx.ranges with
    | None -> false
    | Some res -> bound_ge0 (Interval.lo (Absint.bound_at res at margin))
  in
  Array.iter
    (fun e ->
      let r = Analysis.entry_ref e in
      match Typecheck.lookup c.symbols r.array with
      | Some sym when sym.Typecheck.dims <> [] && List.length sym.dims = List.length r.subs ->
        let extents = Typecheck.array_extent sym in
        let ranges = List.map loop_range (Analysis.entry_loops e) in
        List.iteri
          (fun k (view, poly) ->
            match (view, poly) with
            | None, _ | _, None -> () (* the non-affine check owns this case *)
            | Some (coeffs, rest), Some sub_poly ->
              let analyzable =
                List.for_all2 (fun cf rg -> cf = 0 || rg <> None) coeffs ranges
              in
              if analyzable then (
                let extreme pick_max =
                  List.fold_left2
                    (fun acc cf rg ->
                      match rg with
                      | Some (mn, mx) when cf <> 0 ->
                        let b = if (cf > 0) = pick_max then mx else mn in
                        Poly.add acc (Poly.scale_int cf b)
                      | _ -> acc)
                    rest coeffs ranges
                in
                let max_sub = extreme true and min_sub = extreme false in
                let dim = List.nth sym.dims k in
                let lo_b =
                  match dim.Ast.dim_lo with
                  | None -> Poly.one
                  | Some e -> (
                    match Sym_expr.to_poly e with Some p -> p | None -> Poly.var "?dim")
                in
                let hi_b = Poly.sub (Poly.add lo_b (List.nth extents k)) Poly.one in
                let dim_str =
                  if List.length r.subs > 1 then Printf.sprintf " (dimension %d)" (k + 1) else ""
                in
                if
                  Interval.sign_of_poly Interval.Env.empty (Poly.sub hi_b max_sub) = Interval.Neg
                  && not (ranges_refute r.at (Poly.sub hi_b sub_poly))
                then
                  flag Diagnostic.Error r.at
                    (Printf.sprintf "subscript of %s%s reaches %s, past its upper bound %s"
                       r.array dim_str (Poly.to_string max_sub) (Poly.to_string hi_b))
                    "shrink the loop bounds or enlarge the array";
                if
                  Interval.sign_of_poly Interval.Env.empty (Poly.sub min_sub lo_b) = Interval.Neg
                  && not (ranges_refute r.at (Poly.sub sub_poly lo_b))
                then
                  flag Diagnostic.Error r.at
                    (Printf.sprintf "subscript of %s%s reaches %s, below its lower bound %s"
                       r.array dim_str (Poly.to_string min_sub) (Poly.to_string lo_b))
                    "shift the loop bounds or the array's lower bound"))
          (List.combine (full_view e) (Analysis.subscript_polys e))
      | _ -> ())
    (Analysis.nest_refs (nests_of ctx c));
  List.sort_uniq Diagnostic.compare !diags

(* ---- 4. loop-carried dependences ---- *)

let dep_kind_str = Depend.kind_to_string

let loop_carried ?env ?oracle ?nests ~loc (d : Ast.do_loop) =
  List.map
    (fun (dep : Depend.dependence) ->
      Diagnostic.make Diagnostic.Hint ~check:"carried-dep" ~loc
        (Printf.sprintf
           "loop over %s carries a %s dependence on %s (%s): iterations are not independent"
           d.var (dep_kind_str dep.kind) dep.src.Analysis.array
           (String.concat "," (List.map Depend.direction_to_string dep.directions)))
        ~fix:"do not parallelize or reorder this loop's iterations")
    (Depend.carried_dependences ?env ?oracle ?nests d)
  |> List.sort_uniq Diagnostic.compare

(* ranges holding before the statement, restricted to variables the
   fragment does not reassign (the dependence tests need loop-invariant
   facts) *)
let invariant_env_at ctx loc (body : Ast.stmt list) index =
  match ctx.ranges with
  | None -> None
  | Some res ->
    let assigned =
      SSet.add index
        (SSet.union (Analysis.assigned_vars body) (Analysis.loop_indices body))
    in
    Some (Absint.restrict (Absint.ranges_at res loc) ~keep:(fun x -> not (SSet.mem x assigned)))

(* relational facts at the statement, usable as a sound dependence-test
   oracle only on polynomials over unreassigned variables *)
let invariant_oracle ctx loc (body : Ast.stmt list) index =
  match ctx.ranges with
  | None -> None
  | Some res ->
    if Absint.domain_used res = Absint.Box then None
    else (
      let assigned =
        SSet.add index
          (SSet.union (Analysis.assigned_vars body) (Analysis.loop_indices body))
      in
      Some
        (fun p ->
          if List.exists (fun x -> SSet.mem x assigned) (Poly.vars p) then Interval.full
          else Absint.bound_at res loc p))

let carried_dep ctx (c : Typecheck.checked) =
  let nests = nests_of ctx c in
  let diags = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Do d ->
        let env = invariant_env_at ctx s.Ast.loc d.body d.var in
        let oracle = invariant_oracle ctx s.Ast.loc d.body d.var in
        diags := loop_carried ?env ?oracle ~nests ~loc:s.Ast.loc d @ !diags
      | _ -> ())
    c.routine.body;
  List.sort_uniq Diagnostic.compare !diags

(* ---- 5. non-affine subscripts ---- *)

let non_affine ctx (c : Typecheck.checked) =
  List.filter_map
    (fun e ->
      let r = Analysis.entry_ref e in
      if List.exists Option.is_none (full_view e) then
        Some
          (Diagnostic.make Diagnostic.Precision ~check:"non-affine-subscript" ~loc:r.at
             (Printf.sprintf
                "non-affine subscript of %s: the dependence tests assume a dependence, blocking transformations conservatively"
                r.array)
             ~fix:"rewrite the subscript as an affine function of the loop indices")
      else None)
    (Array.to_list (Analysis.nest_refs (nests_of ctx c)))
  |> List.sort_uniq Diagnostic.compare

(* ---- 6. degenerate do steps ---- *)

let bad_step _ctx (c : Typecheck.checked) =
  let diags = ref [] in
  let add severity loc msg fix =
    diags := Diagnostic.make severity ~check:"bad-step" ~loc msg ~fix :: !diags
  in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Do d -> (
        match d.step with
        | None -> ()
        | Some e -> (
          match Sym_expr.to_poly e with
          | None ->
            add Diagnostic.Precision s.Ast.loc
              (Printf.sprintf
                 "step %s of the loop over %s is not polynomial: the trip count becomes an unknown"
                 (Pp_ast.expr_to_string e) d.var)
              "use a constant or polynomial step"
          | Some p -> (
            match Poly.to_const p with
            | Some z when Rat.is_zero z ->
              add Diagnostic.Error s.Ast.loc
                (Printf.sprintf "zero step: the loop over %s never advances" d.var)
                "use a nonzero step"
            | Some neg when Rat.sign neg < 0 -> (
              match (const_of d.lo, const_of d.hi) with
              | Some lo, Some hi when Rat.compare lo hi < 0 ->
                add Diagnostic.Warning s.Ast.loc
                  (Printf.sprintf
                     "negative step with ascending bounds %s..%s: the loop over %s never executes"
                     (Rat.to_string lo) (Rat.to_string hi) d.var)
                  "swap the bounds or make the step positive"
              | _ -> ())
            | Some _ -> ()
            | None -> (
              match Interval.sign_of_poly Interval.Env.empty p with
              | Interval.Pos | Interval.Neg -> ()
              | Interval.Zero | Interval.Mixed ->
                add Diagnostic.Precision s.Ast.loc
                  (Printf.sprintf
                     "step %s of the loop over %s has unknown sign: the trip count is treated as an unknown"
                     (Poly.to_string p) d.var)
                  "declare the step's sign or use a constant step"))))
      | _ -> ())
    c.routine.body;
  List.rev !diags

(* ---- 7. loop-index shadowing and modification ---- *)

let index_abuse ~shadowed ~modified (c : Typecheck.checked) =
  let diags = ref [] in
  let rec walk stack stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.Do d ->
          if shadowed && List.mem d.var stack then
            diags :=
              Diagnostic.make Diagnostic.Error ~check:"index-shadowed" ~loc:s.Ast.loc
                (Printf.sprintf "loop index %s shadows the index of an enclosing loop" d.var)
                ~fix:"rename the inner loop index"
              :: !diags;
          walk (d.var :: stack) d.body
        | Ast.Assign (lhs, _) when modified && lhs.subs = [] && List.mem lhs.base stack ->
          diags :=
            Diagnostic.make Diagnostic.Error ~check:"index-modified" ~loc:s.Ast.loc
              (Printf.sprintf "loop index %s is modified inside the loop body" lhs.base)
              ~fix:"use a separate scalar for the computation"
            :: !diags
        | Ast.Assign _ | Ast.Call_stmt _ | Ast.Return -> ()
        | Ast.If (branches, els) ->
          List.iter (fun (_, b) -> walk stack b) branches;
          walk stack els)
      stmts
  in
  walk [] c.routine.body;
  List.rev !diags

let index_shadowed _ctx c = index_abuse ~shadowed:true ~modified:false c
let index_modified _ctx c = index_abuse ~shadowed:false ~modified:true c

(* ---- 8. unreachable branches ---- *)

let unreachable _ctx (c : Typecheck.checked) =
  let diags = ref [] in
  iter_ranged
    (fun env (s : Ast.stmt) ->
      match s.Ast.kind with
      | Ast.If (branches, els) ->
        let n = List.length branches in
        List.iteri
          (fun i (cond, _) ->
            match Absint.decide_cond ~symtab:c.symbols env cond with
            | Some false ->
              diags :=
                Diagnostic.make Diagnostic.Warning ~check:"unreachable-branch" ~loc:s.Ast.loc
                  (Printf.sprintf "condition %s is always false: its branch is never taken"
                     (Pp_ast.expr_to_string cond))
                  ~fix:"remove the branch or fix the condition"
                :: !diags
            | Some true when i < n - 1 || els <> [] ->
              diags :=
                Diagnostic.make Diagnostic.Warning ~check:"unreachable-branch" ~loc:s.Ast.loc
                  (Printf.sprintf
                     "condition %s is always true: the remaining branches are unreachable"
                     (Pp_ast.expr_to_string cond))
                  ~fix:"remove the dead branches or fix the condition"
                :: !diags
            | _ -> ())
          branches
      | _ -> ())
    c.routine.body;
  List.rev !diags

(* ---- 9. denominator sign regions that include zero ---- *)

let div_zero ctx (c : Typecheck.checked) =
  let diags = ref [] in
  (* with the abstract interpretation available, its flow-sensitive env at
     the statement (literal propagation, branch refinements) replaces the
     local constant-bounds one *)
  let env_at fallback loc =
    match ctx.ranges with Some res -> Absint.ranges_at res loc | None -> fallback
  in
  let check_expr env loc e =
    let env = env_at env loc in
    Ast.fold_expr
      (fun () sub ->
        match sub with
        | Ast.Binop (Ast.Div, _, den) -> (
          match Sym_expr.to_poly den with
          | None -> () (* non-polynomial denominator: nothing provable *)
          | Some p ->
            let i =
              match ctx.ranges with
              | Some res -> Absint.bound_at res loc p
              | None -> Interval.eval_poly env p
            in
            if match Interval.is_point i with Some r -> Rat.is_zero r | None -> false then
              diags :=
                Diagnostic.make Diagnostic.Error ~check:"div-by-zero" ~loc "division by zero"
                  ~fix:"remove the division or fix the denominator"
                :: !diags
            else if Interval.contains i Rat.zero then
              diags :=
                Diagnostic.make Diagnostic.Warning ~check:"div-by-zero" ~loc
                  (Printf.sprintf "denominator %s has a sign region that includes zero"
                     (Poly.to_string p))
                  ~fix:"guard the division or declare a range excluding zero"
                :: !diags)
        | _ -> ())
      () e
  in
  iter_ranged
    (fun env (s : Ast.stmt) ->
      let loc = s.Ast.loc in
      match s.Ast.kind with
      | Ast.Assign (lhs, e) ->
        List.iter (check_expr env loc) lhs.subs;
        check_expr env loc e
      | Ast.If (branches, _) -> List.iter (fun (cond, _) -> check_expr env loc cond) branches
      | Ast.Do d -> List.iter (check_expr env loc) (d.lo :: d.hi :: Option.to_list d.step)
      | Ast.Call_stmt (_, args) -> List.iter (check_expr env loc) args
      | Ast.Return -> ())
    c.routine.body;
  List.rev !diags

(* ---- 9b. provably empty loops ---- *)

let empty_loop ctx (c : Typecheck.checked) =
  let diags = ref [] in
  let add loc var why =
    diags :=
      Diagnostic.make Diagnostic.Warning ~check:"provably-empty-loop" ~loc
        (Printf.sprintf "the loop over %s never executes (%s)" var why)
        ~fix:"delete the loop or fix its bounds"
      :: !diags
  in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.kind with
      | Ast.Do d -> (
        (* closed-form trip count that is a non-positive constant *)
        let static =
          match Sym_expr.trip_count ~lo:d.lo ~hi:d.hi ~step:d.step with
          | Some p -> (
            match Poly.to_const p with Some t when Rat.sign t <= 0 -> Some p | _ -> None)
          | None -> None
        in
        match static with
        | Some p ->
          add s.Ast.loc d.var (Printf.sprintf "its trip count is %s" (Poly.to_string p))
        | None -> (
          (* inferred trip interval with upper bound zero *)
          match ctx.ranges with
          | Some res -> (
            match
              List.find_opt
                (fun (l : Absint.loop_range) -> l.at = s.Ast.loc && l.lvar = d.var)
                (Absint.loops res)
            with
            | Some l when bound_le0 (Interval.hi l.trip) ->
              add s.Ast.loc d.var
                (Printf.sprintf "its inferred trip count is %s" (Interval.to_string l.trip))
            | _ -> ())
          | None -> ()))
      | _ -> ())
    c.routine.body;
  List.rev !diags

(* ---- 9c. conditions constant over the inferred ranges ---- *)

let constant_condition ctx (c : Typecheck.checked) =
  match ctx.ranges with
  | None -> [] (* needs the abstract interpretation; see unreachable-branch *)
  | Some res ->
    let diags = ref [] in
    iter_ranged
      (fun env (s : Ast.stmt) ->
        match s.Ast.kind with
        | Ast.If (branches, _) ->
          List.iter
            (fun (cond, _) ->
              (* skip what the range-free unreachable-branch check already
                 decides, to avoid duplicate reports *)
              match
                ( Absint.decide_cond ~symtab:c.symbols env cond,
                  Absint.decide_cond_at res s.Ast.loc cond )
              with
              | None, Some b ->
                diags :=
                  Diagnostic.make Diagnostic.Hint ~check:"constant-condition" ~loc:s.Ast.loc
                    (Printf.sprintf "condition %s is always %s over the inferred ranges"
                       (Pp_ast.expr_to_string cond)
                       (if b then "true" else "false"))
                    ~fix:"drop the test or widen the variable's range"
                  :: !diags
              | _ -> ())
            branches
        | _ -> ())
      c.routine.body;
    List.rev !diags

(* ---- 10. calls with no known cost ---- *)

let unknown_call ctx (c : Typecheck.checked) =
  let diags = ref [] in
  let flag loc f =
    diags :=
      Diagnostic.make Diagnostic.Precision ~check:"unknown-call" ~loc
        (Printf.sprintf "call to unknown routine %s falls back to the default call cost" f)
        ~fix:
          (Printf.sprintf
             "predict interprocedurally (-i) or register %s in the library cost table" f)
      :: !diags
  in
  let check_expr loc e =
    Ast.fold_expr
      (fun () sub ->
        match sub with
        | Ast.Call (f, _) when (not (Intrinsics.is_intrinsic f)) && not (ctx.known f) ->
          flag loc f
        | _ -> ())
      () e
  in
  Ast.iter_stmts
    (fun s ->
      let loc = s.Ast.loc in
      match s.Ast.kind with
      | Ast.Assign (lhs, e) -> List.iter (check_expr loc) (e :: lhs.subs)
      | Ast.If (branches, _) -> List.iter (fun (cond, _) -> check_expr loc cond) branches
      | Ast.Do d -> List.iter (check_expr loc) (d.lo :: d.hi :: Option.to_list d.step)
      | Ast.Call_stmt (f, args) ->
        if (not (Intrinsics.is_intrinsic f)) && not (ctx.known f) then flag loc f;
        List.iter (check_expr loc) args
      | Ast.Return -> ())
    c.routine.body;
  List.sort_uniq Diagnostic.compare !diags

(* ---- registry ---- *)

let registry =
  let open Diagnostic in
  [
    {
      id = "use-before-def";
      about = "scalar read before any assignment";
      emits = [ Warning ];
      run = use_before_def;
    };
    {
      id = "unused-var";
      about = "declared variable never referenced";
      emits = [ Hint ];
      run = unused_var;
    };
    {
      id = "dead-store";
      about = "scalar store whose value is never read";
      emits = [ Warning ];
      run = dead_store;
    };
    {
      id = "oob-subscript";
      about = "subscript provably outside the array extent (symbolic bounds included)";
      emits = [ Error ];
      run = oob_subscript;
    };
    {
      id = "carried-dep";
      about = "loop-carried dependence: iterations are not independent";
      emits = [ Hint ];
      run = carried_dep;
    };
    {
      id = "non-affine-subscript";
      about = "subscript outside the affine domain of the dependence tests (precision loss)";
      emits = [ Precision ];
      run = non_affine;
    };
    {
      id = "bad-step";
      about = "zero, contradictory, or sign-unknown do step";
      emits = [ Error; Warning; Precision ];
      run = bad_step;
    };
    {
      id = "index-shadowed";
      about = "inner loop reuses an enclosing loop index";
      emits = [ Error ];
      run = index_shadowed;
    };
    {
      id = "index-modified";
      about = "loop index assigned inside its loop body";
      emits = [ Error ];
      run = index_modified;
    };
    {
      id = "unreachable-branch";
      about = "branch condition decided by sign analysis over the index ranges";
      emits = [ Warning ];
      run = unreachable;
    };
    {
      id = "div-by-zero";
      about = "denominator sign region includes zero";
      emits = [ Error; Warning ];
      run = div_zero;
    };
    {
      id = "provably-empty-loop";
      about = "do loop whose trip count is provably zero";
      emits = [ Warning ];
      run = empty_loop;
    };
    {
      id = "constant-condition";
      about = "branch condition decided by the inferred ranges (needs --ranges)";
      emits = [ Hint ];
      run = constant_condition;
    };
    {
      id = "unknown-call";
      about = "call charged the default cost (precision loss)";
      emits = [ Precision ];
      run = unknown_call;
    };
  ]

let ids = List.map (fun c -> c.id) registry
