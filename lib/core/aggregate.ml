open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine
open Pperf_commcost
open Pperf_sched
open Pperf_translate
module SSet = Analysis.SSet

type options = {
  flags : Flags.t;
  include_memory : bool;
  layouts : Commcost.layouts option;
  branch_prob : Srcloc.t -> int -> Poly.t option;
  near_equal_tol : float;
  library : Libtable.t option;
  infer_ranges : bool;
  range_domain : Pperf_absint.Absint.domain;
}

let default_options =
  {
    flags = Flags.default;
    include_memory = false;
    layouts = None;
    branch_prob = (fun _ _ -> None);
    near_equal_tol = 0.05;
    library = None;
    infer_ranges = false;
    range_domain = Pperf_absint.Absint.Box;
  }

type prediction = {
  cost : Perf_expr.t;
  prob_vars : string list;
  diagnostics : Pperf_lint.Diagnostic.t list;
}

(* shared across the [{ ctx with ... }] copies made when entering loops *)
type prob_state = {
  mutable counter : int;
  mutable vars : string list;
  mutable diags : Pperf_lint.Diagnostic.t list;
}

(* one scratch Bins shared by all the [{ ctx with ... }] copies: every
   standalone drop resets it instead of re-allocating slot arrays *)
type scratch = { mutable bins : Bins.t option; mutable declared : SSet.t option }

(* ---- the block table ----

   One request's translations and drops: a block met again in the same
   loop context (a repeated bound expression, a branch body's leading run
   under its taken-branch penalty, a block a compared variant shares with
   its original) is translated and dropped once. A block is keyed by its
   statements or expressions without their locations, its loop variables,
   its invariants and its symbol table; the table serves one machine and
   flag set and starts over when one of them changes. A drop keeps the
   stacked-placement fallbacks it took, so each use reports them at its
   own location. *)

type drop = {
  cost : int;
  fallbacks : int;
  first : int;  (** the first of a steady state's two drops; [cost] otherwise *)
}

type drop_kind = Whole | Body_alone | Once | Steady | Steady_control
type shape = Run of Ast.stmt list | Cond of Ast.expr | Bound_exprs of Ast.expr list

type block = {
  shape : shape;
  mutable res : Translator.result option;
      (** let go when a routine's aggregation ends, unless the block is a
          loop body charged with its loop control, and translated again if
          a later use needs it *)
  mutable drops : (drop_kind * drop) list;
  mutable penalties : (block * int) list;  (** the taken-branch penalty under each condition *)
}

type block_key = { shape : shape; lvars : string list; linv : SSet.t; syms : int }

module Blocks = Hashtbl.Make (struct
  type t = block_key

  let equal a b =
    a.syms = b.syms
    && List.equal String.equal a.lvars b.lvars
    && (match (a.shape, b.shape) with
       | Run x, Run y -> List.equal Ast.equal_stmt x y
       | Cond x, Cond y -> Ast.equal_expr x y
       | Bound_exprs x, Bound_exprs y -> List.equal Ast.equal_expr x y
       | _ -> false)
    && SSet.equal a.linv b.linv

  (* a straight-line statement holds no location below its own *)
  let hash k =
    let shape =
      match k.shape with
      | Run stmts -> List.fold_left (fun h (s : Ast.stmt) -> (h * 65599) + Hashtbl.hash s.kind) 0 stmts
      | Cond e -> Hashtbl.hash e
      | Bound_exprs es -> Hashtbl.hash es
    in
    Hashtbl.hash (shape, k.lvars, k.syms)
end)

type blocks = {
  mutable owner : (Machine.t * Flags.t) option;
  mutable symtabs : Typecheck.symtab list;  (** each key's [syms] indexes this, newest first *)
  table : block Blocks.t;
  mutable control : drop option;  (** the loop control alone, per iteration *)
}

let blocks () = { owner = None; symtabs = []; table = Blocks.create 64; control = None }

(* the index of the symbol table among those the table has met: two
   tables declaring the same symbols share their blocks *)
let find_symtab blocks symtab =
  let rec go i = function
    | [] -> None
    | s :: rest ->
      if s == symtab || Typecheck.symbols_list s = Typecheck.symbols_list symtab then Some i
      else go (i - 1) rest
  in
  go (List.length blocks.symtabs - 1) blocks.symtabs

let adopt blocks ~machine ~flags ~symtab =
  (match blocks.owner with
   | Some (m, f) when m == machine && f = flags -> ()
   | _ ->
     Blocks.reset blocks.table;
     blocks.control <- None;
     blocks.symtabs <- [];
     blocks.owner <- Some (machine, flags));
  match find_symtab blocks symtab with
  | Some i -> i
  | None ->
    blocks.symtabs <- symtab :: blocks.symtabs;
    List.length blocks.symtabs - 1

type ctx = {
  machine : Machine.t;
  options : options;
  symtab : Typecheck.symtab;
  loops : Analysis.loop_ctx list;
  lvars : string list;  (** the loops' variables, innermost last *)
  invariants : SSet.t;
  probs : prob_state;
  ranges : Pperf_absint.Absint.result option;
  scratch : scratch;
  blocks : blocks;
  syms : int;  (** the symbol table's index in [blocks] *)
}

let scratch_bins ctx =
  match ctx.scratch.bins with
  | Some bins ->
    Bins.reset bins;
    bins
  | None ->
    let bins = Bins.create ctx.machine in
    ctx.scratch.bins <- Some bins;
    bins

let fresh_prob ctx =
  ctx.probs.counter <- ctx.probs.counter + 1;
  let v = Printf.sprintf "p%d" ctx.probs.counter in
  ctx.probs.vars <- v :: ctx.probs.vars;
  v

(* a place where the aggregation had to fall back on an unknown — the
   prediction is still correct but now carries a free variable or a
   default cost, which is exactly what a Precision diagnostic reports *)
let imprecise ctx ~check ~loc message =
  ctx.probs.diags <-
    Pperf_lint.Diagnostic.make Pperf_lint.Diagnostic.Precision ~check ~loc message
    :: ctx.probs.diags

(* a stacked-placement fallback inside a drop means the block's cost is a
   safe overestimate — exactly the kind of precision loss lint reports *)
let note_fallbacks ctx ~loc d =
  if d.fallbacks > 0 then
    imprecise ctx ~check:"fit-fallback" ~loc
      (Printf.sprintf
         "%d operation placement(s) did not converge and used conservative stacked \
          placement; the block cost is an overestimate"
         d.fallbacks)

(* a dag dropped alone into the scratch bins *)
let dropped ctx dag =
  if Dag.length dag = 0 then { cost = 0; fallbacks = 0; first = 0 }
  else (
    let bins = scratch_bins ctx in
    let cost = (Bins.drop_dag bins dag).cost in
    { cost; fallbacks = Bins.fallbacks bins; first = cost })

(* a dag's per-iteration cost: its two-drop steady state *)
let steady ctx dag =
  let bins = scratch_bins ctx in
  let once, per_iter = Bins.steady_state bins dag in
  { cost = per_iter; fallbacks = Bins.fallbacks bins; first = once }

let block_drop blk kind compute =
  match List.assq_opt kind blk.drops with
  | Some d -> d
  | None ->
    let d = compute () in
    blk.drops <- (kind, d) :: blk.drops;
    d

(* a drop of the block, made once, charged at [loc] *)
let charge ctx ~loc blk kind compute =
  let d = block_drop blk kind compute in
  note_fallbacks ctx ~loc d;
  d.cost

let translate ctx shape =
  let machine = ctx.machine and flags = ctx.options.flags and symtab = ctx.symtab in
  let loop_vars = ctx.lvars and invariants = ctx.invariants in
  match shape with
  | Run run -> Translator.translate_block ~machine ~flags ~symtab ~loop_vars ~invariants run
  | Cond c -> Translator.translate_condition ~machine ~flags ~symtab ~loop_vars ~invariants c
  | Bound_exprs es -> Translator.translate_exprs ~machine ~flags ~symtab ~loop_vars ~invariants es

let translation ctx blk =
  match blk.res with
  | Some res -> res
  | None ->
    let res = translate ctx blk.shape in
    blk.res <- Some res;
    res

let dags ctx blk =
  let res = translation ctx blk in
  (res.one_time, res.body)

(* the block of [shape] in the context, translated on its first use (a
   translation that fails raises here, and the table keeps nothing) *)
let block ctx shape =
  let key = { shape; lvars = ctx.lvars; linv = ctx.invariants; syms = ctx.syms } in
  match Blocks.find_opt ctx.blocks.table key with
  | Some blk -> blk
  | None ->
    let blk = { shape; res = None; drops = []; penalties = [] } in
    ignore (translation ctx blk);
    Blocks.add ctx.blocks.table key blk;
    blk

let make_ctx ~machine ~options ~symtab ?ranges ?(prob_offset = 0) ?(blocks = blocks ()) () =
  let syms = adopt blocks ~machine ~flags:options.flags ~symtab in
  {
    machine;
    options;
    symtab;
    loops = [];
    lvars = [];
    invariants = SSet.empty;
    probs = { counter = prob_offset; vars = []; diags = [] };
    ranges;
    scratch = { bins = None; declared = None };
    blocks;
    syms;
  }

(* ---- block costs: each block the walk charges, in its loop context ---- *)

type block_ctx = ctx

let block_ctx ~machine ~options ~symtab = make_ctx ~machine ~options ~symtab ()

let enter_loop ctx (d : Ast.do_loop) =
  let declared =
    match ctx.scratch.declared with
    | Some s -> s
    | None ->
      let s = Analysis.declared_names ctx.symtab in
      ctx.scratch.declared <- Some s;
      s
  in
  {
    ctx with
    loops = ctx.loops @ [ Analysis.{ lvar = d.var; llo = d.lo; lhi = d.hi; lstep = d.step } ];
    lvars = ctx.lvars @ [ d.var ];
    invariants = Analysis.loop_invariants ~declared d;
  }

let translate_run ctx (run : Ast.stmt list) = block ctx (Run run)

(* outside a loop body there is no "per entry" distinction *)
let run_cost ctx ~loc blk =
  charge ctx ~loc blk Whole (fun () ->
      let one_time, body = dags ctx blk in
      dropped ctx (Dag.concat one_time body))

let iteration_cost ctx ~loc ~control blk =
  if control then
    charge ctx ~loc blk Steady_control (fun () ->
        steady ctx
          (Dag.concat (snd (dags ctx blk)) (Translator.loop_overhead_dag ~machine:ctx.machine ())))
  else charge ctx ~loc blk Steady (fun () -> steady ctx (snd (dags ctx blk)))

let hoisted_cost ctx ~loc blk =
  charge ctx ~loc blk Once (fun () -> dropped ctx (fst (dags ctx blk)))

let bound_cost ctx ~loc (d : Ast.do_loop) =
  run_cost ctx ~loc (block ctx (Bound_exprs (d.lo :: d.hi :: Option.to_list d.step)))

let control_cost ctx ~loc =
  let d =
    match ctx.blocks.control with
    | Some d -> d
    | None ->
      let d = steady ctx (Translator.loop_overhead_dag ~machine:ctx.machine ()) in
      ctx.blocks.control <- Some d;
      d
  in
  note_fallbacks ctx ~loc d;
  d.cost

let translate_cond ctx cond = block ctx (Cond cond)
let alone ctx blk () = dropped ctx (snd (dags ctx blk))
let body_alone ctx blk = block_drop blk Body_alone (alone ctx blk)
let cond_cost ctx ~loc blk = charge ctx ~loc blk Body_alone (alone ctx blk)

(* §2.2.2 branch optimization: "matching shapes of the cost blocks to
   decide whether the branching cost needs to be included". The taken-
   branch penalty is reduced by however much the branch body's leading
   straight-line block really overlaps the condition's block when both are
   dropped into the same bins. *)
let branch_penalty ctx (cond : block) (body : Ast.stmt list) =
  let c_br = ctx.machine.Machine.branch_taken_cycles in
  match fst (Analysis.split_run body) with
  | [] -> c_br
  | run -> (
    match translate_run ctx run with
    | exception _ -> c_br
    | blk -> (
      match List.assq_opt cond blk.penalties with
      | Some penalty -> penalty
      | None ->
        let cond_body = snd (dags ctx cond) and run_body = snd (dags ctx blk) in
        let penalty =
          if Dag.length run_body = 0 || Dag.length cond_body = 0 then c_br
          else (
            let bins = scratch_bins ctx in
            ignore (Bins.drop_dag bins cond_body);
            let combined = (Bins.drop_dag bins run_body).cost in
            let overlap =
              max 0 ((body_alone ctx cond).cost + (body_alone ctx blk).cost - combined)
            in
            max 0 (c_br - overlap))
        in
        blk.penalties <- (cond, penalty) :: blk.penalties;
        penalty))

let trip_of ctx ~loc (d : Ast.do_loop) =
  let inferred =
    match ctx.ranges with
    | Some r ->
      List.find_opt
        (fun (l : Pperf_absint.Absint.loop_range) -> l.at = loc && l.lvar = d.var)
        (Pperf_absint.Absint.loops r)
    | None -> None
  in
  match Sym_expr.trip_count ~lo:d.lo ~hi:d.hi ~step:d.step with
  | Some p ->
    (* the closed form takes an integer quotient in a bound as exact,
       divides by a non-unit step without the floor the loop applies, and
       assumes a non-empty loop: report the first two, and the third when
       the inferred ranges cannot confirm it, in one event per loop *)
    let truncated =
      List.exists
        (Pperf_absint.Absint.int_div (Some ctx.symtab))
        (d.lo :: d.hi :: Option.to_list d.step)
    in
    let const e = Option.bind (Sym_expr.to_poly e) Poly.to_const in
    let floored =
      (match Option.bind d.step const with
       | Some s -> not (Rat.equal (Rat.abs s) Rat.one)
       | None -> false)
      && not (match Poly.to_const p with Some c -> Rat.is_integer c | None -> false)
    in
    let unconfirmed =
      match ctx.ranges with
      | Some r ->
        (not (Poly.is_const p))
        && Interval.sign (Interval.eval_poly (Pperf_absint.Absint.summary r) p)
           = Interval.Mixed
      | None -> false
    in
    let reasons =
      List.filter_map
        (fun (holds, reason) -> if holds then Some reason else None)
        [ (truncated, "treats an integer quotient in its bounds as exact while the loop truncates it");
          (floored, "takes (hi - lo + step) / step as exact while the loop runs its floor");
          ( unconfirmed,
            "is not provably non-negative over the inferred ranges; the closed form assumes a \
             non-empty loop" ) ]
    in
    if reasons <> [] then
      imprecise ctx ~check:"symbolic-trip" ~loc
        (Printf.sprintf "trip count %s of the loop over '%s' %s" (Poly.to_string p) d.var
           (String.concat ", and " reasons));
    p
  | None ->
    let v = Analysis.trip_var d.var in
    let bound_note =
      match inferred with
      | Some l when not (Interval.is_full l.trip || Interval.equal l.trip Interval.nonneg) ->
        Printf.sprintf "; inferred %s in %s" v (Interval.to_string l.trip)
      | _ -> ""
    in
    imprecise ctx ~check:"symbolic-trip" ~loc
      (Printf.sprintf
         "trip count of the loop over '%s' has no closed form; prediction uses free variable '%s'%s"
         d.var v bound_note);
    Poly.var v

(* what the library cost table adds for the run's calls; a call it has no
   entry for stays at the translator's default call cost, which lint's
   unknown-call check reports *)
let library_extra ctx (run : Ast.stmt list) =
  let charge acc f args =
    match ctx.options.library with
    | None -> acc
    | Some lib -> (
      match Libtable.call_cost lib f args with Some c -> Perf_expr.add acc c | None -> acc)
  in
  let charge_expr acc e =
    Ast.fold_expr
      (fun acc e ->
        match e with
        | Ast.Call (f, args) when not (Intrinsics.is_intrinsic f) -> charge acc f args
        | _ -> acc)
      acc e
  in
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      match s.kind with
      | Ast.Call_stmt (f, args) -> List.fold_left charge_expr (charge acc f args) args
      | Ast.Assign (lhs, e) -> charge_expr (List.fold_left charge_expr acc lhs.subs) e
      | _ -> acc)
    Perf_expr.zero run

(* probability that [cond] holds, as count-of-true iterations of the
   innermost loop when the condition tests the loop index (§3.3.2), or
   None when that heuristic does not apply *)
let index_cond_count (d : Ast.do_loop) cond =
  if d.step <> None && d.step <> Some (Ast.Int 1) then None
  else (
    let lo_p = Sym_expr.to_poly d.lo and hi_p = Sym_expr.to_poly d.hi in
    match (lo_p, hi_p) with
    | Some lo, Some hi -> (
      let trip = Poly.add (Poly.sub hi lo) Poly.one in
      let count op k_e flipped =
        match Sym_expr.to_poly k_e with
        | None -> None
        | Some k ->
          (* number of iterations lo..hi satisfying (i op k); assumes k in
             range, as the paper does for its example *)
          let c =
            match (op, flipped) with
            | Ast.Le, false | Ast.Ge, true -> Poly.add (Poly.sub k lo) Poly.one
            | Ast.Lt, false | Ast.Gt, true -> Poly.sub k lo
            | Ast.Ge, false | Ast.Le, true -> Poly.add (Poly.sub hi k) Poly.one
            | Ast.Gt, false | Ast.Lt, true -> Poly.sub hi k
            | Ast.Eq, _ -> Poly.one
            | Ast.Ne, _ -> Poly.sub trip Poly.one
            | _ -> Poly.zero
          in
          Some (c, trip)
      in
      match cond with
      | Ast.Binop ((Ast.Le | Ast.Lt | Ast.Ge | Ast.Gt | Ast.Eq | Ast.Ne) as op, Ast.Var i, k_e)
        when String.equal i d.var && not (SSet.mem d.var (Analysis.expr_reads k_e)) ->
        count op k_e false
      | Ast.Binop ((Ast.Le | Ast.Lt | Ast.Ge | Ast.Gt | Ast.Eq | Ast.Ne) as op, k_e, Ast.Var i)
        when String.equal i d.var && not (SSet.mem d.var (Analysis.expr_reads k_e)) ->
        count op k_e true
      | _ -> None)
    | _ -> None)

let near_equal tol a b =
  match (Poly.to_const (Perf_expr.total a), Poly.to_const (Perf_expr.total b)) with
  | Some ca, Some cb ->
    let fa = Rat.to_float ca and fb = Rat.to_float cb in
    let m = Float.max (Float.abs fa) (Float.abs fb) in
    m = 0.0 || Float.abs (fa -. fb) <= tol *. m
  | _ -> Poly.equal (Perf_expr.total a) (Perf_expr.total b)

let rec agg_stmts ctx (stmts : Ast.stmt list) : Perf_expr.t =
  (* segment into straight-line runs and control statements *)
  let rec go acc = function
    | [] -> acc
    | s :: _ as rest when Analysis.is_straight s ->
      let run, rest' = Analysis.split_run rest in
      let c = run_cost ctx ~loc:s.Ast.loc (translate_run ctx run) in
      let acc = Perf_expr.add acc (Perf_expr.of_cycles c) in
      go (Perf_expr.add acc (library_extra ctx run)) rest'
    | ({ Ast.kind = Ast.Do d; _ } as s) :: rest ->
      let acc = Perf_expr.add acc (agg_do ctx ~loc:s.loc d) in
      go acc rest
    | ({ Ast.kind = Ast.If _; _ } as s) :: rest ->
      let acc = Perf_expr.add acc (agg_if ctx s) in
      go acc rest
    | _ :: rest -> go acc rest
  in
  go Perf_expr.zero stmts

and agg_if ctx (s : Ast.stmt) : Perf_expr.t =
  match s.kind with
  | Ast.If (branches, els) ->
    let conds = List.map (fun (c, _) -> translate_cond ctx c) branches in
    let cond_cycles = List.fold_left (fun acc c -> acc + cond_cost ctx ~loc:s.loc c) 0 conds in
    let branch_costs =
      List.map2
        (fun c (_, body) ->
          Perf_expr.add (agg_stmts ctx body)
            (Perf_expr.of_cycles (branch_penalty ctx c body)))
        conds branches
    in
    let else_penalty =
      match (els, conds) with
      | [], _ -> 0
      | _, first :: _ -> branch_penalty ctx first els
      | _, [] -> ctx.machine.Machine.branch_taken_cycles
    in
    let else_cost = Perf_expr.add (agg_stmts ctx els) (Perf_expr.of_cycles else_penalty) in
    let combined =
      match branch_costs with
      | [ bt ] when near_equal ctx.options.near_equal_tol bt else_cost ->
        (* §3.3.2: near-equal branches need no probability *)
        Perf_expr.scale_rat Rat.half (Perf_expr.add bt else_cost)
      | _ ->
        (* fresh probability per branch, complement to the else *)
        let probs =
          List.mapi
            (fun k (c, _) ->
              match ctx.options.branch_prob s.loc k with
              | Some p -> p
              | None ->
                ignore c;
                let v = fresh_prob ctx in
                imprecise ctx ~check:"branch-prob" ~loc:s.loc
                  (Printf.sprintf
                     "branch probability is unknown; prediction uses free variable '%s' in [0,1]" v);
                Poly.var v)
            branches
        in
        let p_else =
          List.fold_left (fun acc p -> Poly.sub acc p) Poly.one probs
        in
        let weighted =
          List.map2 (fun p bc -> Perf_expr.scale p bc) probs branch_costs
        in
        Perf_expr.add (Perf_expr.sum weighted) (Perf_expr.scale p_else else_cost)
    in
    Perf_expr.add (Perf_expr.of_cycles cond_cycles) combined
  | _ -> assert false

and agg_do ctx ~loc (d : Ast.do_loop) : Perf_expr.t =
  let trip = trip_of ctx ~loc d in
  let entry_cost = bound_cost ctx ~loc d in
  let inner_ctx = enter_loop ctx d in
  (* walk the body: the first straight-line run folds the loop control into
     its per-iteration drop; index conditionals use iteration counts *)
  let per_iter = ref Perf_expr.zero in
  let per_entry = ref (Perf_expr.of_cycles entry_cost) in
  let loop_total_extra = ref Perf_expr.zero in
  let overhead_charged = ref false in
  let rec walk = function
    | [] -> ()
    | s :: _ as rest when Analysis.is_straight s ->
      let run, rest' = Analysis.split_run rest in
      let res = translate_run inner_ctx run in
      let control = not !overhead_charged in
      overhead_charged := true;
      per_iter :=
        Perf_expr.add !per_iter
          (Perf_expr.of_cycles (iteration_cost inner_ctx ~loc:s.Ast.loc ~control res));
      per_iter := Perf_expr.add !per_iter (library_extra inner_ctx run);
      per_entry :=
        Perf_expr.add !per_entry
          (Perf_expr.of_cycles (hoisted_cost inner_ctx ~loc:s.Ast.loc res));
      walk rest'
    | ({ Ast.kind = Ast.Do inner; _ } as s) :: rest ->
      per_iter := Perf_expr.add !per_iter (agg_do inner_ctx ~loc:s.loc inner);
      walk rest
    | ({ Ast.kind = Ast.If ([ (cond, then_body) ], else_body); _ } as s) :: rest -> (
      match index_cond_count d cond with
      | Some (count_true, trip_if) when Poly.equal trip_if trip ->
        (* the paper's §3.3.2 pattern: charge iteration counts directly *)
        let ct = agg_stmts inner_ctx then_body in
        let cf = agg_stmts inner_ctx else_body in
        let cond_block = translate_cond inner_ctx cond in
        let pen_t = branch_penalty inner_ctx cond_block then_body in
        let pen_f = if else_body = [] then 0 else branch_penalty inner_ctx cond_block else_body in
        let cond_cycles = cond_cost inner_ctx ~loc:s.loc cond_block in
        let ct = Perf_expr.add ct (Perf_expr.of_cycles pen_t) in
        let cf = Perf_expr.add cf (Perf_expr.of_cycles pen_f) in
        let count_false = Poly.sub trip count_true in
        (if ctx.options.near_equal_tol > 0.0 && near_equal ctx.options.near_equal_tol ct cf
         then
           (* if C(Bt) ~ C(Bf), C(L) simplifies to trip * C(Bf) (§3.3.2) *)
           loop_total_extra := Perf_expr.add !loop_total_extra (Perf_expr.scale trip cf)
         else
           loop_total_extra :=
             Perf_expr.add !loop_total_extra
               (Perf_expr.add (Perf_expr.scale count_true ct) (Perf_expr.scale count_false cf)));
        loop_total_extra :=
          Perf_expr.add !loop_total_extra (Perf_expr.scale trip (Perf_expr.of_cycles cond_cycles));
        walk rest
      | _ ->
        per_iter := Perf_expr.add !per_iter (agg_if inner_ctx s);
        walk rest)
    | ({ Ast.kind = Ast.If _; _ } as s) :: rest ->
      per_iter := Perf_expr.add !per_iter (agg_if inner_ctx s);
      walk rest
    | _ :: rest -> walk rest
  in
  walk d.body;
  (* if no straight-line run charged the loop control, charge it now *)
  if not !overhead_charged then
    per_iter := Perf_expr.add !per_iter (Perf_expr.of_cycles (control_cost inner_ctx ~loc));
  (* memory and communication are nest-global (§2.3): charge them when this
     is an outermost loop *)
  let mem_cost =
    if ctx.options.include_memory && ctx.loops = [] then (
      let nests =
        Analysis.innermost_bodies [ Ast.mk (Ast.Do d) ]
      in
      List.fold_left
        (fun acc (loops, body) ->
          Poly.add acc (Pperf_memcost.Memcost.nest_cost ~machine:ctx.machine ~symtab:ctx.symtab loops body))
        Poly.zero nests)
    else Poly.zero
  in
  let comm_cost =
    match ctx.options.layouts with
    | Some layouts when ctx.loops = [] ->
      (match ctx.machine.Machine.comm with
       | Some comm ->
         (* communication happens per phase: boundary exchanges of the whole
            nest are vectorized outside the innermost loops *)
         Commcost.nest_cost ~comm ~symtab:ctx.symtab ~layouts [] [ Ast.mk (Ast.Do d) ]
       | None -> Poly.zero)
    | _ -> Poly.zero
  in
  Perf_expr.add
    (Perf_expr.add
       (Perf_expr.add (Perf_expr.scale trip !per_iter) !per_entry)
       !loop_total_extra)
    (Perf_expr.add (Perf_expr.of_mem mem_cost) (Perf_expr.of_comm comm_cost))

let infer_ranges_of ~options ~symtab body =
  if not options.infer_ranges then None
  else (
    let routine =
      { Ast.rname = "<block>"; rkind = Ast.Subroutine; params = []; decls = []; body }
    in
    Some
      (Pperf_absint.Absint.analyze ~domain:options.range_domain
         { Typecheck.routine; symbols = symtab }))

let sp_aggregate = Pperf_obs.Obs.span "aggregate"

let stmts ~machine ?(options = default_options) ?(prob_offset = 0) ?blocks ~symtab body =
  Pperf_obs.Obs.time sp_aggregate @@ fun () ->
  let ranges = infer_ranges_of ~options ~symtab body in
  let ctx = make_ctx ~machine ~options ~symtab ?ranges ~prob_offset ?blocks () in
  let cost = agg_stmts ctx body in
  (* the translations die with the routine, but for the loop bodies a
     bound analysis of the same request reads; the drops stay for the
     table's next routine *)
  Blocks.iter
    (fun _ blk -> if not (List.mem_assq Steady_control blk.drops) then blk.res <- None)
    ctx.blocks.table;
  {
    cost;
    prob_vars = List.rev ctx.probs.vars;
    diagnostics = Pperf_lint.Lint.dedupe ctx.probs.diags;
  }

let routine ~machine ?(options = default_options) ?blocks (checked : Typecheck.checked) =
  stmts ~machine ~options ?blocks ~symtab:checked.symbols checked.routine.body

let loop_body blocks ~machine ~symtab ~loop_vars ~invariants body =
  match (blocks.owner, find_symtab blocks symtab) with
  | Some (m, flags), Some syms when m == machine && flags = Flags.default -> (
    match Blocks.find_opt blocks.table { shape = Run body; lvars = loop_vars; linv = invariants; syms } with
    | Some { res = Some res; drops; _ } -> (
      match List.assq_opt Steady_control drops with
      | Some d -> Some { Pperf_bounds.Bounds.res; once = d.first; per_iter = d.cost }
      | None -> None)
    | _ -> None)
  | _ -> None
