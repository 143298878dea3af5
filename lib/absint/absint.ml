open Pperf_num
open Pperf_symbolic
open Pperf_lang
module Env = Interval.Env

type domain = Reldom.domain = Box | Octagon | Affine | Product

let domain_of_string = Reldom.domain_of_string
let domain_to_string = Reldom.domain_to_string
let all_domains = Reldom.all_domains

type loop_range = {
  at : Srcloc.t;
  lvar : string;
  index : Interval.t;
  trip : Interval.t;
  depth : int;
}

type result = {
  at_stmt : (Srcloc.t, Env.t) Hashtbl.t;
  rel_stmt : (Srcloc.t, Reldom.t) Hashtbl.t;
  loop_ranges : loop_range list;
  exit_env : Env.t;
  summary_env : Env.t;
  exit_rel : Reldom.t;
  sum_rel : Reldom.t;
  dom : domain;
  symtab : Typecheck.symtab;
}

(* ---------- bounds (Interval exposes the bound constructors) ---------- *)

let bcmp a b =
  match (a, b) with
  | Interval.Neg_inf, Interval.Neg_inf | Interval.Pos_inf, Interval.Pos_inf -> 0
  | Interval.Neg_inf, _ -> -1
  | _, Interval.Neg_inf -> 1
  | Interval.Pos_inf, _ -> 1
  | _, Interval.Pos_inf -> -1
  | Interval.Fin x, Interval.Fin y -> Rat.compare x y

let bmin a b = if bcmp a b <= 0 then a else b
let bmax a b = if bcmp a b >= 0 then a else b
let bneg = function
  | Interval.Neg_inf -> Interval.Pos_inf
  | Interval.Pos_inf -> Interval.Neg_inf
  | Interval.Fin x -> Interval.Fin (Rat.neg x)

let lo_ge_zero iv = bcmp (Interval.lo iv) (Fin Rat.zero) >= 0
let hi_le_zero iv = bcmp (Interval.hi iv) (Fin Rat.zero) <= 0

(* ---------- environment lattice ---------- *)

let domain_of a b =
  List.sort_uniq String.compare
    (List.map fst (Env.bindings a) @ List.map fst (Env.bindings b))

let env_merge f a b =
  List.fold_left
    (fun acc x -> Env.add x (f (Env.find x a) (Env.find x b)) acc)
    Env.empty (domain_of a b)

let join_env a b = env_merge Interval.union a b
let c_widen = Pperf_obs.Obs.counter "absint.widenings"

let widen_env a b =
  Pperf_obs.Obs.incr c_widen;
  env_merge Interval.widen a b
(* [a] itself when [b] refines none of its bounds and the merge adds no
   binding, so a caller can see an unchanged state by physical equality *)
let narrow_env a b =
  let n = env_merge Interval.narrow a b in
  let same (x, u) (y, v) = String.equal x y && Interval.equal u v in
  if List.equal same (Env.bindings n) (Env.bindings a) then a else n

let env_equal a b =
  List.for_all
    (fun x -> Interval.equal (Env.find x a) (Env.find x b))
    (domain_of a b)

let strip env =
  List.fold_left
    (fun acc (x, iv) -> if Interval.is_full iv then acc else Env.add x iv acc)
    Env.empty (Env.bindings env)

let restrict env ~keep =
  List.fold_left
    (fun acc (x, iv) -> if keep x then Env.add x iv acc else acc)
    Env.empty (Env.bindings env)

(* ---------- expression evaluation ---------- *)

let imin a b =
  Interval.make (bmin (Interval.lo a) (Interval.lo b)) (bmin (Interval.hi a) (Interval.hi b))

let imax a b =
  Interval.make (bmax (Interval.lo a) (Interval.lo b)) (bmax (Interval.hi a) (Interval.hi b))

let iabs a =
  if lo_ge_zero a then a
  else if hi_le_zero a then Interval.neg a
  else Interval.make (Fin Rat.zero) (bmax (bneg (Interval.lo a)) (Interval.hi a))

(* Whether the interpreter computes the expression on integers: integer
   literals, integer-typed variables, elements and function results, and
   what arithmetic, [mod], [min]/[max] and [abs] make of them or
   [int]/[nint]/[iabs] make of anything. Without a symbol table no variable
   is integer. *)
let rec int_valued symtab (e : Ast.expr) =
  match e with
  | Ast.Int _ -> true
  | Ast.Real _ | Ast.Logical _ | Ast.Unop (Ast.Not, _) -> false
  | Ast.Unop (Ast.Neg, a) -> int_valued symtab a
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow), a, b) | Ast.Call ("mod", [ a; b ])
    ->
    int_valued symtab a && int_valued symtab b
  | Ast.Binop _ -> false
  | Ast.Call (("int" | "nint" | "iabs"), _) -> true
  | Ast.Call (("abs" | "min" | "min0" | "max" | "max0"), a :: _) -> int_valued symtab a
  | Ast.Call (f, _) when Intrinsics.is_intrinsic f -> false
  | Ast.Var _ | Ast.Index _ | Ast.Call _ -> (
    match symtab with
    | Some tab -> ( try Typecheck.expr_type tab e = Ast.Tint with Typecheck.Type_error _ -> false)
    | None -> false)

(* Whether [e] divides two integer operands: the interpreter truncates that
   quotient, which no polynomial describes. *)
let rec int_div symtab (e : Ast.expr) =
  match e with
  | Ast.Binop (Ast.Div, a, b) when int_valued symtab a && int_valued symtab b -> true
  | Ast.Binop (_, a, b) -> int_div symtab a || int_div symtab b
  | Ast.Unop (_, a) -> int_div symtab a
  | Ast.Int _ | Ast.Real _ | Ast.Logical _ | Ast.Var _ | Ast.Index _ | Ast.Call _ -> false

(* [Sym_expr.to_poly], but an integer division takes the non-polynomial
   rules, which truncate *)
let to_poly symtab e = if int_div symtab e then None else Sym_expr.to_poly e

(* a monotone rounding of both bounds to integers *)
let round_bounds f iv =
  let b = function Interval.Fin x -> Interval.Fin (Rat.of_bigint (f x)) | b -> b in
  Interval.make (b (Interval.lo iv)) (b (Interval.hi iv))

let truncate r = if Rat.sign r >= 0 then Rat.floor r else Rat.ceil r

(* [min]/[max] on an integer first argument: the interpreter truncates the
   real extremum of all the arguments *)
let int_first symtab args iv =
  match args with a :: _ when int_valued symtab a -> round_bounds truncate iv | _ -> iv

let rec eval symtab env (e : Ast.expr) : Interval.t =
  match to_poly symtab e with
  | Some p -> Interval.eval_poly env p
  | None -> eval_raw symtab env e

and eval_raw symtab env e =
  match e with
  | Ast.Int i -> Interval.of_int i
  | Ast.Real (f, _) -> (
    try Interval.point (Rat.of_float f) with Invalid_argument _ -> Interval.full)
  | Ast.Logical _ -> Interval.full
  | Ast.Var x -> Env.find x env
  | Ast.Index _ -> Interval.full
  | Ast.Unop (Ast.Neg, a) -> Interval.neg (eval symtab env a)
  | Ast.Unop (Ast.Not, _) -> Interval.full
  | Ast.Binop (Ast.Add, a, b) -> Interval.add (eval symtab env a) (eval symtab env b)
  | Ast.Binop (Ast.Sub, a, b) -> Interval.sub (eval symtab env a) (eval symtab env b)
  | Ast.Binop (Ast.Mul, a, b) -> Interval.mul (eval symtab env a) (eval symtab env b)
  | Ast.Binop (Ast.Div, a, b) -> (
    match Interval.mul (eval symtab env a) (Interval.pow (eval symtab env b) (-1)) with
    | q ->
      (* integer division truncates toward zero *)
      if int_valued symtab a && int_valued symtab b then round_bounds truncate q else q
    | exception Division_by_zero -> Interval.full)
  | Ast.Binop (Ast.Pow, a, b) -> (
    match Interval.is_point (eval symtab env b) with
    | Some k -> (
      match Rat.to_int k with
      | Some n -> ( try Interval.pow (eval symtab env a) n with Division_by_zero -> Interval.full)
      | None -> Interval.full)
    | None -> Interval.full)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or), _, _)
    ->
    Interval.full
  | Ast.Call (fn, args) -> eval_call symtab fn args (List.map (eval symtab env) args)

and eval_call symtab fn args ivs =
  match (fn, ivs) with
  | ("min" | "min0"), a :: rest ->
    int_first symtab args (List.fold_left imin a rest)
  | ("max" | "max0"), a :: rest ->
    int_first symtab args (List.fold_left imax a rest)
  | ("abs" | "iabs"), [ a ] -> iabs a
  | "mod", [ a; b ] -> (
    match Interval.is_point b with
    | Some k when Rat.is_integer k && Rat.sign k > 0 ->
      (* an integer remainder is at most k - 1 in magnitude, a real one
         under k *)
      let m = if int_valued symtab (List.hd args) then Rat.sub k Rat.one else k in
      if lo_ge_zero a then Interval.of_rats Rat.zero m else Interval.of_rats (Rat.neg m) m
    | _ -> Interval.full)
  | "sqrt", [ a ] when lo_ge_zero a -> Interval.nonneg
  | "exp", [ _ ] -> Interval.nonneg
  | ("float" | "dble"), [ a ] -> a
  | "int", [ a ] -> round_bounds truncate a
  | "nint", [ a ] -> round_bounds Rat.round a
  | _ -> Interval.full

let eval_expr ?symtab env e = eval symtab env e

(* ---------- condition refinement ---------- *)

exception Infeasible

type cmp = Cle | Clt | Cge | Cgt | Ceq

let is_int_var symtab x =
  match Typecheck.lookup symtab x with
  | Some (s : Typecheck.sym) -> s.ty = Ast.Tint
  | None -> false

let int_floor r = Rat.of_bigint (Rat.floor r)
let int_ceil r = Rat.of_bigint (Rat.ceil r)

let constrain_upper ~strict ~is_int env x v =
  let ub =
    if is_int then
      if strict then Rat.sub (int_ceil v) Rat.one else int_floor v
    else v
  in
  let cur = Env.find x env in
  match Interval.intersect cur (Interval.make Neg_inf (Fin ub)) with
  | Some iv -> Env.add x iv env
  | None -> raise Infeasible

let constrain_lower ~strict ~is_int env x v =
  let lb =
    if is_int then
      if strict then Rat.add (int_floor v) Rat.one else int_ceil v
    else v
  in
  let cur = Env.find x env in
  match Interval.intersect cur (Interval.make (Fin lb) Pos_inf) with
  | Some iv -> Env.add x iv env
  | None -> raise Infeasible

(* Constrain [a*x + rest cmp 0] given an enclosure of [rest]: from
   [a*x <= -rest] and [rest >= rest_lo] deduce [x <= -rest_lo / a] (for
   [a > 0]), and the three mirrored cases. *)
let refine_var symtab env x a rest_iv cmp =
  let is_int = is_int_var symtab x in
  let upper env strict =
    match Interval.lo rest_iv with
    | Fin rl -> (
      let v = Rat.div (Rat.neg rl) a in
      if Rat.sign a > 0 then constrain_upper ~strict ~is_int env x v
      else constrain_lower ~strict ~is_int env x v)
    | _ -> env
  in
  let lower env strict =
    match Interval.hi rest_iv with
    | Fin rh -> (
      let v = Rat.div (Rat.neg rh) a in
      if Rat.sign a > 0 then constrain_lower ~strict ~is_int env x v
      else constrain_upper ~strict ~is_int env x v)
    | _ -> env
  in
  match cmp with
  | Cle -> upper env false
  | Clt -> upper env true
  | Cge -> lower env false
  | Cgt -> lower env true
  | Ceq -> lower (upper env false) false

(* Constrain [d cmp 0] by refining every variable linear in [d]. Refined
   variables feed the enclosure of the residual for the next one, so
   [if (i <= n - 1)] tightens both [i] (up) and [n] (down). *)
let refine_cmp symtab env cmp (d : Poly.t) =
  List.fold_left
    (fun env x ->
      let coeffs = Poly.coeffs_in x d in
      let higher = List.exists (fun (k, _) -> k <> 0 && k <> 1) coeffs in
      match (List.assoc_opt 1 coeffs, higher) with
      | Some c1, false -> (
        match Poly.to_const c1 with
        | Some a when not (Rat.is_zero a) ->
          let rest =
            match List.assoc_opt 0 coeffs with Some r -> r | None -> Poly.zero
          in
          refine_var symtab env x a (Interval.eval_poly env rest) cmp
        | _ -> env)
      | _ -> env)
    env (Poly.vars d)

let surely_false op di =
  match op with
  | Ast.Le -> bcmp (Interval.lo di) (Fin Rat.zero) > 0
  | Ast.Lt -> lo_ge_zero di
  | Ast.Ge -> bcmp (Interval.hi di) (Fin Rat.zero) < 0
  | Ast.Gt -> hi_le_zero di
  | Ast.Eq -> not (Interval.contains di Rat.zero)
  | Ast.Ne -> ( match Interval.is_point di with Some p -> Rat.is_zero p | None -> false)
  | _ -> false

let cmp_of = function
  | Ast.Le -> Cle
  | Ast.Lt -> Clt
  | Ast.Ge -> Cge
  | Ast.Gt -> Cgt
  | Ast.Eq -> Ceq
  | _ -> invalid_arg "Absint.cmp_of"

let rec assume symtab env cond =
  match cond with
  | Ast.Logical true -> Some env
  | Ast.Logical false -> None
  | Ast.Unop (Ast.Not, c) -> assume_not symtab env c
  | Ast.Binop (Ast.And, a, b) ->
    Option.bind (assume symtab env a) (fun e -> assume symtab e b)
  | Ast.Binop (Ast.Or, a, b) -> (
    match (assume symtab env a, assume symtab env b) with
    | None, r | r, None -> r
    | Some x, Some y -> Some (join_env x y))
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) -> (
    match to_poly (Some symtab) (Ast.Binop (Ast.Sub, a, b)) with
    | None -> Some env
    | Some d ->
      if surely_false op (Interval.eval_poly env d) then None
      else if op = Ast.Ne then Some env
      else ( try Some (refine_cmp symtab env (cmp_of op) d) with Infeasible -> None))
  | _ -> Some env

and assume_not symtab env c =
  match c with
  | Ast.Logical b -> if b then None else Some env
  | Ast.Unop (Ast.Not, c') -> assume symtab env c'
  | Ast.Binop (Ast.And, a, b) -> (
    match (assume_not symtab env a, assume_not symtab env b) with
    | None, r | r, None -> r
    | Some x, Some y -> Some (join_env x y))
  | Ast.Binop (Ast.Or, a, b) ->
    Option.bind (assume_not symtab env a) (fun e -> assume_not symtab e b)
  | Ast.Binop (Ast.Eq, a, b) -> assume symtab env (Ast.Binop (Ast.Ne, a, b))
  | Ast.Binop (Ast.Ne, a, b) -> assume symtab env (Ast.Binop (Ast.Eq, a, b))
  | Ast.Binop (Ast.Lt, a, b) -> assume symtab env (Ast.Binop (Ast.Ge, a, b))
  | Ast.Binop (Ast.Le, a, b) -> assume symtab env (Ast.Binop (Ast.Gt, a, b))
  | Ast.Binop (Ast.Gt, a, b) -> assume symtab env (Ast.Binop (Ast.Le, a, b))
  | Ast.Binop (Ast.Ge, a, b) -> assume symtab env (Ast.Binop (Ast.Lt, a, b))
  | _ -> Some env

(* Relational counterpart of [assume]: [env] is the (already refined)
   interval box, used to bound residuals the octagon cannot carry. *)
let rec rel_assume symtab env rel cond =
  if Reldom.domain rel = Box then rel
  else (
    let ivb v = Env.find v env in
    match cond with
    | Ast.Unop (Ast.Not, c) -> rel_assume symtab env rel (negate_cond c)
    | Ast.Binop (Ast.And, a, b) -> rel_assume symtab env (rel_assume symtab env rel a) b
    | Ast.Binop (Ast.Or, a, b) ->
      Reldom.join (rel_assume symtab env rel a) (rel_assume symtab env rel b)
    | Ast.Binop ((Ast.Le | Ast.Lt | Ast.Ge | Ast.Gt | Ast.Eq) as op, a, b) -> (
      match to_poly (Some symtab) (Ast.Binop (Ast.Sub, a, b)) with
      | None -> rel
      | Some d ->
        (* strict comparisons tighten by one on all-integer forms *)
        let integral p =
          List.for_all (is_int_var symtab) (Poly.vars p)
          && List.for_all (fun (c, _) -> Rat.is_integer c) (Poly.terms p)
        in
        let bump p = if integral p then Poly.add_const Rat.one p else p in
        (match op with
        | Ast.Le -> Reldom.assume_le ~ivb rel d
        | Ast.Lt -> Reldom.assume_le ~ivb rel (bump d)
        | Ast.Ge -> Reldom.assume_le ~ivb rel (Poly.neg d)
        | Ast.Gt -> Reldom.assume_le ~ivb rel (bump (Poly.neg d))
        | _ -> Reldom.assume_eq ~ivb rel d))
    | _ -> rel)

and negate_cond c =
  match c with
  | Ast.Logical b -> Ast.Logical (not b)
  | Ast.Unop (Ast.Not, c') -> c'
  | Ast.Binop (Ast.And, a, b) -> Ast.Binop (Ast.Or, negate_cond a, negate_cond b)
  | Ast.Binop (Ast.Or, a, b) -> Ast.Binop (Ast.And, negate_cond a, negate_cond b)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) ->
    Ast.Binop (negate_op op, a, b)
  | _ -> Ast.Unop (Ast.Not, c)

and decide_cond ?rel ?symtab env cond =
  match cond with
  | Ast.Logical b -> Some b
  | Ast.Unop (Ast.Not, c) -> Option.map not (decide_cond ?rel ?symtab env c)
  | Ast.Binop (Ast.And, a, b) -> (
    match (decide_cond ?rel ?symtab env a, decide_cond ?rel ?symtab env b) with
    | Some false, _ | _, Some false -> Some false
    | Some true, Some true -> Some true
    | _ -> None)
  | Ast.Binop (Ast.Or, a, b) -> (
    match (decide_cond ?rel ?symtab env a, decide_cond ?rel ?symtab env b) with
    | Some true, _ | _, Some true -> Some true
    | Some false, Some false -> Some false
    | _ -> None)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) ->
    let di =
      match to_poly symtab (Ast.Binop (Ast.Sub, a, b)) with
      | Some d -> (
        let iv = Interval.eval_poly env d in
        match rel with
        | Some r when Reldom.domain r <> Box -> (
          let ivb v = Env.find v env in
          match Interval.intersect iv (Reldom.bound ~ivb r d) with
          | Some m -> m
          | None -> iv)
        | _ -> iv)
      | None -> Interval.sub (eval symtab env a) (eval symtab env b)
    in
    let surely_true op di = surely_false (negate_op op) di in
    if surely_true op di then Some true
    else if surely_false op di then Some false
    else None
  | _ -> None

and negate_op = function
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt
  | op -> op

(* ---------- statement transfer ---------- *)

type ctx = {
  symtab : Typecheck.symtab;
  tbl : (Srcloc.t, Env.t) Hashtbl.t;
  rel_tbl : (Srcloc.t, Reldom.t) Hashtbl.t;
  dom : domain;
  thresholds : Rat.t list;
  mutable loops : loop_range list;
  mutable exits : (Env.t * Reldom.t) list;
  mutable depth : int;
}

(* Relational transfers run under their own span so --trace shows the cost
   split out of the enclosing fixpoint. *)
let rtime ctx f =
  if ctx.dom = Box then f ()
  else Pperf_obs.Obs.time (Lazy.force Reldom.sp_relational) f

let record ctx loc env rel =
  (match Hashtbl.find_opt ctx.tbl loc with
  | Some e -> Hashtbl.replace ctx.tbl loc (join_env e env)
  | None -> Hashtbl.add ctx.tbl loc env);
  if ctx.dom <> Box then
    match Hashtbl.find_opt ctx.rel_tbl loc with
    | Some r -> Hashtbl.replace ctx.rel_tbl loc (Reldom.join r rel)
    | None -> Hashtbl.add ctx.rel_tbl loc rel

let join_st (e1, r1) (e2, r2) = (join_env e1 e2, Reldom.join r1 r2)

let assume_st ctx (env, rel) cond =
  match assume ctx.symtab env cond with
  | None -> None
  | Some env' -> Some (env', rtime ctx (fun () -> rel_assume ctx.symtab env' rel cond))

let assume_not_st ctx (env, rel) cond =
  match assume_not ctx.symtab env cond with
  | None -> None
  | Some env' ->
    Some (env', rtime ctx (fun () -> rel_assume ctx.symtab env' rel (negate_cond cond)))

let is_scalar ctx x =
  match Typecheck.lookup ctx.symtab x with
  | Some (s : Typecheck.sym) -> s.dims = []
  | None -> true

let is_int ctx x =
  match Typecheck.lookup ctx.symtab x with
  | Some (s : Typecheck.sym) -> s.ty = Ast.Tint
  | None -> false

let max_iters = 50

let rec exec_stmts ctx ~rec_ st stmts =
  List.fold_left (fun st s -> exec_stmt ctx ~rec_ st s) st stmts

and exec_stmt ctx ~rec_ st (s : Ast.stmt) =
  match st with
  | None -> None
  | Some ((env, rel) as st) -> (
    if rec_ then record ctx s.loc env rel;
    match s.kind with
    | Ast.Assign (lhs, e) ->
      if lhs.subs = [] && is_scalar ctx lhs.base then (
        (* the interpreter truncates a real value stored into an integer,
           which no linear fact describes *)
        let truncates = is_int ctx lhs.base && not (int_valued (Some ctx.symtab) e) in
        let rel' =
          rtime ctx (fun () ->
              let ivb v = Env.find v env in
              Reldom.assign ~ivb rel lhs.base
                (if truncates then None else to_poly (Some ctx.symtab) e))
        in
        let v = eval (Some ctx.symtab) env e in
        Some (Env.add lhs.base (if truncates then round_bounds truncate v else v) env, rel'))
      else Some st
    | Ast.Call_stmt (_, args) ->
      (* scalars passed by reference may be clobbered by the callee *)
      Some
        (List.fold_left
           (fun (env, rel) a ->
             match a with
             | Ast.Var x when is_scalar ctx x ->
               (Env.add x Interval.full env, Reldom.forget rel x)
             | _ -> (env, rel))
           st args)
    | Ast.Return ->
      if rec_ then ctx.exits <- st :: ctx.exits;
      None
    | Ast.If (branches, els) ->
      let fall = ref (Some st) in
      let outs = ref [] in
      List.iter
        (fun (cond, body) ->
          let enter = Option.bind !fall (fun e -> assume_st ctx e cond) in
          (match exec_stmts ctx ~rec_ enter body with
          | Some o -> outs := o :: !outs
          | None -> ());
          fall := Option.bind !fall (fun e -> assume_not_st ctx e cond))
        branches;
      (match exec_stmts ctx ~rec_ !fall els with
      | Some o -> outs := o :: !outs
      | None -> ());
      (match !outs with
      | [] -> None
      | o :: rest -> Some (List.fold_left join_st o rest))
    | Ast.Do d -> exec_do ctx ~rec_ st s.loc d)

and exec_do ctx ~rec_ (env, rel) loc (d : Ast.do_loop) =
  let eval = eval (Some ctx.symtab) env in
  let lo_iv = eval d.lo and hi_iv = eval d.hi in
  let step_expr = match d.step with Some s -> s | None -> Ast.Int 1 in
  let step_iv = eval step_expr in
  let step_const = Interval.is_point step_iv in
  let step_sign =
    match step_const with
    | Some r -> Rat.sign r
    | None -> ( match Interval.sign step_iv with Pos -> 1 | Neg -> -1 | _ -> 0)
  in
  (* enclosure of the index over all executed iterations; None = provably
     zero-trip *)
  let idx_opt =
    if step_sign > 0 then (
      try Some (Interval.make (Interval.lo lo_iv) (Interval.hi hi_iv))
      with Invalid_argument _ -> None)
    else if step_sign < 0 then (
      try Some (Interval.make (Interval.lo hi_iv) (Interval.hi lo_iv))
      with Invalid_argument _ -> None)
    else Some (Interval.union lo_iv hi_iv)
  in
  let clamp iv =
    match Interval.intersect iv Interval.nonneg with
    | Some t -> t
    | None -> Interval.point Rat.zero
  in
  let trip =
    match idx_opt with
    | None -> Interval.point Rat.zero
    | Some _ -> (
      match step_const with
      | Some s when Rat.sign s <> 0 ->
        (* trip = max 0 (floor ((hi - lo) / s) + 1), evaluated over the box *)
        let t =
          Interval.add
            (Interval.scale (Rat.inv s) (Interval.sub hi_iv lo_iv))
            (Interval.point Rat.one)
        in
        let t =
          match (Interval.lo t, Interval.hi t) with
          | l, Fin h ->
            let fh = Interval.Fin (int_floor h) in
            Interval.make (bmin l fh) fh
          | _ -> t
        in
        clamp t
      | _ -> Interval.nonneg)
  in
  (if rec_ then
     let index = match idx_opt with Some i -> i | None -> Interval.union lo_iv hi_iv in
     ctx.loops <- { at = loc; lvar = d.var; index; trip; depth = ctx.depth } :: ctx.loops);
  match idx_opt with
  | None ->
    (* the body never executes; the index is left at lo *)
    let rel' =
      rtime ctx (fun () ->
          let ivb v = Env.find v env in
          Reldom.assign ~ivb rel d.var (to_poly (Some ctx.symtab) d.lo))
    in
    Some (Env.add d.var lo_iv env, rel')
  | Some idx ->
    let entry = env in
    (* Loop-head relational guards [lo <= i <= hi] (mirrored for a negative
       step). Sound only for loop-invariant bounds — Fortran evaluates DO
       bounds once at entry, so the guard may not mention anything the body
       (or the loop itself) assigns. *)
    let mutated =
      Analysis.SSet.add d.var
        (Analysis.SSet.union
           (Analysis.assigned_vars d.body)
           (Analysis.loop_indices d.body))
    in
    let inv_poly e =
      match to_poly (Some ctx.symtab) e with
      | Some p when List.for_all (fun x -> not (Analysis.SSet.mem x mutated)) (Poly.vars p)
        ->
        Some p
      | _ -> None
    in
    let guards =
      if ctx.dom = Box || step_sign = 0 then []
      else (
        let ip = Poly.var d.var in
        let pair lo hi =
          (match lo with Some p -> [ Poly.sub p ip ] | None -> [])
          @ (match hi with Some p -> [ Poly.sub ip p ] | None -> [])
        in
        if step_sign > 0 then pair (inv_poly d.lo) (inv_poly d.hi)
        else pair (inv_poly d.hi) (inv_poly d.lo))
    in
    let set_idx_st (env, rel) =
      let env' = Env.add d.var idx env in
      let rel' =
        rtime ctx (fun () ->
            let ivb v = Env.find v env' in
            List.fold_left
              (fun r g -> Reldom.assume_le ~ivb r g)
              (Reldom.forget rel d.var) guards)
      in
      (env', rel')
    in
    let entry_st = set_idx_st (entry, rel) in
    let body st = exec_stmts ctx ~rec_:false (Some st) d.body in
    ctx.depth <- ctx.depth + 1;
    (* The head the iteration stops at, with the body's output there when
       its last evaluation ran at that head: it converged, or the body
       never completes. Past max_iters the head has moved since. *)
    let rec iterate head iter =
      let out = body head in
      match out with
      | None -> (head, Some out)
      | Some o ->
        let he, hr = head in
        let ne, nr = join_st head (set_idx_st o) in
        if env_equal ne he && Reldom.equal nr hr then (head, Some out)
        else (
          let next =
            if iter >= 3 then (widen_env he ne, Reldom.widen ~thresholds:ctx.thresholds hr nr)
            else (ne, nr)
          in
          if iter >= max_iters then (next, None) else iterate next (iter + 1))
    in
    let head, last = iterate entry_st 1 in
    (* One narrowing pass to recover bounds widening discarded, then the
       final pass. Unrecorded, the body's output is a function of its input
       state's representation, so neither pass re-runs it at a head it was
       just run at: narrowing takes the last iteration's output, and the
       final pass takes narrowing's when narrowing returned the head itself
       (both narrowings return their left operand when they refine
       nothing). *)
    let at_head = match last with Some out -> out | None -> body head in
    let narrowed =
      match at_head with
      | Some out ->
        let he, hr = head in
        let ne, nr = join_st entry_st (set_idx_st out) in
        (narrow_env he ne, Reldom.narrow hr nr)
      | None -> head
    in
    let out =
      if (not rec_) && fst narrowed == fst head && snd narrowed == snd head then at_head
      else exec_stmts ctx ~rec_ (Some narrowed) d.body
    in
    ctx.depth <- ctx.depth - 1;
    let after_base, after_rel =
      match out with
      | None -> (entry, rel)
      | Some (oe, orl) -> (join_env entry oe, Reldom.join rel orl)
    in
    (* the index's exit value is not one of the in-loop values the
       relational facts were proved for *)
    let after_rel = rtime ctx (fun () -> Reldom.forget after_rel d.var) in
    let idx_after =
      match step_const with
      | Some s ->
        (* exit value lies in (hi, hi+s] (or [hi+s, hi) downward), plus lo
           when the loop runs zero times *)
        let sstep = Interval.of_rats (Rat.min Rat.zero s) (Rat.max Rat.zero s) in
        Interval.union lo_iv (Interval.add hi_iv sstep)
      | None -> Interval.full
    in
    Some (Env.add d.var idx_after after_base, after_rel)

(* ---------- seeding and entry point ---------- *)

(* Declared dimension extents are at least one element: [hi - lo >= 0].
   Constrains e.g. [n >= 1] for a parameter array [a(n)]. *)
let seed_env symtab =
  List.fold_left
    (fun env (_, (s : Typecheck.sym)) ->
      List.fold_left
        (fun env (dim : Ast.array_dim) ->
          let lo_e = Option.value dim.dim_lo ~default:(Ast.Int 1) in
          match to_poly (Some symtab) (Ast.Binop (Ast.Sub, dim.dim_hi, lo_e)) with
          | Some diff -> ( try refine_cmp symtab env Cge diff with Infeasible -> env)
          | None -> env)
        env s.dims)
    Env.empty (Typecheck.symbols_list symtab)

let sp_fixpoint = Pperf_obs.Obs.span "absint.fixpoint"

(* Widening thresholds: the routine's integer literals (and their simple
   multiples), so octagon bounds step through program constants instead of
   jumping straight to infinity. *)
let collect_thresholds (r : Ast.routine) =
  let acc = ref [ Rat.zero ] in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Int i ->
      let k = Rat.of_int i in
      let k2 = Rat.mul Rat.two k in
      acc := k :: Rat.neg k :: k2 :: Rat.neg k2 :: !acc
    | Ast.Real _ | Ast.Logical _ | Ast.Var _ -> ()
    | Ast.Index (_, es) | Ast.Call (_, es) -> List.iter expr es
    | Ast.Unop (_, a) -> expr a
    | Ast.Binop (_, a, b) ->
      expr a;
      expr b
  in
  let rec stmt (s : Ast.stmt) =
    match s.kind with
    | Ast.Assign (lhs, e) ->
      List.iter expr lhs.subs;
      expr e
    | Ast.If (branches, els) ->
      List.iter
        (fun (c, body) ->
          expr c;
          List.iter stmt body)
        branches;
      List.iter stmt els
    | Ast.Do d ->
      expr d.lo;
      expr d.hi;
      Option.iter expr d.step;
      List.iter stmt d.body
    | Ast.Call_stmt (_, es) -> List.iter expr es
    | Ast.Return -> ()
  in
  List.iter stmt r.body;
  List.sort_uniq Rat.compare !acc

(* Relational counterpart of [seed_env]: declared extents give
   [lo - hi <= 0] octagon facts relating e.g. a bound variable pair. Arrays
   declared alike give the same fact, which is assumed once. *)
let seed_rel symtab dom entry =
  let top = Reldom.top dom in
  if dom = Box then top
  else (
    let ivb v = Env.find v entry in
    let facts =
      List.fold_left
        (fun acc (_, (s : Typecheck.sym)) ->
          List.fold_left
            (fun acc (dim : Ast.array_dim) ->
              let lo_e = Option.value dim.dim_lo ~default:(Ast.Int 1) in
              match to_poly (Some symtab) (Ast.Binop (Ast.Sub, lo_e, dim.dim_hi)) with
              | Some diff when not (List.exists (Poly.equal diff) acc) -> diff :: acc
              | _ -> acc)
            acc s.dims)
        []
        (Typecheck.symbols_list symtab)
    in
    List.fold_left (fun rel diff -> Reldom.assume_le ~ivb rel diff) top (List.rev facts))

let analyze ?(domain = Box) (checked : Typecheck.checked) =
  Pperf_obs.Obs.time sp_fixpoint @@ fun () ->
  let ctx =
    {
      symtab = checked.symbols;
      tbl = Hashtbl.create 64;
      rel_tbl = Hashtbl.create 64;
      dom = domain;
      thresholds = (if domain = Box then [] else collect_thresholds checked.routine);
      loops = [];
      exits = [];
      depth = 0;
    }
  in
  let entry = seed_env checked.symbols in
  let entry_rel = rtime ctx (fun () -> seed_rel checked.symbols domain entry) in
  let out = exec_stmts ctx ~rec_:true (Some (entry, entry_rel)) checked.routine.body in
  let exits = match out with Some o -> o :: ctx.exits | None -> ctx.exits in
  let exit_envs = List.map fst exits in
  let exit_env =
    match exit_envs with [] -> Env.empty | e :: r -> strip (List.fold_left join_env e r)
  in
  let exit_rel =
    match List.map snd exits with
    | [] -> Reldom.top domain
    | e :: r -> List.fold_left Reldom.join e r
  in
  let assigned =
    Analysis.SSet.union
      (Analysis.assigned_vars checked.routine.body)
      (Analysis.loop_indices checked.routine.body)
  in
  let summary_env =
    (* assigned variables: union of every tracked value; inputs: only the
       routine-wide facts from the declaration seed *)
    let tbl = Hashtbl.create 16 in
    let absorb env =
      List.iter
        (fun (x, iv) ->
          if Analysis.SSet.mem x assigned && not (Interval.is_full iv) then
            match Hashtbl.find_opt tbl x with
            | Some cur -> Hashtbl.replace tbl x (Interval.union cur iv)
            | None -> Hashtbl.add tbl x iv)
        (Env.bindings env)
    in
    Hashtbl.iter (fun _ e -> absorb e) ctx.tbl;
    List.iter absorb exit_envs;
    let acc =
      Hashtbl.fold
        (fun x iv acc -> if Interval.is_full iv then acc else Env.add x iv acc)
        tbl Env.empty
    in
    List.fold_left
      (fun acc (x, iv) ->
        if Analysis.SSet.mem x assigned || Interval.is_full iv then acc
        else Env.add x iv acc)
      acc (Env.bindings entry)
  in
  let sum_rel =
    (* a relation graduates to the summary when every recorded program
       point either entails it or leaves some of its variables completely
       unconstrained (the fact is about values not yet computed there) *)
    if domain = Box then entry_rel
    else
      rtime ctx (fun () ->
          let states =
            Hashtbl.fold (fun _ r acc -> r :: acc) ctx.rel_tbl (List.map snd exits)
          in
          let holds_at p (c : Lin.cons) =
            Reldom.entails p c
            || List.exists (fun x -> Reldom.unconstrained p x) (Lin.vars c.lhs)
          in
          let kept =
            List.filter
              (fun c -> List.for_all (fun p -> holds_at p c) states)
              (Reldom.constraints exit_rel)
          in
          List.fold_left Reldom.assume_cons (Reldom.top domain) kept)
  in
  {
    at_stmt = ctx.tbl;
    rel_stmt = ctx.rel_tbl;
    loop_ranges = List.rev ctx.loops;
    exit_env;
    summary_env;
    exit_rel;
    sum_rel;
    dom = domain;
    symtab = checked.symbols;
  }

let ranges_at r loc =
  match Hashtbl.find_opt r.at_stmt loc with Some e -> strip e | None -> Env.empty

let summary r = r.summary_env
let exit_env r = r.exit_env
let loops r = r.loop_ranges
let domain_used (r : result) = r.dom

(* the relational state holding immediately before the statement (top for
   unknown locations or the [Box] domain) *)
let rel_at r loc =
  match Hashtbl.find_opt r.rel_stmt loc with Some rel -> rel | None -> Reldom.top r.dom

let env_at r loc =
  match Hashtbl.find_opt r.at_stmt loc with Some e -> e | None -> Env.empty

let meet_rel env rel p iv =
  let ivb v = Env.find v env in
  match Interval.intersect iv (Reldom.bound ~ivb rel p) with Some m -> m | None -> iv

let bound_at r loc p =
  let env = env_at r loc in
  let iv = Interval.eval_poly env p in
  if r.dom = Box then iv else meet_rel env (rel_at r loc) p iv

let decide_cond_at r loc cond =
  let env = env_at r loc in
  if r.dom = Box then decide_cond ~symtab:r.symtab env cond
  else decide_cond ~rel:(rel_at r loc) ~symtab:r.symtab env cond

let summary_rel r = r.sum_rel

let rewrites r = Reldom.rewrites r.sum_rel
let relations r = Reldom.constraints r.sum_rel
let relation_points (r : result) =
  if r.dom = Box then []
  else
    Hashtbl.fold (fun loc rel acc -> (loc, Reldom.constraints rel) :: acc) r.rel_stmt []
    |> List.filter (fun (_, cs) -> cs <> [])
    |> List.sort (fun ((a : Srcloc.t), _) ((b : Srcloc.t), _) ->
           compare (a.line, a.col) (b.line, b.col))

let pp_loop_range fmt (l : loop_range) =
  Format.fprintf fmt "%s%s at %s: index %s, trip %s"
    (String.make (2 * l.depth) ' ')
    l.lvar (Srcloc.to_string l.at)
    (Interval.to_string l.index)
    (Interval.to_string l.trip)
