open Pperf_lang
open Pperf_machine
open Pperf_sched
module SSet = Analysis.SSet
module Memo = Pperf_obs.Memo

type result = {
  body : Dag.t;
  one_time : Dag.t;
  loads : int;
  stores : int;
  flops : int;
  int_ops : int;
}

exception Not_straight_line of Srcloc.t

(* ---- builder state ---- *)

type instr = {
  basic : Basic_op.t;
  deps : int list;  (** indices of producing instrs; -1 entries are free values *)
  label : string;
  invariant : bool;
}

type builder = {
  machine : Machine.t;
  flags : Flags.t;
  symtab : Typecheck.symtab;
  loop_vars : string list;
  invariants : SSet.t;
  mutable instrs : instr array;  (** growable; first [count] entries valid *)
  mutable count : int;
  vtable : (string, int) Hashtbl.t;  (** value numbering: key -> instr id *)
  etype : (Ast.expr, Ast.dtype option) Hashtbl.t;  (** memoized expr_type *)
  ekey : (Ast.expr, string) Hashtbl.t;  (** memoized expr_key *)
  mutable reg_queue : string list;  (** LRU of resident load keys (oldest first) *)
  mutable scalar_env : (string * int) list;  (** block-local scalar values *)
  mutable last_store : (string * int) list;  (** array -> last store instr *)
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_flops : int;
  mutable n_intops : int;
}

let free_value = -1

(* a value that lives in a register but varies with the enclosing loop
   (an induction variable): free to read, NOT loop-invariant *)
let loop_value = -2

let dummy_instr = { basic = Basic_op.B_branch; deps = []; label = ""; invariant = false }

let emit b ?(invariant = false) basic deps label =
  let id = b.count in
  b.count <- id + 1;
  let deps = List.filter (fun d -> d >= 0) deps in
  (* statistics describe the per-iteration body; one-time ops don't count *)
  if not invariant then
  (match basic with
   | Basic_op.B_load _ -> b.n_loads <- b.n_loads + 1
   | B_store _ -> b.n_stores <- b.n_stores + 1
   | B_fadd _ | B_fsub _ | B_fmul _ | B_fdiv _ | B_fneg | B_fcmp | B_fselect -> b.n_flops <- b.n_flops + 1
   | B_fma _ -> b.n_flops <- b.n_flops + 2
   | B_iadd | B_isub | B_imul _ | B_ishift | B_ilogic | B_idiv | B_ineg | B_icmp ->
     b.n_intops <- b.n_intops + 1
   | _ -> ());
  if id >= Array.length b.instrs then (
    let grown = Array.make (Stdlib.max 16 (2 * Array.length b.instrs)) dummy_instr in
    Array.blit b.instrs 0 grown 0 id;
    b.instrs <- grown);
  b.instrs.(id) <- { basic; deps; label; invariant };
  id

let instr_of b id = b.instrs.(id)

let is_invariant_value b id =
  if id = free_value then true
  else if id = loop_value then false
  else (instr_of b id).invariant

let binop_key_name : Ast.binop -> string = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Pow -> "**"
  | Ast.Eq -> "=="
  | Ast.Ne -> "/="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.And -> "&&"
  | Ast.Or -> "||"

(* the exact-hex rendering of a float literal is format-machinery slow;
   distinct literals recur across the many builders one prediction makes,
   so memoize the rendering per worker domain *)
let real_keys = Memo.create Memo.Per_domain "translate.real_keys" ~capacity:4096
let real_key f = Memo.find_or_add real_keys f (fun () -> Printf.sprintf "%h" f)

(* canonical string key of an expression for value numbering; memoized
   per builder so nested expressions don't rebuild their children's keys
   at every enclosing node *)
let rec expr_key b (e : Ast.expr) : string =
  match Hashtbl.find_opt b.ekey e with
  | Some k -> k
  | None ->
    let k =
      match e with
      | Ast.Int i -> string_of_int i
      | Ast.Real (f, _) -> real_key f
      | Ast.Logical l -> string_of_bool l
      | Ast.Var x -> x
      | Ast.Index (a, subs) -> a ^ "[" ^ String.concat "," (List.map (expr_key b) subs) ^ "]"
      | Ast.Call (f, args) -> f ^ "(" ^ String.concat "," (List.map (expr_key b) args) ^ ")"
      | Ast.Unop (op, a) -> (match op with Ast.Neg -> "-" | Ast.Not -> "!") ^ expr_key b a
      | Ast.Binop (op, x, y) ->
        let ka = expr_key b x and kb = expr_key b y in
        let ka, kb =
          (* commutative normalization *)
          match op with
          | Ast.Add | Ast.Mul | Ast.And | Ast.Or | Ast.Eq | Ast.Ne ->
            if String.compare ka kb <= 0 then (ka, kb) else (kb, ka)
          | _ -> (ka, kb)
        in
        String.concat "" [ "("; ka; " "; binop_key_name op; " "; kb; ")" ]
    in
    Hashtbl.add b.ekey e k;
    k

(* value-numbering lookup gated by the CSE flag and the register-pressure
   LRU window for loads *)
let vn_lookup b ~is_load key =
  if not b.flags.Flags.cse then None
  else
    match Hashtbl.find_opt b.vtable key with
    | None -> None
    | Some id when not is_load -> Some id
    | Some id ->
      if not b.flags.Flags.register_pressure then Some id
      else if List.mem key b.reg_queue then (
        (* refresh LRU position *)
        b.reg_queue <- List.filter (fun k -> not (String.equal k key)) b.reg_queue @ [ key ];
        Some id)
      else None (* evicted: must reload *)

let vn_record b ~is_load key id =
  if b.flags.Flags.cse then (
    Hashtbl.replace b.vtable key id;
    if is_load && b.flags.Flags.register_pressure then (
      b.reg_queue <- b.reg_queue @ [ key ];
      let limit = max 4 b.machine.Machine.register_load_limit in
      if List.length b.reg_queue > limit then (
        match b.reg_queue with
        | oldest :: rest ->
          b.reg_queue <- rest;
          Hashtbl.remove b.vtable oldest
        | [] -> ())))

(* expr_type walks the whole subexpression; the translator asks for the
   type of every node of every expression, so memoize per builder *)
let expr_type_memo b e =
  match Hashtbl.find_opt b.etype e with
  | Some r -> r
  | None ->
    let r = try Some (Typecheck.expr_type b.symtab e) with _ -> None in
    Hashtbl.add b.etype e r;
    r

let float_expr b e =
  match expr_type_memo b e with Some t -> Typecheck.is_float_type t | None -> true

let prec_of b e =
  match expr_type_memo b e with Some Ast.Tdouble -> Basic_op.Double | _ -> Basic_op.Single

(* is this integer expression free inside the block? loop indices and small
   constants live in registers; affine combinations of them are handled by
   update-form addressing when the flag is on *)
let subscript_is_free b (e : Ast.expr) =
  if not b.flags.Flags.update_addressing then
    match e with Ast.Int _ | Ast.Var _ -> true | _ -> false
  else (
    match Sym_expr.affine_hint b.loop_vars e with
    | `Affine -> true (* affine residues are loop-var free by construction *)
    | `Not -> false
    | `Unknown -> (
      match Sym_expr.affine_in b.loop_vars e with
      | Some (_, rest) ->
        (* the residue must be invariant (symbolic constants allowed: their
           contribution is folded into the preloaded base address) *)
        List.for_all
          (fun v -> SSet.mem v b.invariants || not (List.mem v b.loop_vars))
          (Pperf_symbolic.Poly.vars rest)
      | None -> false))

let small_int_const = function
  | Ast.Int i when i >= -128 && i <= 127 -> true
  | _ -> false

let is_pow2_const = function
  | Ast.Int i when i > 0 && i land (i - 1) = 0 -> true
  | _ -> false

(* ---- expression translation: returns the producing instr id ---- *)

let rec tr_expr b (e : Ast.expr) : int =
  match e with
  | Ast.Int _ | Ast.Real _ | Ast.Logical _ -> free_value
  | Ast.Var x -> (
    match List.assoc_opt x b.scalar_env with
    | Some v -> v (* block-local value, still in a register *)
    | None ->
      if List.mem x b.loop_vars then loop_value (* induction variable in a register *)
      else (
        let key = "var:" ^ x in
        match vn_lookup b ~is_load:true key with
        | Some id -> id
        | None ->
          let float = float_expr b e in
          let inv = b.flags.Flags.licm && SSet.mem x b.invariants && b.loop_vars <> [] in
          let id = emit b ~invariant:inv (Basic_op.B_load { float }) [] ("load " ^ x) in
          vn_record b ~is_load:true key id;
          id))
  | Ast.Index (a, subs) ->
    let store_gen =
      match List.assoc_opt a b.last_store with Some id -> id | None -> free_value
    in
    let key =
      String.concat "" [ "mem:"; a; ":"; expr_key b e; ":"; string_of_int store_gen ]
    in
    (match vn_lookup b ~is_load:true key with
     | Some id -> id
     | None ->
       let addr_deps = tr_address b subs in
       let float = float_expr b e in
       let inv =
         b.flags.Flags.licm && b.loop_vars <> []
         && SSet.mem a b.invariants
         && store_gen = free_value
         && List.for_all
              (fun sub ->
                (not (Analysis.has_call sub))
                && SSet.for_all (fun v -> SSet.mem v b.invariants) (Analysis.expr_reads sub))
              subs
       in
       let deps = if store_gen >= 0 then store_gen :: addr_deps else addr_deps in
       let id = emit b ~invariant:inv (Basic_op.B_load { float }) deps ("load " ^ expr_key b e) in
       vn_record b ~is_load:true key id;
       id)
  | Ast.Unop (Ast.Neg, a) ->
    let va = tr_expr b a in
    let basic = if float_expr b a then Basic_op.B_fneg else Basic_op.B_ineg in
    emit_vn b basic [ va ] ("-" ^ expr_key b a)
  | Ast.Unop (Ast.Not, a) ->
    let va = tr_expr b a in
    emit_vn b Basic_op.B_ilogic [ va ] (".not. " ^ expr_key b a)
  | Ast.Binop (op, x, y) -> tr_binop b e op x y
  | Ast.Call (f, args) -> tr_call b e f args

and emit_vn b basic deps label =
  (* the label (a canonical rendering of the source expression) keeps
     constant-fed operations from colliding in the value table *)
  let key =
    String.concat ""
      ("op:" :: Basic_op.to_string basic :: ":"
      :: List.fold_right (fun d acc -> string_of_int d :: "," :: acc) deps [ ":"; label ])
  in
  match vn_lookup b ~is_load:false key with
  | Some id -> id
  | None ->
    let inv =
      b.flags.Flags.licm && b.loop_vars <> [] && List.for_all (is_invariant_value b) deps
      && (match basic with Basic_op.B_load _ | B_store _ | B_call -> false | _ -> true)
    in
    let id = emit b ~invariant:inv basic deps label in
    vn_record b ~is_load:false key id;
    id

and tr_address b subs =
  (* address arithmetic for an array reference; free when affine in the
     loop indices (update-form addressing / strength reduction) *)
  List.filter_map
    (fun sub ->
      if subscript_is_free b sub then None
      else (
        let v = tr_expr b sub in
        (* index scaling: one integer op to fold into the address *)
        let id = emit_vn b Basic_op.B_iadd [ v ] ("addr " ^ expr_key b sub) in
        Some id))
    subs

and tr_binop b whole op x y =
  let float = float_expr b whole in
  let prec = prec_of b whole in
  match op with
  | Ast.Add | Ast.Sub when float && b.flags.Flags.fma_fusion ->
    (* FMA fusion: a*b + c, c + a*b, a*b - c *)
    let fuse mx my other order_label =
      let vx = tr_expr b mx in
      let vy = tr_expr b my in
      let vo = tr_expr b other in
      emit_vn b (Basic_op.B_fma prec) [ vx; vy; vo ] order_label
    in
    (match (op, x, y) with
     | _, Ast.Binop (Ast.Mul, mx, my), other when float_expr b x ->
       fuse mx my other ("fma " ^ expr_key b whole)
     | Ast.Add, other, Ast.Binop (Ast.Mul, mx, my) when float_expr b y ->
       fuse mx my other ("fma " ^ expr_key b whole)
     | _ ->
       let vx = tr_expr b x and vy = tr_expr b y in
       let basic = if op = Ast.Add then Basic_op.B_fadd prec else Basic_op.B_fsub prec in
       emit_vn b basic [ vx; vy ] (expr_key b whole))
  | Ast.Add | Ast.Sub ->
    let vx = tr_expr b x and vy = tr_expr b y in
    let basic =
      if float then if op = Ast.Add then Basic_op.B_fadd prec else Basic_op.B_fsub prec
      else if op = Ast.Add then Basic_op.B_iadd
      else Basic_op.B_isub
    in
    emit_vn b basic [ vx; vy ] (expr_key b whole)
  | Ast.Mul ->
    let vx = tr_expr b x and vy = tr_expr b y in
    if float then emit_vn b (Basic_op.B_fmul prec) [ vx; vy ] (expr_key b whole)
    else if is_pow2_const x || is_pow2_const y then
      emit_vn b Basic_op.B_ishift [ vx; vy ] (expr_key b whole)
    else (
      let small = small_int_const x || small_int_const y in
      emit_vn b (Basic_op.B_imul { small }) [ vx; vy ] (expr_key b whole))
  | Ast.Div ->
    let vx = tr_expr b x and vy = tr_expr b y in
    if float then emit_vn b (Basic_op.B_fdiv prec) [ vx; vy ] (expr_key b whole)
    else if is_pow2_const y then emit_vn b Basic_op.B_ishift [ vx; vy ] (expr_key b whole)
    else emit_vn b Basic_op.B_idiv [ vx; vy ] (expr_key b whole)
  | Ast.Pow -> tr_pow b whole x y
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let vx = tr_expr b x and vy = tr_expr b y in
    let basic = if float_expr b x || float_expr b y then Basic_op.B_fcmp else Basic_op.B_icmp in
    emit_vn b basic [ vx; vy ] (expr_key b whole)
  | Ast.And | Ast.Or ->
    let vx = tr_expr b x and vy = tr_expr b y in
    emit_vn b Basic_op.B_ilogic [ vx; vy ] (expr_key b whole)

and tr_pow b whole x y =
  let float = float_expr b whole in
  let prec = prec_of b whole in
  match y with
  | Ast.Int k when k >= 1 && k <= 16 ->
    (* repeated squaring chain *)
    let vx = tr_expr b x in
    let mul_basic = if float then Basic_op.B_fmul prec else Basic_op.B_imul { small = false } in
    let rec build k =
      if k = 1 then vx
      else if k land 1 = 0 then (
        let h = build (k / 2) in
        emit_vn b mul_basic [ h; h ] (Printf.sprintf "pow^%d" k))
      else (
        let h = build (k - 1) in
        emit_vn b mul_basic [ h; vx ] (Printf.sprintf "pow^%d" k))
    in
    build k
  | _ ->
    (* x ** y = exp(y * log x): log, multiply, exp *)
    let vx = tr_expr b x and vy = tr_expr b y in
    let l = emit_vn b (Basic_op.B_intrinsic "flog") [ vx ] "log" in
    let m = emit_vn b (Basic_op.B_fmul prec) [ l; vy ] "y*log x" in
    emit_vn b (Basic_op.B_intrinsic "fexp") [ m ] "exp"

and tr_call b whole f args =
  match Intrinsics.find f with
  | Some info -> (
    let vargs = List.map (tr_expr b) args in
    match info.cost with
    | Intrinsics.Arith atomic -> emit_vn b (Basic_op.B_intrinsic atomic) vargs (expr_key b whole)
    | Intrinsics.Minmax ->
      (* n-ary min/max: n-1 compare+select chains *)
      (match vargs with
       | [] -> free_value
       | first :: rest ->
         List.fold_left
           (fun acc v -> emit_vn b Basic_op.B_fselect [ acc; v ] (f ^ " select"))
           first rest)
    | Intrinsics.Conversion ->
      let basic = if info.result_real then Basic_op.B_cvt_if else Basic_op.B_cvt_fi in
      emit_vn b basic vargs (expr_key b whole)
    | Intrinsics.Free -> (match vargs with v :: _ -> v | [] -> free_value))
  | None ->
    (* external call: arguments are passed by reference, so their values
       need not be computed here, but the call itself costs *)
    let vargs = List.map (tr_expr b) args in
    emit b Basic_op.B_call vargs ("call " ^ f)

(* reduction accumulator: x = x + e / x = x - e / x = e + x *)
let reduction_rhs x (e : Ast.expr) =
  match e with
  | Ast.Binop (Ast.Add, Ast.Var y, rest) when String.equal x y -> Some rest
  | Ast.Binop (Ast.Add, rest, Ast.Var y) when String.equal x y -> Some rest
  | Ast.Binop (Ast.Sub, Ast.Var y, rest) when String.equal x y -> Some rest
  | _ -> None

let tr_assign b (lhs : Ast.lhs) (rhs : Ast.expr) =
  let lhs_float =
    match Typecheck.lookup b.symtab lhs.base with
    | Some s -> Typecheck.is_float_type s.ty
    | None -> Typecheck.is_float_type (Typecheck.expr_type b.symtab (Ast.Var lhs.base))
  in
  let coerce v rhs_e =
    let rhs_float = float_expr b rhs_e in
    if lhs_float && not rhs_float then emit_vn b Basic_op.B_cvt_if [ v ] "coerce"
    else if (not lhs_float) && rhs_float then emit_vn b Basic_op.B_cvt_fi [ v ] "coerce"
    else v
  in
  if lhs.subs = [] then (
    let x = lhs.base in
    let is_reduction =
      b.flags.Flags.sum_reduction && b.loop_vars <> []
      && Option.is_some (reduction_rhs x rhs)
      && not (List.mem_assoc x b.scalar_env)
    in
    if is_reduction then (
      (* the accumulator lives in a register: its initial load and final
         store are one-time costs *)
      let init =
        emit b ~invariant:true (Basic_op.B_load { float = lhs_float }) [] ("load acc " ^ x)
      in
      b.scalar_env <- (x, init) :: b.scalar_env;
      let v = coerce (tr_expr b rhs) rhs in
      b.scalar_env <- (x, v) :: List.remove_assoc x b.scalar_env;
      ignore
        (emit b ~invariant:true (Basic_op.B_store { float = lhs_float }) [ v ]
           ("store acc " ^ x)))
    else (
      let v = coerce (tr_expr b rhs) rhs in
      b.scalar_env <- (x, v) :: List.remove_assoc x b.scalar_env;
      ignore (emit b (Basic_op.B_store { float = lhs_float }) [ v ] ("store " ^ x))))
  else (
    let v = coerce (tr_expr b rhs) rhs in
    let addr = tr_address b lhs.subs in
    let id =
      emit b (Basic_op.B_store { float = lhs_float }) (v :: addr)
        ("store " ^ lhs.base ^ "(...)")
    in
    b.last_store <- (lhs.base, id) :: List.remove_assoc lhs.base b.last_store)

(* ---- DCE ---- *)

let dce (instrs : instr array) =
  let n = Array.length instrs in
  let live = Array.make n false in
  let rec mark i =
    if not live.(i) then (
      live.(i) <- true;
      List.iter mark instrs.(i).deps)
  in
  Array.iteri
    (fun i ins ->
      match ins.basic with
      | Basic_op.B_store _ | B_call | B_branch | B_branch_cond -> mark i
      | _ -> ())
    instrs;
  live

(* ---- expansion to atomic DAGs ---- *)

let build_dags (b : builder) : Dag.t * Dag.t =
  let instrs = Array.sub b.instrs 0 b.count in
  let live = if b.flags.Flags.dce then dce instrs else Array.map (fun _ -> true) instrs in
  (* split into (body, one_time); each basic op expands to a chain of
     atomics. Track, per instr, the dag ("which side") and last atomic
     index, so dependences can be remapped. Cross-side deps are dropped:
     the value is in a register by the time the body runs. *)
  let body = ref [] and one_time = ref [] in
  let body_n = ref 0 and one_n = ref 0 in
  let place = Array.make (Array.length instrs) None in
  Array.iteri
    (fun i ins ->
      if live.(i) then (
        let invariant = ins.invariant in
        let atoms = Atomic_map.map b.machine ins.basic in
        let deps =
          List.filter_map
            (fun d ->
              match place.(d) with
              | Some (inv, last) when inv = invariant -> Some last
              | _ -> None (* cross-side or dead: register-resident *))
            ins.deps
        in
        let target, counter = if invariant then (one_time, one_n) else (body, body_n) in
        let last =
          List.fold_left
            (fun prev atom ->
              let deps = match prev with None -> deps | Some p -> [ p ] in
              target := (atom, deps, ins.label) :: !target;
              let id = !counter in
              counter := id + 1;
              Some id)
            None atoms
        in
        match last with
        | Some l -> place.(i) <- Some (invariant, l)
        | None -> ()))
    instrs;
  let finish lst = Dag.make (Array.of_list (List.rev_map (fun (a, d, l) -> (a, d, l)) !lst)) in
  (finish body, finish one_time)

let make_builder ~machine ~flags ~symtab ~loop_vars ~invariants =
  {
    machine;
    flags;
    symtab;
    loop_vars;
    invariants;
    instrs = [||];
    count = 0;
    vtable = Hashtbl.create 16;
    etype = Hashtbl.create 16;
    ekey = Hashtbl.create 16;
    reg_queue = [];
    scalar_env = [];
    last_store = [];
    n_loads = 0;
    n_stores = 0;
    n_flops = 0;
    n_intops = 0;
  }

let result_of_builder b =
  let body, one_time = build_dags b in
  {
    body;
    one_time;
    loads = b.n_loads;
    stores = b.n_stores;
    flops = b.n_flops;
    int_ops = b.n_intops;
  }

let translate_block ~machine ?(flags = Flags.default) ~symtab ?(loop_vars = [])
    ?(invariants = SSet.empty) stmts =
  let b = make_builder ~machine ~flags ~symtab ~loop_vars ~invariants in
  List.iter
    (fun (s : Ast.stmt) ->
      match s.kind with
      | Ast.Assign (lhs, rhs) -> tr_assign b lhs rhs
      | Ast.Call_stmt (f, args) ->
        let vargs = List.map (tr_expr b) args in
        ignore (emit b Basic_op.B_call vargs ("call " ^ f))
      | Ast.Return -> ()
      | Ast.Do _ | Ast.If _ -> raise (Not_straight_line s.loc))
    stmts;
  result_of_builder b

let translate_condition ~machine ?(flags = Flags.default) ~symtab ?(loop_vars = [])
    ?(invariants = SSet.empty) cond =
  let b = make_builder ~machine ~flags ~symtab ~loop_vars ~invariants in
  let v = tr_expr b cond in
  ignore (emit b Basic_op.B_branch_cond [ v ] "if branch");
  result_of_builder b

let translate_exprs ~machine ?(flags = Flags.default) ~symtab ?(loop_vars = [])
    ?(invariants = SSet.empty) exprs =
  let b = make_builder ~machine ~flags ~symtab ~loop_vars ~invariants in
  (* evaluation only: results are consumed by loop control, so pin them
     live by disabling DCE for this builder *)
  let b = { b with flags = { b.flags with Flags.dce = false } } in
  List.iter (fun e -> ignore (tr_expr b e)) exprs;
  result_of_builder b

let loop_overhead_dag ~machine () =
  let iadd = Machine.atomic machine "iadd" in
  let icmp = Machine.atomic machine "icmp" in
  let bc = Machine.atomic machine "branch_cond" in
  Dag.make
    [| (iadd, [], "index += step"); (icmp, [ 0 ], "index <= bound"); (bc, [ 1 ], "loop back") |]
