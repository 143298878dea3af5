open Pperf_lang
open Pperf_machine
open Pperf_sched
module SSet = Analysis.SSet
module Obs = Pperf_obs.Obs

type result = {
  body : Dag.t;
  one_time : Dag.t;
  loads : int;
  stores : int;
  flops : int;
  int_ops : int;
  array_loads : (string * int) list;
  array_stores : (string * int) list;
}

exception Not_straight_line of Srcloc.t

(* ---- value numbering ----

   One bottom-up pass per statement gives every expression node a class:
   an int hash-consed from its operator and its operands' classes, so two
   nodes share a class exactly when their canonical renderings ([render])
   are equal. A real literal is its value alone, a negative literal is the
   negation of its magnitude, and commutative operands are ordered. The
   value table maps the classes of loads and operations to the
   instruction that computes them; a load before any store to its array
   is keyed by the class of the variable or element itself, which no
   other value shares. *)

(* an expression node with its class and its type ([None] where
   [Typecheck.expr_type] raises); [kids] are the subscripts, arguments or
   operands, in source order *)
type vexpr = { e : Ast.expr; id : int; ty : Ast.dtype option; kids : vexpr array }

type prefix = Bare | Load | Fma | Addr | Not_of

(* an instruction's provenance, rendered only when a DAG is printed *)
type label =
  | Text of string
  | Named of string * string  (** a prefix, then a name: ["load x"], ["call f"] *)
  | Store_element of string  (** ["store a(...)"] *)
  | Select of string  (** ["min select"] *)
  | Pow of int  (** ["pow^k"] *)
  | Expr of prefix * Ast.expr * int  (** a prefix, then the rendering of an expression of that class *)

type key =
  | K_int of int
  | K_real of int64
  | K_name of string  (** a variable, a logical, or a non-finite real by its rendering *)
  | K_index of string * int list
  | K_call of string * int list
  | K_neg of int
  | K_not of int
  | K_binop of Ast.binop * int * int
  | K_element of int * int  (** the load of an element, after a store to its array *)
  | K_op of Basic_op.t * int list * label  (** equal labels: equal renderings *)

let same_label a b =
  match (a, b) with
  | Expr (p, _, x), Expr (q, _, y) -> p = q && x = y
  | Text s, Text t | Select s, Select t | Store_element s, Store_element t -> String.equal s t
  | Named (p, x), Named (q, y) -> String.equal p q && String.equal x y
  | Pow k, Pow l -> k = l
  | _ -> false

(* keys are hashed and compared by hand: the polymorphic primitives are
   the cost of this table on the translator's hot path *)
module Keys = Hashtbl.Make (struct
  type t = key

  let ints = List.equal Int.equal

  let equal a b =
    match (a, b) with
    | K_int x, K_int y | K_neg x, K_neg y | K_not x, K_not y -> x = y
    | K_real x, K_real y -> Int64.equal x y
    | K_name x, K_name y -> String.equal x y
    | K_index (a, xs), K_index (b, ys) | K_call (a, xs), K_call (b, ys) ->
      String.equal a b && ints xs ys
    | K_binop (o, x, x'), K_binop (p, y, y') -> o = p && x = y && x' = y'
    | K_element (x, g), K_element (y, h) -> x = y && g = h
    | K_op (o, xs, l), K_op (p, ys, m) ->
      (match Basic_op.index o with -1 -> o = p | i -> i = Basic_op.index p)
      && ints xs ys && same_label l m
    | _ -> false

  let mix h x = (h * 65599) + x
  let mix_ints = List.fold_left mix

  let hash = function
    | K_int x -> x
    | K_real x -> Hashtbl.hash x
    | K_name x -> Hashtbl.hash x
    | K_index (a, xs) -> mix_ints (Hashtbl.hash a) xs
    | K_call (f, xs) -> mix_ints (mix (Hashtbl.hash f) 1) xs
    | K_neg x -> mix x 2
    | K_not x -> mix x 3
    | K_binop (o, x, y) -> mix (mix (Hashtbl.hash o) x) y
    | K_element (x, g) -> mix (mix x 5) g
    | K_op (o, xs, Expr (_, _, x)) -> mix (mix_ints (Basic_op.index o) xs) x
    | K_op (o, xs, _) -> mix_ints (Basic_op.index o) xs
end)

let binop_name : Ast.binop -> string = function
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

let commutative : Ast.binop -> bool = function
  | Ast.Add | Ast.Mul | Ast.And | Ast.Or | Ast.Eq | Ast.Ne -> true
  | _ -> false

(* the canonical rendering of an expression *)
let rec render (e : Ast.expr) =
  match e with
  | Ast.Int i -> string_of_int i
  | Ast.Real (f, _) -> Printf.sprintf "%h" f
  | Ast.Logical l -> string_of_bool l
  | Ast.Var x -> x
  | Ast.Index (a, subs) -> a ^ "[" ^ String.concat "," (List.map render subs) ^ "]"
  | Ast.Call (f, args) -> f ^ "(" ^ String.concat "," (List.map render args) ^ ")"
  | Ast.Unop (op, a) -> (match op with Ast.Neg -> "-" | Ast.Not -> "!") ^ render a
  | Ast.Binop (op, x, y) ->
    let kx = render x and ky = render y in
    let kx, ky = if commutative op && String.compare kx ky > 0 then (ky, kx) else (kx, ky) in
    String.concat "" [ "("; kx; " "; binop_name op; " "; ky; ")" ]

let render_label = function
  | Text s -> s
  | Named (p, x) -> p ^ x
  | Store_element a -> "store " ^ a ^ "(...)"
  | Select f -> f ^ " select"
  | Pow k -> Printf.sprintf "pow^%d" k
  | Expr (p, e, _) ->
    (match p with Bare -> "" | Load -> "load " | Fma -> "fma " | Addr -> "addr " | Not_of -> ".not. ")
    ^ render e

(* ---- builder state ---- *)

type instr = {
  basic : Basic_op.t;
  deps : int list;  (** indices of producing instrs *)
  label : label;
  invariant : bool;
  array : string;  (** the array an element load or store touches, else [""] *)
}

type builder = {
  machine : Machine.t;
  flags : Flags.t;
  symtab : Typecheck.symtab;
  loop_vars : string list;
  invariants : SSet.t;
  mutable instrs : instr array;  (** growable; first [count] entries valid *)
  mutable count : int;
  classes : int Keys.t;
  mutable values : int array;  (** class -> the instr computing it, or -1 *)
  mutable last_use : int array;  (** load class -> when the register window last touched it *)
  mutable resident : int list;  (** the load classes the register window holds *)
  mutable resident_n : int;
  mutable clock : int;
  mutable typed_kids : vexpr array;  (** the children [typer] reads *)
  typer : Ast.expr -> Ast.dtype;  (** [child_type] of this builder *)
  mutable free_subs : int array;  (** class -> 1 free subscript, 2 not, 0 not yet known *)
  mutable scalar_env : (string * int) list;  (** block-local scalar values *)
  mutable last_store : (string * int) list;  (** array -> last store instr *)
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_flops : int;
  mutable n_intops : int;
}

let rec mem_name x = function [] -> false | y :: rest -> String.equal x y || mem_name x rest

(* block-local bindings of names to instrs *)
let unbound = min_int

let rec bound x = function
  | [] -> unbound
  | (y, v) :: rest -> if String.equal x y then v else bound x rest

let rec unbind x = function
  | [] -> []
  | ((y, _) as b) :: rest -> if String.equal x y then rest else b :: unbind x rest

let free_value = -1

(* a value that lives in a register but varies with the enclosing loop
   (an induction variable): free to read, NOT loop-invariant *)
let loop_value = -2

let no_value = -1

let emit b ?(invariant = false) ?(array = "") basic deps label =
  let id = b.count in
  b.count <- id + 1;
  let deps = if List.for_all (fun d -> d >= 0) deps then deps else List.filter (fun d -> d >= 0) deps in
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
  let ins = { basic; deps; label; invariant; array } in
  if id >= Array.length b.instrs then (
    let grown = Array.make (Stdlib.max 16 (2 * Array.length b.instrs)) ins in
    Array.blit b.instrs 0 grown 0 id;
    b.instrs <- grown);
  b.instrs.(id) <- ins;
  id

let is_invariant_value b id =
  if id = free_value then true
  else if id = loop_value then false
  else b.instrs.(id).invariant

let intern b k =
  match Keys.find_opt b.classes k with
  | Some c -> c
  | None ->
    let c = Keys.length b.classes in
    Keys.add b.classes k c;
    c

let rec int_class b i =
  if i < 0 && i <> min_int then intern b (K_neg (int_class b (-i))) else intern b (K_int i)

let rec real_class b f =
  if Float.sign_bit f then intern b (K_neg (real_class b (Float.neg f)))
  else if Float.is_finite f then intern b (K_real (Int64.bits_of_float f))
  else intern b (K_name (Printf.sprintf "%h" f))

(* shared constants: typing a node allocates no option *)
let some_type : Ast.dtype -> Ast.dtype option = function
  | Ast.Tint -> Some Ast.Tint
  | Ast.Treal -> Some Ast.Treal
  | Ast.Tdouble -> Some Ast.Tdouble
  | Ast.Tlogical -> Some Ast.Tlogical

let rec kid_of kids (c : Ast.expr) i = if kids.(i).e == c then kids.(i) else kid_of kids c (i + 1)

(* the type of a child of the node being typed, from its annotation *)
let child_type b c = match (kid_of b.typed_kids c 0).ty with Some t -> t | None -> raise Exit

(* the type of [e] from its annotated children's *)
let node_type b e kids =
  b.typed_kids <- kids;
  match Typecheck.node_type b.symtab b.typer e with
  | t -> some_type t
  | exception _ -> None

let rec annotate b (e : Ast.expr) : vexpr =
  let kids =
    match e with
    | Ast.Int _ | Ast.Real _ | Ast.Logical _ | Ast.Var _ -> [||]
    | Ast.Index (_, es) | Ast.Call (_, es) -> Array.of_list (List.map (annotate b) es)
    | Ast.Unop (_, a) -> [| annotate b a |]
    | Ast.Binop (_, x, y) ->
      let nx = annotate b x in
      [| nx; annotate b y |]
  in
  let id =
    match e with
    | Ast.Int i -> int_class b i
    | Ast.Real (f, _) -> real_class b f
    | Ast.Logical l -> intern b (K_name (string_of_bool l))
    | Ast.Var x -> intern b (K_name x)
    | Ast.Index (a, _) -> intern b (K_index (a, Array.fold_right (fun k acc -> k.id :: acc) kids []))
    | Ast.Call (f, _) -> intern b (K_call (f, Array.fold_right (fun k acc -> k.id :: acc) kids []))
    | Ast.Unop (Ast.Neg, _) -> intern b (K_neg kids.(0).id)
    | Ast.Unop (Ast.Not, _) -> intern b (K_not kids.(0).id)
    | Ast.Binop (op, _, _) ->
      let x = kids.(0).id and y = kids.(1).id in
      intern b (if commutative op && y < x then K_binop (op, y, x) else K_binop (op, x, y))
  in
  { e; id; ty = node_type b e kids; kids }

(* the value class of [k], when value numbering is on *)
let vn_key b k = if b.flags.Flags.cse then intern b k else -1

let value b key = if key < Array.length b.values then b.values.(key) else no_value

(* value-numbering lookup gated by the CSE flag and, for loads, the
   register-pressure LRU window: an evicted load has no value *)
let vn_lookup b ~is_load key =
  if not b.flags.Flags.cse then None
  else
    match value b key with
    | id when id = no_value -> None
    | id ->
      if is_load && b.flags.Flags.register_pressure then (
        b.clock <- b.clock + 1;
        b.last_use.(key) <- b.clock);
      Some id

let grow arr n fill =
  if n < Array.length arr then arr
  else (
    let grown = Array.make (Stdlib.max n (2 * Array.length arr)) fill in
    Array.blit arr 0 grown 0 (Array.length arr);
    grown)

let vn_record b ~is_load key id =
  if b.flags.Flags.cse then (
    b.values <- grow b.values (Keys.length b.classes) no_value;
    b.values.(key) <- id;
    if is_load && b.flags.Flags.register_pressure then (
      b.last_use <- grow b.last_use (Keys.length b.classes) 0;
      b.clock <- b.clock + 1;
      b.last_use.(key) <- b.clock;
      b.resident <- key :: b.resident;
      b.resident_n <- b.resident_n + 1;
      let limit = max 4 b.machine.Machine.register_load_limit in
      if b.resident_n > limit then (
        (* evict the least recently used load: it must be reloaded *)
        let oldest =
          List.fold_left
            (fun o k -> if b.last_use.(k) < b.last_use.(o) then k else o)
            (List.hd b.resident) b.resident
        in
        b.resident <- List.filter (fun k -> k <> oldest) b.resident;
        b.resident_n <- b.resident_n - 1;
        b.values.(oldest) <- no_value)))

(* a label rendering [n]; it keeps the source expression, not the node *)
let expr p n = Expr (p, n.e, n.id)

let is_float n = match n.ty with Some t -> Typecheck.is_float_type t | None -> true
let prec_of n = match n.ty with Some Ast.Tdouble -> Basic_op.Double | _ -> Basic_op.Single

(* is this integer expression free inside the block? loop indices and small
   constants live in registers; affine combinations of them are handled by
   update-form addressing when the flag is on *)
let subscript_is_free_uncached b (e : Ast.expr) =
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
          (fun v -> SSet.mem v b.invariants || not (mem_name v b.loop_vars))
          (Pperf_symbolic.Poly.vars rest)
      | None -> false))

(* a function of the subscript's class: equal renderings are the same
   polynomial *)
let subscript_is_free b (n : vexpr) =
  b.free_subs <- grow b.free_subs (n.id + 1) 0;
  match b.free_subs.(n.id) with
  | 0 ->
    let free = subscript_is_free_uncached b n.e in
    b.free_subs.(n.id) <- (if free then 1 else 2);
    free
  | known -> known = 1

let small_int_const = function
  | Ast.Int i when i >= -128 && i <= 127 -> true
  | _ -> false

let is_pow2_const = function
  | Ast.Int i when i > 0 && i land (i - 1) = 0 -> true
  | _ -> false

(* ---- expression translation: returns the producing instr id ---- *)

let rec tr_expr b (n : vexpr) : int =
  match n.e with
  | Ast.Int _ | Ast.Real _ | Ast.Logical _ -> free_value
  | Ast.Var x -> (
    match bound x b.scalar_env with
    | v when v <> unbound -> v (* block-local value, still in a register *)
    | _ ->
      if mem_name x b.loop_vars then loop_value (* induction variable in a register *)
      else (
        let key = n.id in
        match vn_lookup b ~is_load:true key with
        | Some id -> id
        | None ->
          let inv = b.flags.Flags.licm && SSet.mem x b.invariants && b.loop_vars <> [] in
          let id =
            emit b ~invariant:inv (Basic_op.B_load { float = is_float n }) [] (Named ("load ", x))
          in
          vn_record b ~is_load:true key id;
          id))
  | Ast.Index (a, subs) ->
    let store_gen = match bound a b.last_store with id when id = unbound -> free_value | id -> id in
    let key = if store_gen = free_value then n.id else vn_key b (K_element (n.id, store_gen)) in
    (match vn_lookup b ~is_load:true key with
     | Some id -> id
     | None ->
       let addr_deps = tr_address b n.kids in
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
       let id =
         emit b ~invariant:inv ~array:a (Basic_op.B_load { float = is_float n }) deps (expr Load n)
       in
       vn_record b ~is_load:true key id;
       id)
  | Ast.Unop (Ast.Neg, _) ->
    let a = n.kids.(0) in
    let va = tr_expr b a in
    let basic = if is_float a then Basic_op.B_fneg else Basic_op.B_ineg in
    emit_vn b basic [ va ] (expr Bare n)
  | Ast.Unop (Ast.Not, _) ->
    let a = n.kids.(0) in
    let va = tr_expr b a in
    emit_vn b Basic_op.B_ilogic [ va ] (expr Not_of a)
  | Ast.Binop (op, _, _) -> tr_binop b n op
  | Ast.Call (f, _) -> tr_call b n f

and emit_vn b basic deps label =
  (* the label (the source expression's class) keeps constant-fed
     operations from colliding in the value table *)
  let key = vn_key b (K_op (basic, deps, label)) in
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
  let deps = ref [] in
  Array.iter
    (fun sub ->
      if not (subscript_is_free b sub) then (
        let v = tr_expr b sub in
        (* index scaling: one integer op to fold into the address *)
        deps := emit_vn b Basic_op.B_iadd [ v ] (expr Addr sub) :: !deps))
    subs;
  List.rev !deps

and tr_binop b whole op =
  let x = whole.kids.(0) and y = whole.kids.(1) in
  let float = is_float whole in
  let prec = prec_of whole in
  let both basic =
    let vx = tr_expr b x in
    let vy = tr_expr b y in
    emit_vn b basic [ vx; vy ] (expr Bare whole)
  in
  match op with
  | Ast.Add | Ast.Sub when float && b.flags.Flags.fma_fusion ->
    (* FMA fusion: a*b + c, c + a*b, a*b - c *)
    let fuse (mul : vexpr) other =
      let vx = tr_expr b mul.kids.(0) in
      let vy = tr_expr b mul.kids.(1) in
      let vo = tr_expr b other in
      emit_vn b (Basic_op.B_fma prec) [ vx; vy; vo ] (expr Fma whole)
    in
    (match (op, x.e, y.e) with
     | _, Ast.Binop (Ast.Mul, _, _), _ when is_float x -> fuse x y
     | Ast.Add, _, Ast.Binop (Ast.Mul, _, _) when is_float y -> fuse y x
     | _ -> both (if op = Ast.Add then Basic_op.B_fadd prec else Basic_op.B_fsub prec))
  | Ast.Add | Ast.Sub ->
    both
      (if float then if op = Ast.Add then Basic_op.B_fadd prec else Basic_op.B_fsub prec
       else if op = Ast.Add then Basic_op.B_iadd
       else Basic_op.B_isub)
  | Ast.Mul ->
    if float then both (Basic_op.B_fmul prec)
    else if is_pow2_const x.e || is_pow2_const y.e then both Basic_op.B_ishift
    else both (Basic_op.B_imul { small = small_int_const x.e || small_int_const y.e })
  | Ast.Div ->
    if float then both (Basic_op.B_fdiv prec)
    else if is_pow2_const y.e then both Basic_op.B_ishift
    else both Basic_op.B_idiv
  | Ast.Pow -> tr_pow b whole x y
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    both (if is_float x || is_float y then Basic_op.B_fcmp else Basic_op.B_icmp)
  | Ast.And | Ast.Or -> both Basic_op.B_ilogic

and tr_pow b whole x y =
  let prec = prec_of whole in
  match y.e with
  | Ast.Int k when k >= 1 && k <= 16 ->
    (* repeated squaring chain *)
    let vx = tr_expr b x in
    let mul_basic =
      if is_float whole then Basic_op.B_fmul prec else Basic_op.B_imul { small = false }
    in
    let rec build k =
      if k = 1 then vx
      else if k land 1 = 0 then (
        let h = build (k / 2) in
        emit_vn b mul_basic [ h; h ] (Pow k))
      else (
        let h = build (k - 1) in
        emit_vn b mul_basic [ h; vx ] (Pow k))
    in
    build k
  | _ ->
    (* x ** y = exp(y * log x): log, multiply, exp *)
    let vx = tr_expr b x in
    let vy = tr_expr b y in
    let l = emit_vn b (Basic_op.B_intrinsic "flog") [ vx ] (Text "log") in
    let m = emit_vn b (Basic_op.B_fmul prec) [ l; vy ] (Text "y*log x") in
    emit_vn b (Basic_op.B_intrinsic "fexp") [ m ] (Text "exp")

and tr_call b whole f =
  let vargs = List.map (tr_expr b) (Array.to_list whole.kids) in
  match Intrinsics.find f with
  | Some info -> (
    match info.cost with
    | Intrinsics.Arith atomic -> emit_vn b (Basic_op.B_intrinsic atomic) vargs (expr Bare whole)
    | Intrinsics.Minmax ->
      (* n-ary min/max: n-1 compare+select chains *)
      (match vargs with
       | [] -> free_value
       | first :: rest ->
         List.fold_left (fun acc v -> emit_vn b Basic_op.B_fselect [ acc; v ] (Select f)) first rest)
    | Intrinsics.Conversion ->
      let basic = if info.result_real then Basic_op.B_cvt_if else Basic_op.B_cvt_fi in
      emit_vn b basic vargs (expr Bare whole)
    | Intrinsics.Free -> (match vargs with v :: _ -> v | [] -> free_value))
  | None ->
    (* external call: arguments are passed by reference, so their values
       need not be computed here, but the call itself costs *)
    emit b Basic_op.B_call vargs (Named ("call ", f))

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
  let rhs_n = annotate b rhs in
  let coerce v =
    let rhs_float = is_float rhs_n in
    if lhs_float && not rhs_float then emit_vn b Basic_op.B_cvt_if [ v ] (Text "coerce")
    else if (not lhs_float) && rhs_float then emit_vn b Basic_op.B_cvt_fi [ v ] (Text "coerce")
    else v
  in
  if lhs.subs = [] then (
    let x = lhs.base in
    let is_reduction =
      b.flags.Flags.sum_reduction && b.loop_vars <> []
      && Option.is_some (reduction_rhs x rhs)
      && bound x b.scalar_env = unbound
    in
    if is_reduction then (
      (* the accumulator lives in a register: its initial load and final
         store are one-time costs *)
      let init =
        emit b ~invariant:true (Basic_op.B_load { float = lhs_float }) [] (Named ("load acc ", x))
      in
      b.scalar_env <- (x, init) :: b.scalar_env;
      let v = coerce (tr_expr b rhs_n) in
      b.scalar_env <- (x, v) :: unbind x b.scalar_env;
      ignore
        (emit b ~invariant:true (Basic_op.B_store { float = lhs_float }) [ v ]
           (Named ("store acc ", x))))
    else (
      let v = coerce (tr_expr b rhs_n) in
      b.scalar_env <- (x, v) :: unbind x b.scalar_env;
      ignore (emit b (Basic_op.B_store { float = lhs_float }) [ v ] (Named ("store ", x)))))
  else (
    let subs = Array.of_list (List.map (annotate b) lhs.subs) in
    let v = coerce (tr_expr b rhs_n) in
    let addr = tr_address b subs in
    let id =
      emit b ~array:lhs.base (Basic_op.B_store { float = lhs_float }) (v :: addr)
        (Store_element lhs.base)
    in
    b.last_store <- (lhs.base, id) :: unbind lhs.base b.last_store)

(* ---- DCE ---- *)

let dce instrs n =
  let live = Array.make n false in
  let rec mark i =
    if not live.(i) then (
      live.(i) <- true;
      List.iter mark instrs.(i).deps)
  in
  for i = 0 to n - 1 do
    match instrs.(i).basic with
    | Basic_op.B_store _ | B_call | B_branch | B_branch_cond -> mark i
    | _ -> ()
  done;
  live

(* ---- expansion to atomic DAGs ---- *)

(* one side of the expansion, filled in order into an array of its final
   length *)
type side = { mutable nodes : Dag.node array; mutable len : int; size : int }

let push side op deps label =
  let node = { Dag.index = side.len; op; deps; label } in
  if side.len = 0 then side.nodes <- Array.make side.size node;
  side.nodes.(side.len) <- node;
  side.len <- side.len + 1;
  node.index

let lazy_label = function Text s -> Lazy.from_val s | l -> lazy (render_label l)

(* [deps] as nodes of the side [invariant] names: a producer on the other
   side (or dead) is register-resident by the time its consumer runs *)
let rec remap place instrs invariant = function
  | [] -> []
  | d :: rest ->
    if place.(d) >= 0 && instrs.(d).invariant = invariant then
      place.(d) :: remap place instrs invariant rest
    else remap place instrs invariant rest

(* a chain's atoms pushed onto [side], the first consuming [deps] and each
   later one its predecessor; the last atom's node *)
let rec push_chain side deps label = function
  | [] -> -1
  | [ atom ] -> push side atom deps label
  | atom :: rest -> push_chain side [ push side atom deps label ] label rest

let build_dags (b : builder) =
  let n = b.count and instrs = b.instrs in
  let live = if b.flags.Flags.dce then dce instrs n else Array.make n true in
  (* the machine's atomic chains, looked up once per builder *)
  let chains = Atomic_map.table b.machine in
  (* split into (body, one_time); each basic op expands to a chain of
     atomics. [place.(i)] is the last atom of instr [i]'s chain, on the side
     its [invariant] names, so dependences can be remapped. *)
  let body_n = ref 0 and once_n = ref 0 in
  for i = 0 to n - 1 do
    if live.(i) then (
      let atoms = List.length (Atomic_map.chain chains instrs.(i).basic) in
      if instrs.(i).invariant then once_n := !once_n + atoms else body_n := !body_n + atoms)
  done;
  let body = { nodes = [||]; len = 0; size = !body_n } in
  let one_time = { nodes = [||]; len = 0; size = !once_n } in
  let place = Array.make n (-1) in
  let loads = ref [] and stores = ref [] in
  for i = 0 to n - 1 do
    if live.(i) then (
      let ins = instrs.(i) in
      let k =
        push_chain
          (if ins.invariant then one_time else body)
          (remap place instrs ins.invariant ins.deps)
          (lazy_label ins.label)
          (Atomic_map.chain chains ins.basic)
      in
      place.(i) <- k;
      (* an element load or store lowers to one atom *)
      if ins.array <> "" && not ins.invariant then
        if Basic_op.is_store ins.basic then stores := (ins.array, k) :: !stores
        else loads := (ins.array, k) :: !loads)
  done;
  (Dag.of_nodes body.nodes, Dag.of_nodes one_time.nodes, List.rev !loads, List.rev !stores)

let make_builder ~machine ~flags ~symtab ~loop_vars ~invariants =
  let rec b =
  {
    machine;
    flags;
    symtab;
    loop_vars;
    invariants;
    instrs = [||];
    count = 0;
    classes = Keys.create 32;
    values = [||];
    last_use = [||];
    typed_kids = [||];
    typer = (fun c -> child_type b c);
    free_subs = [||];
    resident = [];
    resident_n = 0;
    clock = 0;
    scalar_env = [];
    last_store = [];
    n_loads = 0;
    n_stores = 0;
    n_flops = 0;
    n_intops = 0;
  }
  in
  b

let result_of_builder b =
  let body, one_time, array_loads, array_stores = build_dags b in
  {
    body;
    one_time;
    loads = b.n_loads;
    stores = b.n_stores;
    flops = b.n_flops;
    int_ops = b.n_intops;
    array_loads;
    array_stores;
  }

let sp_translate = Obs.span "translate"

let translate_block ~machine ?(flags = Flags.default) ~symtab ?(loop_vars = [])
    ?(invariants = SSet.empty) stmts =
  Obs.time sp_translate @@ fun () ->
  let b = make_builder ~machine ~flags ~symtab ~loop_vars ~invariants in
  List.iter
    (fun (s : Ast.stmt) ->
      match s.kind with
      | Ast.Assign (lhs, rhs) -> tr_assign b lhs rhs
      | Ast.Call_stmt (f, args) ->
        let vargs = List.map (fun a -> tr_expr b (annotate b a)) args in
        ignore (emit b Basic_op.B_call vargs (Named ("call ", f)))
      | Ast.Return -> ()
      | Ast.Do _ | Ast.If _ -> raise (Not_straight_line s.loc))
    stmts;
  result_of_builder b

let translate_condition ~machine ?(flags = Flags.default) ~symtab ?(loop_vars = [])
    ?(invariants = SSet.empty) cond =
  Obs.time sp_translate @@ fun () ->
  let b = make_builder ~machine ~flags ~symtab ~loop_vars ~invariants in
  let v = tr_expr b (annotate b cond) in
  ignore (emit b Basic_op.B_branch_cond [ v ] (Text "if branch"));
  result_of_builder b

let translate_exprs ~machine ?(flags = Flags.default) ~symtab ?(loop_vars = [])
    ?(invariants = SSet.empty) exprs =
  Obs.time sp_translate @@ fun () ->
  (* evaluation only: results are consumed by loop control, so pin them
     live by disabling DCE for this builder *)
  let b =
    make_builder ~machine ~flags:{ flags with Flags.dce = false } ~symtab ~loop_vars ~invariants
  in
  List.iter (fun e -> ignore (tr_expr b (annotate b e))) exprs;
  result_of_builder b

let loop_overhead_dag ~machine () =
  let iadd = Machine.atomic machine "iadd" in
  let icmp = Machine.atomic machine "icmp" in
  let bc = Machine.atomic machine "branch_cond" in
  Dag.make
    [|
      (iadd, [], Lazy.from_val "index += step");
      (icmp, [ 0 ], Lazy.from_val "index <= bound");
      (bc, [ 1 ], Lazy.from_val "loop back");
    |]
