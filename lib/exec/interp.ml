open Pperf_lang
open Pperf_machine
module Aggregate = Pperf_core.Aggregate

type value = VInt of int | VReal of float | VLog of bool

exception Runtime_error of string * Srcloc.t

exception Return_exn

let err loc fmt = Printf.ksprintf (fun m -> raise (Runtime_error (m, loc))) fmt

(* ---- profile ---- *)

module Profile = struct
  type t = {
    branches : (Srcloc.t, int array) Hashtbl.t;  (** per-branch taken counts, else last *)
    loops : (Srcloc.t, int * int) Hashtbl.t;  (** entries, iterations *)
  }

  let empty () = { branches = Hashtbl.create 16; loops = Hashtbl.create 16 }

  let record_branch t loc ~arity ~taken =
    let counts =
      match Hashtbl.find_opt t.branches loc with
      | Some c -> c
      | None ->
        let c = Array.make arity 0 in
        Hashtbl.add t.branches loc c;
        c
    in
    counts.(taken) <- counts.(taken) + 1

  let record_loop t loc ~iterations =
    let entries, total =
      match Hashtbl.find_opt t.loops loc with Some x -> x | None -> (0, 0)
    in
    Hashtbl.replace t.loops loc (entries + 1, total + iterations)

  let branch_prob t loc k =
    match Hashtbl.find_opt t.branches loc with
    | None -> None
    | Some counts ->
      let total = Array.fold_left ( + ) 0 counts in
      if total = 0 || k < 0 || k >= Array.length counts then None
      else Some (Pperf_symbolic.Poly.of_rat (Pperf_num.Rat.of_ints counts.(k) total))

  let branch_counts t = Hashtbl.fold (fun loc c acc -> (loc, c) :: acc) t.branches []
  let trip_counts t = Hashtbl.fold (fun loc (e, n) acc -> (loc, e, n) :: acc) t.loops []

  let pp fmt t =
    List.iter
      (fun (loc, counts) ->
        Format.fprintf fmt "if at %s: [%s]@." (Srcloc.to_string loc)
          (String.concat "; " (Array.to_list (Array.map string_of_int counts))))
      (branch_counts t);
    List.iter
      (fun (loc, entries, total) ->
        Format.fprintf fmt "do at %s: %d entries, %d iterations@." (Srcloc.to_string loc)
          entries total)
      (trip_counts t)
end

(* ---- storage ---- *)

type arr = {
  ty : Ast.dtype;
  lows : int array;
  extents : int array;
  fdata : float array;  (** used for real/double *)
  idata : int array;  (** used for int/logical (0/1) *)
}

type frame = {
  scalars : (string, value) Hashtbl.t;
  arrays : (string, arr) Hashtbl.t;
}

type state = {
  machine : Machine.t;
  options : Aggregate.options;
  program : Typecheck.checked list;
  profile : Profile.t;
  mutable cycles : float;
  mutable steps : int;
  block_costs : (Srcloc.t, int * int) Hashtbl.t;
      (** first-stmt loc -> (per-execution cycles, one-time cycles); do loc
          -> (bound cycles, loop-control cycles). Where a statement sits fixes
          its loop context, so its location is key enough *)
  if_costs : (Srcloc.t * int, int) Hashtbl.t;
      (** (if loc, -1) -> its conditions' cycles; (if loc, k) -> the
          taken-branch penalty of alternative k (else last) *)
  charged_one_time : (Srcloc.t, int) Hashtbl.t;
      (** block -> activation id for which one-time cost was last charged *)
  scopes : (Srcloc.t, Aggregate.block_ctx) Hashtbl.t;  (** do loc -> its body's context *)
  mutable next_activation : int;
      (** loop-entry counter; each [do] entry gets a fresh id, which is the
          key under which its body's hoisted (one-time) costs are charged *)
  mutable elements : int;  (** array elements allocated so far, all frames *)
  mutable depth : int;  (** calls in progress *)
}

let max_steps = 50_000_000

(* array elements one run may allocate over all its frames: 400 MB of reals *)
let max_elements = 50_000_000

(* calls one run may nest, recursion included *)
let max_depth = 1_000

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = f () in
    Hashtbl.replace tbl key c;
    c

(* a routine's top level *)
let top_scope st (checked : Typecheck.checked) =
  Aggregate.block_ctx ~machine:st.machine ~options:st.options ~symtab:checked.symbols

let budget st loc =
  st.steps <- st.steps + 1;
  if st.steps > max_steps then err loc "interpreter budget exceeded (%d steps)" max_steps

(* ---- value helpers ---- *)

let as_int loc = function
  | VInt i -> i
  | VReal f -> int_of_float f
  | VLog _ -> err loc "logical used as number"

let as_float loc = function
  | VReal f -> f
  | VInt i -> float_of_int i
  | VLog _ -> err loc "logical used as number"

let as_bool loc = function
  | VLog b -> b
  | _ -> err loc "number used as logical"

(* ---- expression evaluation ---- *)

let rec eval st frame loc (e : Ast.expr) : value =
  match e with
  | Ast.Int i -> VInt i
  | Ast.Real (f, _) -> VReal f
  | Ast.Logical b -> VLog b
  | Ast.Var x -> (
    match Hashtbl.find_opt frame.scalars x with
    | Some v -> v
    | None -> err loc "unbound variable %s" x)
  | Ast.Index (a, subs) -> (
    let arr = lookup_array st frame loc a in
    let off = element_offset st frame loc arr a subs in
    match arr.ty with
    | Ast.Treal | Ast.Tdouble -> VReal arr.fdata.(off)
    | Ast.Tint -> VInt arr.idata.(off)
    | Ast.Tlogical -> VLog (arr.idata.(off) <> 0))
  | Ast.Unop (Ast.Neg, a) -> (
    match eval st frame loc a with
    | VInt i -> VInt (-i)
    | VReal f -> VReal (-.f)
    | VLog _ -> err loc "negation of logical")
  | Ast.Unop (Ast.Not, a) -> VLog (not (as_bool loc (eval st frame loc a)))
  | Ast.Binop (op, a, b) -> eval_binop st frame loc op a b
  | Ast.Call (f, args) -> eval_call st frame loc f args

and eval_binop st frame loc op a b =
  let va = eval st frame loc a and vb = eval st frame loc b in
  let num_op fi ff =
    match (va, vb) with
    | VInt x, VInt y -> VInt (fi x y)
    | _ -> VReal (ff (as_float loc va) (as_float loc vb))
  in
  let cmp f = VLog (f (compare (as_float loc va) (as_float loc vb)) 0) in
  match op with
  | Ast.Add -> num_op ( + ) ( +. )
  | Ast.Sub -> num_op ( - ) ( -. )
  | Ast.Mul -> num_op ( * ) ( *. )
  | Ast.Div -> (
    match (va, vb) with
    | VInt _, VInt 0 -> err loc "integer division by zero"
    | VInt x, VInt y -> VInt (x / y)
    | _ ->
      let d = as_float loc vb in
      if d = 0.0 then err loc "division by zero";
      VReal (as_float loc va /. d))
  | Ast.Pow -> (
    match (va, vb) with
    | VInt x, VInt y when y >= 0 ->
      let rec go acc b n = if n = 0 then acc else if n land 1 = 1 then go (acc * b) (b * b) (n asr 1) else go acc (b * b) (n asr 1) in
      VInt (go 1 x y)
    | _ -> VReal (Float.pow (as_float loc va) (as_float loc vb)))
  | Ast.Eq -> cmp ( = )
  | Ast.Ne -> cmp ( <> )
  | Ast.Lt -> cmp ( < )
  | Ast.Le -> cmp ( <= )
  | Ast.Gt -> cmp ( > )
  | Ast.Ge -> cmp ( >= )
  | Ast.And -> VLog (as_bool loc va && as_bool loc vb)
  | Ast.Or -> VLog (as_bool loc va || as_bool loc vb)

and eval_call st frame loc f args =
  match (f, List.map (eval st frame loc) args) with
  | "sqrt", [ v ] -> VReal (sqrt (as_float loc v))
  | "sin", [ v ] -> VReal (sin (as_float loc v))
  | "cos", [ v ] -> VReal (cos (as_float loc v))
  | "exp", [ v ] -> VReal (exp (as_float loc v))
  | "log", [ v ] -> VReal (log (as_float loc v))
  | "tanh", [ v ] -> VReal (tanh (as_float loc v))
  | "abs", [ v ] -> (
    match v with VInt i -> VInt (abs i) | VReal f -> VReal (Float.abs f) | _ -> err loc "abs")
  | "iabs", [ v ] -> VInt (abs (as_int loc v))
  | ("min" | "min0"), (v :: _ as vs) ->
    let floats = List.map (as_float loc) vs in
    let m = List.fold_left Float.min infinity floats in
    (match v with VInt _ -> VInt (int_of_float m) | _ -> VReal m)
  | ("max" | "max0"), (v :: _ as vs) ->
    let floats = List.map (as_float loc) vs in
    let m = List.fold_left Float.max neg_infinity floats in
    (match v with VInt _ -> VInt (int_of_float m) | _ -> VReal m)
  | "mod", [ a; b ] -> (
    match (a, b) with
    | VInt x, VInt y -> if y = 0 then err loc "mod by zero" else VInt (x mod y)
    | _ -> VReal (Float.rem (as_float loc a) (as_float loc b)))
  | ("float" | "dble"), [ v ] -> VReal (as_float loc v)
  | "int", [ v ] -> VInt (int_of_float (as_float loc v))
  | "nint", [ v ] -> VInt (int_of_float (Float.round (as_float loc v)))
  | "sign", [ a; b ] ->
    let m = Float.abs (as_float loc a) in
    VReal (if as_float loc b >= 0.0 then m else -.m)
  | _, vargs -> call_routine st loc f vargs

and call_routine st loc f vargs =
  match
    List.find_opt
      (fun (c : Typecheck.checked) -> String.equal c.routine.rname f)
      st.program
  with
  | None -> err loc "call to unknown routine %s" f
  | Some callee -> (
    (* by-value for scalars; arrays cannot be passed by expression here *)
    let bindings =
      try List.combine callee.routine.params vargs
      with Invalid_argument _ -> err loc "arity mismatch calling %s" f
    in
    let named = List.map (fun (p, v) -> (p, v)) bindings in
    if st.depth >= max_depth then err loc "call to %s nested deeper than %d calls" f max_depth;
    st.depth <- st.depth + 1;
    let res = exec_routine st callee named in
    st.depth <- st.depth - 1;
    match res with Some v -> v | None -> VInt 0)

(* ---- arrays ---- *)

and lookup_array st frame loc a =
  ignore st;
  match Hashtbl.find_opt frame.arrays a with
  | Some arr -> arr
  | None -> err loc "unbound array %s" a

and element_offset st frame loc arr name subs =
  let idxs = List.map (fun s -> as_int loc (eval st frame loc s)) subs in
  if List.length idxs <> Array.length arr.extents then
    err loc "array %s: rank mismatch" name;
  let off = ref 0 and scale = ref 1 in
  List.iteri
    (fun d i ->
      let low = arr.lows.(d) and ext = arr.extents.(d) in
      if i < low || i >= low + ext then
        err loc "array %s: subscript %d out of bounds [%d, %d] in dimension %d" name i low
          (low + ext - 1) (d + 1);
      off := !off + ((i - low) * !scale);
      scale := !scale * ext)
    idxs;
  !off

(* ---- cost accounting: the aggregation's block costs, memoized ---- *)

(* a straight-line run in a loop body costs its steady state per iteration,
   the first run absorbing the loop control, and its hoisted part once per
   activation; elsewhere (routine top level, if branches) its plain drop *)
and charge_run st scope ~in_body ~control ~activation (run : Ast.stmt list) =
  match run with
  | [] -> ()
  | first :: _ ->
    let loc = first.Ast.loc in
    let per_exec, one_time =
      memo st.block_costs loc (fun () ->
          let res = Aggregate.translate_run scope run in
          if in_body then
            ( Aggregate.iteration_cost scope ~loc ~control res,
              Aggregate.hoisted_cost scope ~loc res )
          else (Aggregate.run_cost scope ~loc res, 0))
    in
    st.cycles <- st.cycles +. float_of_int per_exec;
    if one_time > 0 then (
      let already =
        match Hashtbl.find_opt st.charged_one_time loc with
        | Some act -> act = activation
        | None -> false
      in
      if not already then (
        Hashtbl.replace st.charged_one_time loc activation;
        st.cycles <- st.cycles +. float_of_int one_time))

(* ---- statement execution ---- *)

and exec_stmts st (checked : Typecheck.checked) frame ?overhead_pending ~activation scope stmts =
  (* overhead_pending = Some r: we are a direct loop body; the first
     straight-line run absorbs the loop-control overhead (Aggregate's
     rule); r is set once absorbed. None: standalone costing. *)
  let rec go = function
    | [] -> ()
    | s :: _ as rest when Analysis.is_straight s ->
      let run, rest' = Analysis.split_run rest in
      (match overhead_pending with
       | Some r ->
         let control = not !r in
         r := true;
         charge_run st scope ~in_body:true ~control ~activation run
       | None -> charge_run st scope ~in_body:false ~control:false ~activation run);
      List.iter (exec_straight st checked frame) run;
      go rest'
    | { Ast.kind = Ast.Do d; loc } :: rest ->
      exec_do st checked frame scope loc d;
      go rest
    | { Ast.kind = Ast.If (branches, els); loc } :: rest ->
      exec_if st checked frame ~activation scope loc branches els;
      go rest
    | _ :: rest -> go rest
  in
  go stmts

and exec_straight st checked frame (s : Ast.stmt) =
  let loc = s.Ast.loc in
  budget st loc;
  match s.kind with
  | Ast.Assign (lhs, e) ->
    let v = eval st frame loc e in
    if lhs.subs = [] then (
      (* coerce to the declared type *)
      let v' =
        match Typecheck.lookup checked.Typecheck.symbols lhs.base with
        | Some { ty = Ast.Tint; _ } -> VInt (as_int loc v)
        | Some { ty = Ast.Treal | Ast.Tdouble; _ } -> VReal (as_float loc v)
        | Some { ty = Ast.Tlogical; _ } -> VLog (as_bool loc v)
        | None -> v
      in
      Hashtbl.replace frame.scalars lhs.base v')
    else (
      let arr = lookup_array st frame loc lhs.base in
      let off = element_offset st frame loc arr lhs.base lhs.subs in
      match arr.ty with
      | Ast.Treal | Ast.Tdouble -> arr.fdata.(off) <- as_float loc v
      | Ast.Tint -> arr.idata.(off) <- as_int loc v
      | Ast.Tlogical -> arr.idata.(off) <- (if as_bool loc v then 1 else 0))
  | Ast.Call_stmt (f, args) ->
    let vargs = List.map (eval st frame loc) args in
    ignore (call_routine st loc f vargs)
  | Ast.Return -> raise Return_exn
  | _ -> assert false

and exec_do st checked frame scope loc (d : Ast.do_loop) =
  let lo = as_int loc (eval st frame loc d.lo) in
  let hi = as_int loc (eval st frame loc d.hi) in
  let step = match d.step with None -> 1 | Some e -> as_int loc (eval st frame loc e) in
  if step = 0 then err loc "zero loop step";
  let inner = memo st.scopes loc (fun () -> Aggregate.enter_loop scope d) in
  (* bound evaluation once per entry; the loop control alone per iteration
     when no straight-line run absorbs it *)
  let bound, control =
    memo st.block_costs loc (fun () ->
        (Aggregate.bound_cost scope ~loc d, Aggregate.control_cost inner ~loc))
  in
  st.cycles <- st.cycles +. float_of_int bound;
  st.next_activation <- st.next_activation + 1;
  let activation = st.next_activation in
  let iterations = ref 0 in
  let i = ref lo in
  while (step > 0 && !i <= hi) || (step < 0 && !i >= hi) do
    budget st loc;
    incr iterations;
    Hashtbl.replace frame.scalars d.var (VInt !i);
    let absorbed = ref false in
    exec_stmts st checked frame ~overhead_pending:absorbed ~activation inner d.body;
    if not !absorbed then st.cycles <- st.cycles +. float_of_int control;
    i := !i + step
  done;
  (* Fortran leaves the index at lo + trips * step, lo when the body never runs *)
  Hashtbl.replace frame.scalars d.var (VInt !i);
  Profile.record_loop st.profile loc ~iterations:!iterations

and exec_if st checked frame ~activation scope loc branches els =
  budget st loc;
  (* static aggregation charges every condition's evaluation; mirror that *)
  let conds =
    memo st.if_costs (loc, -1) (fun () ->
        List.fold_left
          (fun acc (cond, _) ->
            acc + Aggregate.cond_cost scope ~loc (Aggregate.translate_cond scope cond))
          0 branches)
  in
  st.cycles <- st.cycles +. float_of_int conds;
  let rec pick idx = function
    | [] -> (List.length branches, els)
    | (cond, body) :: rest ->
      if as_bool loc (eval st frame loc cond) then (idx, body) else pick (idx + 1) rest
  in
  let taken, body = pick 0 branches in
  Profile.record_branch st.profile loc ~arity:(List.length branches + 1) ~taken;
  (* shape-matched taken-branch penalty; the else matches the first condition *)
  (if body <> [] then
     let pen =
       memo st.if_costs (loc, taken) (fun () ->
           let cond = fst (List.nth branches (if taken < List.length branches then taken else 0)) in
           Aggregate.branch_penalty scope (Aggregate.translate_cond scope cond) body)
     in
     st.cycles <- st.cycles +. float_of_int pen);
  exec_stmts st checked frame ~activation scope body

(* ---- routine setup ---- *)

and make_frame st (checked : Typecheck.checked) (args : (string * value) list) =
  let frame = { scalars = Hashtbl.create 32; arrays = Hashtbl.create 8 } in
  (* scalar parameters and defaults *)
  List.iter
    (fun (name, sym) ->
      if sym.Typecheck.dims = [] then (
        let default =
          match sym.ty with
          | Ast.Tint -> VInt 10
          | Ast.Treal | Ast.Tdouble -> VReal 1.0
          | Ast.Tlogical -> VLog false
        in
        let v = match List.assoc_opt name args with Some v -> v | None -> default in
        Hashtbl.replace frame.scalars name v))
    (Typecheck.symbols_list checked.symbols);
  (* arrays: evaluate extents under the scalar bindings and charge each
     array to the run's budget, all before allocating any. An extent is
     checked against what the run has left before it multiplies the size,
     so neither the product nor the sum can overflow past the check *)
  let int_of e = as_int Srcloc.dummy (eval st frame Srcloc.dummy e) in
  let shapes =
    List.filter_map
      (fun (name, sym) ->
        if sym.Typecheck.dims = [] then None
        else
          let bounds =
            List.map
              (fun (dim : Ast.array_dim) ->
                let lo = match dim.dim_lo with None -> 1 | Some e -> int_of e in
                let hi = int_of dim.dim_hi in
                let n = hi - lo + 1 in
                (lo, if hi >= lo && n <= 0 then max_int (* overflowed *) else max 0 n))
              sym.dims
          in
          let extents = Array.of_list (List.map snd bounds) in
          let left = max_elements - st.elements in
          let check n e =
            if n > left / e then
              err Srcloc.dummy
                "routine %s: array %s takes the run past its budget of %d array elements (%d taken)"
                checked.routine.rname name max_elements st.elements;
            n * e
          in
          let size = if Array.mem 0 extents then 0 else Array.fold_left check 1 extents in
          st.elements <- st.elements + size;
          let lows = Array.of_list (List.map fst bounds) in
          Some (name, { ty = sym.ty; lows; extents; fdata = [||]; idata = [||] }, size))
      (Typecheck.symbols_list checked.symbols)
  in
  List.iter
    (fun (name, arr, size) ->
      Hashtbl.replace frame.arrays name
        (match arr.ty with
         | Ast.Treal | Ast.Tdouble -> { arr with fdata = Array.make size 0.0 }
         | Ast.Tint | Ast.Tlogical -> { arr with idata = Array.make size 0 }))
    shapes;
  frame

and exec_routine st (checked : Typecheck.checked) (args : (string * value) list) :
    value option =
  let frame = make_frame st checked args in
  (try exec_stmts st checked frame ~activation:0 (top_scope st checked) checked.routine.body
   with Return_exn -> ());
  match checked.routine.rkind with
  | Ast.Function _ -> Hashtbl.find_opt frame.scalars checked.routine.rname
  | _ -> None

(* ---- public API ---- *)

type result = {
  cycles : float;
  profile : Profile.t;
  return_value : value option;
  scalars : (string * value) list;
}

let run ~machine ?(options = Aggregate.default_options) ?(args = [])
    ?(program = []) (checked : Typecheck.checked) =
  let st =
    {
      machine;
      options;
      program = checked :: program;
      profile = Profile.empty ();
      cycles = 0.0;
      steps = 0;
      block_costs = Hashtbl.create 64;
      if_costs = Hashtbl.create 16;
      charged_one_time = Hashtbl.create 64;
      scopes = Hashtbl.create 16;
      next_activation = 0;
      elements = 0;
      depth = 0;
    }
  in
  let frame = make_frame st checked args in
  let return_value =
    try
      exec_stmts st checked frame ~activation:0 (top_scope st checked) checked.routine.body;
      None
    with Return_exn -> None
  in
  let return_value =
    match checked.routine.rkind with
    | Ast.Function _ -> Hashtbl.find_opt frame.scalars checked.routine.rname
    | _ -> return_value
  in
  {
    cycles = st.cycles;
    profile = st.profile;
    return_value;
    scalars = Hashtbl.fold (fun k v acc -> (k, v) :: acc) frame.scalars [];
  }

let split_program = function
  | [] -> failwith "empty program"
  | main :: rest -> (main, rest)

let run_source ~machine ?options ?args src =
  let main, program = split_program (Typecheck.check_program (Parser.parse_program src)) in
  run ~machine ?options ?args ~program main
