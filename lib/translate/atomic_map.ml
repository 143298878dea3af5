(** The atomic operation mapping: architecture-dependent, language-
    independent lowering of basic operations to a machine's atomic
    operations (Fig. 6, second translation level).

    A basic operation may expand to a {e chain} of atomic operations (each
    depending on the previous one), e.g. a fused multiply-add on a machine
    without FMA hardware becomes multiply then add, and min/max becomes a
    compare feeding a select/copy. *)

open Pperf_machine
module Memo = Pperf_obs.Memo

(* the chain of atomic operations implementing [b]; element [k+1] consumes
   the result of element [k] *)
let lower (m : Machine.t) (b : Basic_op.t) : Atomic_op.t list =
  let a name = [ Machine.atomic m name ] in
  let a2 n1 n2 = [ Machine.atomic m n1; Machine.atomic m n2 ] in
  let prefer name fallback = if Machine.has_atomic m name then a name else fallback () in
  let fp prec single double =
    (* double-precision ops use their own table entry when the machine
       distinguishes them (e.g. divide latency), else the single one *)
    match prec with
    | Basic_op.Double when Machine.has_atomic m double -> a double
    | _ -> a single
  in
  match b with
  | Basic_op.B_iadd -> a "iadd"
  | B_isub -> a "isub"
  | B_imul { small } ->
    if small && Machine.has_atomic m "imul_small" then a "imul_small" else a "imul"
  | B_ishift -> prefer "ishift" (fun () -> a "iadd")
  | B_ilogic -> prefer "ilogic" (fun () -> a "iadd")
  | B_idiv -> a "idiv"
  | B_ineg -> prefer "ineg" (fun () -> a "isub")
  | B_icmp -> a "icmp"
  | B_fadd p -> fp p "fadd" "dadd"
  | B_fsub p -> (match p with
    | Basic_op.Double when Machine.has_atomic m "dsub" -> a "dsub"
    | _ -> prefer "fsub" (fun () -> a "fadd"))
  | B_fmul p -> fp p "fmul" "dmul"
  | B_fma p ->
    if m.Machine.has_fma && Machine.has_atomic m "fma" then
      (match p with
       | Basic_op.Double when Machine.has_atomic m "dfma" -> a "dfma"
       | _ -> a "fma")
    else a2 "fmul" "fadd"
  | B_fdiv p -> fp p "fdiv" "ddiv"
  | B_fneg -> prefer "fneg" (fun () -> a "fsub")
  | B_fcmp -> a "fcmp"
  | B_fselect -> a2 "fcmp" "fcopy"
  | B_cvt_if -> a "cvt_if"
  | B_cvt_fi -> a "cvt_fi"
  | B_load { float } -> a (if float then "load_fp" else "load_int")
  | B_store { float } -> a (if float then "store_fp" else "store_int")
  | B_branch -> a "branch"
  | B_branch_cond -> a "branch_cond"
  | B_call -> a "call"
  | B_intrinsic name ->
    if Machine.has_atomic m name then a name
    else a "call" (* unknown intrinsic: library call *)

(* the mapping is a pure function of the machine's tables, and every block
   translation asks for the same handful of basic ops: keep each machine's
   chains per worker domain, filled on first use, so a builder looks its
   machine up once. 16 entries: the bound of the other machine-keyed
   memos. *)
type table = {
  machine : Machine.t;
  chains : Atomic_op.t list array;  (** by {!Basic_op.index}; [[]] not yet mapped *)
  mutable intrinsics : (string * Atomic_op.t list) list;
}

let tables =
  Memo.create ~hash:Machine.hash ~equal:( == ) Memo.Per_domain "translate.atomic_chains"
    ~capacity:16

let table (m : Machine.t) =
  Memo.find_or_add tables m (fun () ->
      { machine = m; chains = Array.make Basic_op.indexed []; intrinsics = [] })

let chain t (b : Basic_op.t) =
  match (Basic_op.index b, b) with
  | -1, Basic_op.B_intrinsic name -> (
    match List.assoc_opt name t.intrinsics with
    | Some c -> c
    | None ->
      let c = lower t.machine b in
      t.intrinsics <- (name, c) :: t.intrinsics;
      c)
  | i, _ -> (
    match t.chains.(i) with
    | [] ->
      let c = lower t.machine b in
      t.chains.(i) <- c;
      c
    | c -> c)
