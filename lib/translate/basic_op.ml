(** Basic operations: the middle layer of the paper's two-level translation
    (Fig. 6). Language-independent, type-specific, architecture-agnostic.

    The {e operation specialization mapping} (language-dependent) produces
    these from source expressions; the {e atomic operation mapping}
    (architecture-dependent, {!Atomic_map}) lowers them to a machine's
    atomic operations. *)

type precision = Single | Double

type t =
  | B_iadd
  | B_isub
  | B_imul of { small : bool }
      (** [small]: the multiplier is a compile-time constant in [-128,127]
          — the paper's variable-latency example (§2.2.1) *)
  | B_ishift
  | B_ilogic
  | B_idiv
  | B_ineg
  | B_icmp
  | B_fadd of precision
  | B_fsub of precision
  | B_fmul of precision
  | B_fma of precision  (** fused multiply-add *)
  | B_fdiv of precision
  | B_fneg
  | B_fcmp
  | B_fselect  (** min/max selection *)
  | B_cvt_if  (** int -> float *)
  | B_cvt_fi  (** float -> int *)
  | B_load of { float : bool }
  | B_store of { float : bool }
  | B_branch
  | B_branch_cond
  | B_call
  | B_intrinsic of string  (** costed via a dedicated atomic op, e.g. fsqrt *)

let to_string = function
  | B_iadd -> "IADD"
  | B_isub -> "ISUB"
  | B_imul { small = true } -> "IMUL.S"
  | B_imul { small = false } -> "IMUL"
  | B_ishift -> "ISHIFT"
  | B_ilogic -> "ILOGIC"
  | B_idiv -> "IDIV"
  | B_ineg -> "INEG"
  | B_icmp -> "ICMP"
  | B_fadd Single -> "FADD"
  | B_fadd Double -> "DADD"
  | B_fsub Single -> "FSUB"
  | B_fsub Double -> "DSUB"
  | B_fmul Single -> "FMUL"
  | B_fmul Double -> "DMUL"
  | B_fma Single -> "FMA"
  | B_fma Double -> "DFMA"
  | B_fdiv Single -> "FDIV"
  | B_fdiv Double -> "DDIV"
  | B_fneg -> "FNEG"
  | B_fcmp -> "FCMP"
  | B_fselect -> "FSEL"
  | B_cvt_if -> "CVTIF"
  | B_cvt_fi -> "CVTFI"
  | B_load { float = true } -> "FLOAD"
  | B_load { float = false } -> "ILOAD"
  | B_store { float = true } -> "FSTORE"
  | B_store { float = false } -> "ISTORE"
  | B_branch -> "BR"
  | B_branch_cond -> "BC"
  | B_call -> "CALL"
  | B_intrinsic s -> "INTR:" ^ s

let is_store = function B_store _ -> true | _ -> false
let is_load = function B_load _ -> true | _ -> false

(* a dense numbering of the operations but intrinsics, for tables indexed
   by operation; an intrinsic is -1 *)
let indexed = 31

let index = function
  | B_iadd -> 0
  | B_isub -> 1
  | B_imul { small = true } -> 2
  | B_imul { small = false } -> 3
  | B_ishift -> 4
  | B_ilogic -> 5
  | B_idiv -> 6
  | B_ineg -> 7
  | B_icmp -> 8
  | B_fadd Single -> 9
  | B_fadd Double -> 10
  | B_fsub Single -> 11
  | B_fsub Double -> 12
  | B_fmul Single -> 13
  | B_fmul Double -> 14
  | B_fma Single -> 15
  | B_fma Double -> 16
  | B_fdiv Single -> 17
  | B_fdiv Double -> 18
  | B_fneg -> 19
  | B_fcmp -> 20
  | B_fselect -> 21
  | B_cvt_if -> 22
  | B_cvt_fi -> 23
  | B_load { float = true } -> 24
  | B_load { float = false } -> 25
  | B_store { float = true } -> 26
  | B_store { float = false } -> 27
  | B_branch -> 28
  | B_branch_cond -> 29
  | B_call -> 30
  | B_intrinsic _ -> -1
