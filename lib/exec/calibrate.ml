(* Fit a ports-model cost table (Costmodel.Ports) from interpreter
   measurements of an oracle machine.

   The oracle is only ever consulted through Interp — the same dynamic
   path a user program takes — so calibration treats it as a black box:
   run microbenchmark kernels, read cycles. Two kinds of probes:

   - steady-state loop kernels: per-iteration cost is the exact slope
     (cycles(n2) - cycles(n1)) / (n2 - n1), since the interpreter charges
     loops linearly in the trip count. Marginals over the number of
     independent accumulator statements isolate the reciprocal throughput
     of one op family.
   - straight-line dependence chains (nested expressions, store-load
     chains): the slope over the chain length is the op's result latency.

   Fitting is model-based rather than closed-form: every structural
   choice (which op families share issue ports, how many ports a class
   has, how many µops an op costs) is scored by rebuilding a candidate
   ports machine and re-running the same kernels through the same
   interpreter — so the bins/packing quirks of the cost model cancel
   instead of biasing the fit. *)

open Pperf_machine
module Aggregate = Pperf_core.Aggregate
module Flags = Pperf_translate.Flags

(* fma fusion would make the measured op mix depend on the oracle's
   [has_fma]; pin it off so kernels translate identically everywhere *)
let options =
  {
    Aggregate.default_options with
    Aggregate.flags = { Flags.default with Flags.fma_fusion = false };
  }

let cycles machine src ~n =
  (Interp.run_source ~machine ~options ~args:[ ("n", Interp.VInt n) ] src).Interp.cycles

let per_iter machine src = (cycles machine src ~n:48 -. cycles machine src ~n:16) /. 32.
let straight machine src = cycles machine src ~n:16

(* ---- kernel generation ---- *)

let range k = List.init k (fun j -> j + 1)
let commas f k = String.concat ", " (List.map f (range k))
let lines f k = String.concat "" (List.map f (range k))
let sp = Printf.sprintf

(* k independent integer reductions: k iadd per iteration *)
let k_int k =
  sp "subroutine kern(%s, n)\n  integer n, i, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "m%d") k) (commas (sp "m%d") k)
    (lines (fun j -> sp "    m%d = m%d + i\n" j j) k)

(* k independent float reductions with a variant rhs: 2k fadd *)
let k_fp k =
  sp "subroutine kern(%s, %s, n)\n  integer n, i\n  real %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "x%d") k) (commas (sp "s%d") k) (commas (sp "x%d") k) (commas (sp "s%d") k)
    (lines (fun j -> sp "    s%d = s%d + (x%d + i)\n" j j j) k)

(* int and float reductions interleaved: contention discriminator *)
let k_fp_int k =
  sp
    "subroutine kern(%s, %s, %s, n)\n  integer n, i, %s\n  real %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "m%d") k) (commas (sp "x%d") k) (commas (sp "s%d") k) (commas (sp "m%d") k)
    (commas (sp "x%d") k) (commas (sp "s%d") k)
    (lines (fun j -> sp "    m%d = m%d + i\n    s%d = s%d + (x%d + i)\n" j j j j j) k)

(* k float-array reductions: k x (load_fp + fadd) *)
let k_load_fp k =
  sp "subroutine kern(%s, %s, n)\n  integer n, i\n  real %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "a%d") k) (commas (sp "s%d") k)
    (commas (sp "a%d(100)") k) (commas (sp "s%d") k)
    (lines (fun j -> sp "    s%d = s%d + a%d(i)\n" j j j) k)

(* k integer-array reductions: k x (load_int + iadd) *)
let k_load_int k =
  sp
    "subroutine kern(%s, %s, n)\n  integer n, i, %s\n  integer %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "ia%d") k) (commas (sp "m%d") k) (commas (sp "m%d") k)
    (commas (sp "ia%d(100)") k)
    (lines (fun j -> sp "    m%d = m%d + ia%d(i)\n" j j j) k)

(* k array-to-array maps: k x (load_fp + fadd + store_fp) *)
let k_store k =
  sp
    "subroutine kern(%s, %s, %s, n)\n  integer n, i\n  real %s, %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "a%d") k) (commas (sp "b%d") k) (commas (sp "q%d") k)
    (commas (sp "a%d(100)") k) (commas (sp "b%d(100)") k) (commas (sp "q%d") k)
    (lines (fun j -> sp "    b%d(i) = a%d(i) + q%d\n" j j j) k)

(* k x (load_fp + fmul + fadd) *)
let k_fmul k =
  sp
    "subroutine kern(%s, %s, %s, n)\n  integer n, i\n  real %s, %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "a%d") k) (commas (sp "b%d") k) (commas (sp "s%d") k)
    (commas (sp "a%d(100)") k) (commas (sp "b%d") k) (commas (sp "s%d") k)
    (lines (fun j -> sp "    s%d = s%d + a%d(i) * b%d\n" j j j j) k)

(* k x (load_fp + fdiv + fadd); divisors are real parameters (default 1.0) *)
let k_fdiv k =
  sp
    "subroutine kern(%s, %s, %s, n)\n  integer n, i\n  real %s, %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "a%d") k) (commas (sp "c%d") k) (commas (sp "s%d") k)
    (commas (sp "a%d(100)") k) (commas (sp "c%d") k) (commas (sp "s%d") k)
    (lines (fun j -> sp "    s%d = s%d + a%d(i) / c%d\n" j j j j) k)

(* k x (imul + iadd); multipliers are variables so the general imul is used *)
let k_imul k =
  sp "subroutine kern(%s, %s, n)\n  integer n, i, %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "w%d") k) (commas (sp "m%d") k) (commas (sp "w%d") k) (commas (sp "m%d") k)
    (lines (fun j -> sp "    m%d = m%d + i * w%d\n" j j j) k)

(* k x (idiv + iadd); integer divisors default to 10 *)
let k_idiv k =
  sp "subroutine kern(%s, %s, n)\n  integer n, i, %s, %s\n  do i = 1, n\n%s  end do\nend\n"
    (commas (sp "w%d") k) (commas (sp "m%d") k) (commas (sp "w%d") k) (commas (sp "m%d") k)
    (lines (fun j -> sp "    m%d = m%d + i / w%d\n" j j j) k)

(* dependence chain of [l] binary ops as one nested expression *)
let chain_fp op l =
  sp "subroutine kern(p, q, r, n)\n  integer n\n  real p, q, r\n  r = p%s\nend\n"
    (String.concat "" (List.map (fun _ -> sp " %s q" op) (range l)))

let chain_int op l =
  sp "subroutine kern(mp, mq, mr, n)\n  integer n, mp, mq, mr\n  mr = mp%s\nend\n"
    (String.concat "" (List.map (fun _ -> sp " %s mq" op) (range l)))

(* store-load dependence chain through one array cell *)
let chain_mem l =
  sp "subroutine kern(a, c, n)\n  integer n\n  real a(100), c\n%send\n"
    (lines (fun _ -> "  a(1) = a(1) + c\n") l)

(* ---- fitted-machine construction ---- *)

type mem_class = Mem_own of int | Mem_int | Mem_fp
type st_class = St_own of int | St_int | St_fp | St_mem

type spec = {
  mutable g_int : int;  (** ports of the integer class *)
  mutable fp_merged : bool;  (** fp ops issue on the integer ports *)
  mutable g_fp : int;  (** ports of a separate fp class *)
  mutable mem : mem_class;
  mutable st : st_class;
  mutable counts : (string * int) list;  (** op -> µops *)
  mutable lats : (string * int) list;  (** op -> result latency *)
}

let initial_spec () =
  {
    g_int = 1;
    fp_merged = true;
    g_fp = 1;
    mem = Mem_int;
    st = St_int;
    counts = [];
    lats = [];
  }

let count spec op = match List.assoc_opt op spec.counts with Some n -> n | None -> 1
let lat spec op ~default = match List.assoc_opt op spec.lats with Some l -> l | None -> default
let set_count spec op n = spec.counts <- (op, n) :: List.remove_assoc op spec.counts
let set_lat spec op l = spec.lats <- (op, l) :: List.remove_assoc op spec.lats

let port_layout spec =
  let int_ports = List.init spec.g_int (fun i -> sp "p%d" i) in
  let next = ref spec.g_int in
  let fresh g =
    let ps = List.init g (fun i -> sp "p%d" (!next + i)) in
    next := !next + g;
    ps
  in
  let fp_ports = if spec.fp_merged then int_ports else fresh spec.g_fp in
  let mem_ports =
    match spec.mem with Mem_own g -> fresh g | Mem_int -> int_ports | Mem_fp -> fp_ports
  in
  let st_ports =
    match spec.st with
    | St_own g -> fresh g
    | St_int -> int_ports
    | St_fp -> fp_ports
    | St_mem -> mem_ports
  in
  let all = List.init !next (fun i -> sp "p%d" i) in
  (all, int_ports, fp_ports, mem_ports, st_ports)

let build spec (om : Machine.t) =
  let all, int_ports, fp_ports, mem_ports, st_ports = port_layout spec in
  let n = count spec in
  let l = lat spec in
  let l_iadd = l "iadd" ~default:1 in
  let l_imul = l "imul" ~default:3 in
  let l_fadd = l "fadd" ~default:2 in
  let l_fmul = l "fmul" ~default:2 in
  let l_fdiv = l "fdiv" ~default:(max 2 (n "fdiv")) in
  let l_load = l "load_fp" ~default:2 in
  let simple_int name = (name, l_iadd, [ (int_ports, n "iadd") ]) in
  let simple_fp1 name = (name, 1, [ (fp_ports, 1) ]) in
  let atomics =
    [
      simple_int "iadd"; simple_int "isub"; simple_int "ineg"; simple_int "ilogic";
      simple_int "ishift"; simple_int "icopy";
      ("imul_small", l_imul, [ (int_ports, n "imul") ]);
      ("imul", l_imul, [ (int_ports, n "imul") ]);
      ("idiv", max 1 (l "idiv" ~default:(n "idiv")), [ (int_ports, n "idiv") ]);
      ("icmp", l_iadd, [ (int_ports, n "iadd") ]);
      ("fadd", l_fadd, [ (fp_ports, n "fadd") ]);
      ("fsub", l_fadd, [ (fp_ports, n "fadd") ]);
      ("fmul", l_fmul, [ (fp_ports, n "fmul") ]);
      ("fma", max l_fadd l_fmul, [ (fp_ports, n "fadd" + n "fmul") ]);
      simple_fp1 "fneg"; simple_fp1 "fabs"; simple_fp1 "fcopy"; simple_fp1 "fcmp";
      ("fdiv", l_fdiv, [ (fp_ports, n "fdiv") ]);
      ("cvt_if", l_fadd, [ (fp_ports, n "fadd") ]);
      ("cvt_fi", l_fadd, [ (fp_ports, n "fadd") ]);
      ("load_int", l_load, [ (mem_ports, n "load_int") ]);
      ("load_fp", l_load, [ (mem_ports, n "load_fp") ]);
      ("store_int", l "store_fp" ~default:1, [ (st_ports, n "store_fp") ]);
      ("store_fp", l "store_fp" ~default:1, [ (st_ports, n "store_fp") ]);
      ("branch", 1, [ (int_ports, 1) ]);
      ("branch_cond", max 1 (n "branch_cond"), [ (int_ports, n "branch_cond") ]);
      ("call", 2, [ (int_ports, 2) ]);
      (* intrinsics are software sequences the kernels cannot observe
         one by one; scale them from the fitted divide (documented) *)
      ("fsqrt", 2 * l_fdiv, [ (fp_ports, 2 * n "fdiv") ]);
      ("fsin", 3 * l_fdiv, [ (fp_ports, 3 * n "fdiv") ]);
      ("fcos", 3 * l_fdiv, [ (fp_ports, 3 * n "fdiv") ]);
      ("fexp", 2 * l_fdiv, [ (fp_ports, 2 * n "fdiv") ]);
      ("flog", 2 * l_fdiv, [ (fp_ports, 2 * n "fdiv") ]);
      ("ftanh", 3 * l_fdiv, [ (fp_ports, 3 * n "fdiv") ]);
      ("nop", 0, [ (int_ports, 0) ]);
    ]
  in
  Machine.make_ports ~name:(om.Machine.name ^ "+fit") ~ports:all ~atomics
    ~issue_width:om.Machine.issue_width
    ~branch_taken_cycles:om.Machine.branch_taken_cycles
    ~register_load_limit:om.Machine.register_load_limit ~has_fma:false
    ~cache:om.Machine.cache ?comm:om.Machine.comm ()

(* ---- fitting ---- *)

(* candidate µop counts for one op given the measured marginal rate r and
   a class width g: the two integers bracketing r*g, plus neighbours *)
let count_candidates r g =
  let c = r *. float_of_int g in
  let lo = int_of_float (Float.floor c) and hi = int_of_float (Float.ceil c) in
  List.sort_uniq compare (List.filter (fun n -> n >= 1) [ lo - 1; lo; hi; hi + 1 ])

let argmin candidates eval =
  match candidates with
  | [] -> invalid_arg "Calibrate.argmin: no candidates"
  | first :: rest ->
    let best = ref first and best_score = ref (eval first) in
    List.iter
      (fun c ->
        let s = eval c in
        if s < !best_score -. 1e-9 then (
          best := c;
          best_score := s))
      rest;
    (!best, !best_score)

type measurement = { label : string; oracle : float; fitted : float; rel_err : float }

type t = {
  machine : Machine.t;
  description : string;
  measurements : measurement list;
  max_rel_err : float;
  tolerance : float;
  ok : bool;
}

(* generous enough for bin-packing edge effects on small kernels while
   still rejecting structurally wrong fits *)
let default_tolerance = 0.25

let run ~machine:om ?(tolerance = default_tolerance) () =
  let spec = initial_spec () in
  (* oracle steady-state per-iteration costs, measured once *)
  let probe gen k = (sp "%s" (gen k), per_iter om (gen k)) in
  let ki4 = probe k_int 4 and ki8 = probe k_int 8 in
  let kf4 = probe k_fp 4 and kf8 = probe k_fp 8 in
  let kfi4 = probe k_fp_int 4 and kfi8 = probe k_fp_int 8 in
  let ka4 = probe k_load_fp 4 and ka8 = probe k_load_fp 8 in
  let kil4 = probe k_load_int 4 and kil8 = probe k_load_int 8 in
  let ks4 = probe k_store 4 and ks8 = probe k_store 8 in
  let km4 = probe k_fmul 4 and km8 = probe k_fmul 8 in
  let kd4 = probe k_fdiv 4 and kd8 = probe k_fdiv 8 in
  let kim4 = probe k_imul 4 and kim8 = probe k_imul 8 in
  let kid4 = probe k_idiv 4 and kid8 = probe k_idiv 8 in
  let marginal (_, p4) (_, p8) = (p8 -. p4) /. 4. in
  (* result latencies from dependence-chain slopes (oracle only) *)
  let chain_lat gen l1 l2 =
    let d = (straight om (gen l2) -. straight om (gen l1)) /. float_of_int (l2 - l1) in
    max 1 (int_of_float (Float.round d))
  in
  set_lat spec "iadd" (chain_lat (chain_int "+") 4 12);
  set_lat spec "imul" (chain_lat (chain_int "*") 4 12);
  set_lat spec "fadd" (chain_lat (chain_fp "+") 4 12);
  set_lat spec "fmul" (chain_lat (chain_fp "*") 4 12);
  set_lat spec "fdiv" (chain_lat (chain_fp "/") 3 8);
  set_lat spec "idiv" (chain_lat (chain_int "/") 3 8);
  let score kernels =
    let fm = build spec om in
    List.fold_left
      (fun acc (src, oracle_v) -> acc +. Float.abs (per_iter fm src -. oracle_v))
      0. kernels
  in
  (* straight-line probes for the latency-sensitive stages *)
  let chmem4 = straight om (chain_mem 4) and chmem8 = straight om (chain_mem 8) in
  let score_mem_chain () =
    let fm = build spec om in
    Float.abs (straight fm (chain_mem 4) -. chmem4)
    +. Float.abs (straight fm (chain_mem 8) -. chmem8)
  in
  (* stage A: integer class width, iadd µops, loop-control residual.
     candidates ordered simplest-first; argmin keeps the first best, so
     observationally equivalent structures resolve to the smallest one. *)
  let mi = marginal ki4 ki8 in
  let cands_a =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun n -> List.map (fun bc -> (g, n, bc)) [ 0; 1; 2; 3 ])
          (count_candidates mi g))
      [ 1; 2; 3; 4 ]
  in
  let (g_int, n_iadd, n_bc), _ =
    argmin cands_a (fun (g, n, bc) ->
        spec.g_int <- g;
        set_count spec "iadd" n;
        set_count spec "branch_cond" bc;
        score [ ki4; ki8 ])
  in
  spec.g_int <- g_int;
  set_count spec "iadd" n_iadd;
  set_count spec "branch_cond" n_bc;
  (* stage B: does fp share the integer ports? how wide, how many µops? *)
  let mf = marginal kf4 kf8 /. 2. in
  let cands_b =
    List.map (fun n -> (true, spec.g_int, n)) (count_candidates mf spec.g_int)
    @ List.concat_map
        (fun g -> List.map (fun n -> (false, g, n)) (count_candidates mf g))
        [ 1; 2; 3; 4 ]
  in
  let (fp_merged, g_fp, n_fadd), _ =
    argmin cands_b (fun (merged, g, n) ->
        spec.fp_merged <- merged;
        spec.g_fp <- g;
        set_count spec "fadd" n;
        score [ kf4; kf8; kfi4; kfi8 ])
  in
  spec.fp_merged <- fp_merged;
  spec.g_fp <- g_fp;
  set_count spec "fadd" n_fadd;
  (* stage C: memory class, load µop counts (int and fp separately), and
     load latency. The latency is searched rather than derived because the
     last load's coverable tail extends the steady-state block cost, so a
     wrong latency perturbs the very marginals the counts are fit to. *)
  let structs_c = [ Mem_int; Mem_fp; Mem_own 1; Mem_own 2; Mem_own 3; Mem_own 4 ] in
  let fit_loads (st, l_ld) =
    spec.mem <- st;
    set_lat spec "load_fp" l_ld;
    let n_li, s_li =
      argmin [ 1; 2; 3; 4; 5; 6 ] (fun n ->
          set_count spec "load_int" n;
          score [ kil4; kil8 ])
    in
    set_count spec "load_int" n_li;
    let n_lf, s_lf =
      argmin [ 1; 2; 3; 4; 5; 6 ] (fun n ->
          set_count spec "load_fp" n;
          score [ ka4; ka8 ])
    in
    set_count spec "load_fp" n_lf;
    ((n_li, n_lf), s_li +. s_lf)
  in
  let cands_c =
    List.concat_map
      (fun st -> List.map (fun l -> (st, l)) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
      structs_c
  in
  let (mem_st, l_load), _ = argmin cands_c (fun c -> snd (fit_loads c)) in
  let (n_li, n_lf), _ = fit_loads (mem_st, l_load) in
  spec.mem <- mem_st;
  set_lat spec "load_fp" l_load;
  set_count spec "load_int" n_li;
  set_count spec "load_fp" n_lf;
  (* stage D: store class, µops and latency. The store-load chain through
     one array cell pins load + fadd + store latency, disambiguating
     store latency from store occupancy. *)
  let cands_d =
    List.concat_map
      (fun st ->
        List.concat_map
          (fun n -> List.map (fun l -> (st, n, l)) [ 1; 2; 3; 4 ])
          [ 1; 2; 3; 4; 5; 6 ])
      [ St_int; St_fp; St_mem; St_own 1; St_own 2 ]
  in
  let (st_st, n_st, l_st), _ =
    argmin cands_d (fun (st, n, l) ->
        spec.st <- st;
        set_count spec "store_fp" n;
        set_lat spec "store_fp" l;
        score [ ks4; ks8 ] +. score_mem_chain ())
  in
  spec.st <- st_st;
  set_count spec "store_fp" n_st;
  set_lat spec "store_fp" l_st;
  (* stage E: multiply and divide µop counts on the now-fixed classes *)
  let fit_count op cands kernels =
    let n, _ =
      argmin cands (fun n ->
          set_count spec op n;
          score kernels)
    in
    set_count spec op n
  in
  fit_count "fmul" (List.init 8 (fun i -> i + 1)) [ km4; km8 ];
  fit_count "imul" (List.init 10 (fun i -> i + 1)) [ kim4; kim8 ];
  fit_count "fdiv" (List.init 40 (fun i -> i + 1)) [ kd4; kd8 ];
  fit_count "idiv" (List.init 48 (fun i -> i + 1)) [ kid4; kid8 ];
  (* ---- verification: replay the whole suite under the fitted machine ---- *)
  let fitted = build spec om in
  let loop_meas label (src, oracle_v) =
    let f = per_iter fitted src in
    { label; oracle = oracle_v; fitted = f; rel_err = Float.abs (f -. oracle_v) /. Float.max 1. (Float.abs oracle_v) }
  in
  let chain_meas label gen l =
    let o = straight om (gen l) and f = straight fitted (gen l) in
    { label; oracle = o; fitted = f; rel_err = Float.abs (f -. o) /. Float.max 1. (Float.abs o) }
  in
  let measurements =
    [
      loop_meas "int x4" ki4; loop_meas "int x8" ki8;
      loop_meas "fp x4" kf4; loop_meas "fp x8" kf8;
      loop_meas "fp+int x4" kfi4; loop_meas "fp+int x8" kfi8;
      loop_meas "load_fp x4" ka4; loop_meas "load_fp x8" ka8;
      loop_meas "load_int x4" kil4; loop_meas "load_int x8" kil8;
      loop_meas "store x4" ks4; loop_meas "store x8" ks8;
      loop_meas "fmul x4" km4; loop_meas "fmul x8" km8;
      loop_meas "fdiv x4" kd4; loop_meas "fdiv x8" kd8;
      loop_meas "imul x4" kim4; loop_meas "imul x8" kim8;
      loop_meas "idiv x4" kid4; loop_meas "idiv x8" kid8;
      chain_meas "fadd chain" (chain_fp "+") 12;
      chain_meas "fmul chain" (chain_fp "*") 12;
      chain_meas "fdiv chain" (chain_fp "/") 8;
      chain_meas "iadd chain" (chain_int "+") 12;
      chain_meas "imul chain" (chain_int "*") 12;
      chain_meas "idiv chain" (chain_int "/") 8;
      chain_meas "mem chain" chain_mem 8;
    ]
  in
  let max_rel_err =
    List.fold_left (fun acc m -> Float.max acc m.rel_err) 0. measurements
  in
  {
    machine = fitted;
    description = Descr.to_string fitted;
    measurements;
    max_rel_err;
    tolerance;
    ok = max_rel_err <= tolerance;
  }

let report t =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "calibration of %s (tolerance %.3f)\n\n" t.machine.Machine.name t.tolerance;
  pf "  %-14s %10s %10s %9s\n" "kernel" "oracle" "fitted" "rel.err";
  List.iter
    (fun m -> pf "  %-14s %10.3f %10.3f %9.3f\n" m.label m.oracle m.fitted m.rel_err)
    t.measurements;
  pf "\nmax relative error %.3f -> %s\n" t.max_rel_err (if t.ok then "ok" else "FAIL");
  pf "\nfitted machine description:\n%s" t.description;
  Buffer.contents b
