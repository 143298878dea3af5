(** The three-bound model: bin-packing vs critical-path/LCD vs memory.

    The paper's Tetris model (§2) yields one throughput-style bound per
    innermost loop body. Following OSACA's critical-path and loop-carried
    dependency analysis and Kerncraft's cache-model integration, this pass
    computes, per loop nest:

    - the {e bin-packing} bound: the steady-state per-iteration cost of
      dropping the body (plus loop control) into the functional bins — the
      paper's prediction;
    - the {e critical path} through the body's dependence DAG under the
      result latencies — a lower bound on one iteration in isolation;
    - the {e LCD} bound: the maximum latency-to-distance ratio over the
      loop-carried flow dependences, measured as the critical-path slope
      of an iteration-crossing DAG (the body replicated with store→load
      carry edges at the dependence distance) — what serialization through
      the carried chain costs per iteration at steady state;
    - the {e memory} bound: the cache-line fill cycles of
      {!Pperf_memcost.Memcost.nest_cost}, folded into the same expression
      rather than reported beside it.

    Each bound is totalled symbolically over the (possibly symbolic) trip
    counts; the steady-state prediction for the nest is their max, and a
    [bound-disagreement] precision event is reported when a latency or
    memory bound crosses above the bin-packing bound — the places where
    the paper's model is provably optimistic. *)

open Pperf_num
open Pperf_symbolic
open Pperf_lang
open Pperf_machine

type carried = {
  carray : string;  (** array carrying the dependence *)
  clevel : string;  (** loop variable of the carrying level *)
  cdistance : int;  (** iteration distance at that level *)
  cexact : bool;  (** distance solved from the subscripts (vs assumed 1) *)
  cratio : Rat.t;  (** chain cycles per iteration: latency / distance *)
}

type classification = Compute_bound | Latency_bound | Memory_bound

type nest = {
  at : Srcloc.t;
  loop_vars : string list;  (** outermost first *)
  trips : Poly.t;  (** product of the nest's trip counts *)
  bin_per_iter : int;  (** steady-state Tetris cycles per iteration *)
  bin_once : int;  (** one iteration dropped alone (>= critical path) *)
  critical_path : int;  (** longest latency chain inside one iteration *)
  lcd_per_iter : Rat.t;  (** max carried-chain ratio; zero without chains *)
  carried : carried list;  (** the carried flow chains found *)
  bin_bound : Poly.t;  (** bin_per_iter * trips *)
  lcd_bound : Poly.t;  (** lcd_per_iter * trips *)
  mem_bound : Poly.t option;  (** cache cycles, when memory is included *)
  classification : classification;
  disagreement : Pperf_lint.Diagnostic.t option;
}

type routine = {
  rname : string;
  nests : nest list;
  diagnostics : Pperf_lint.Diagnostic.t list;
      (** every [bound-disagreement] event, in nest order *)
}

type translated = {
  res : Pperf_translate.Translator.result;
  once : int;  (** the body plus loop control dropped alone into fresh bins *)
  per_iter : int;  (** its two-drop steady state *)
}
(** An innermost body as the bound analysis costs it: translated with its
    loop variables and invariants under the default back-end flags. *)

val analyze :
  machine:Machine.t ->
  ?include_memory:bool ->
  ?bindings:(string * float) list ->
  ?nests:Analysis.nests ->
  ?translated:(loop_vars:string list -> invariants:Analysis.SSet.t -> Ast.stmt list -> translated option) ->
  Typecheck.checked ->
  routine
(** Every innermost nest of the routine. [nests] is the routine's
    loop-nest table (made here when absent); the carried chains, their
    distances and the memory model read its references. [translated]
    supplies a body the request has already translated and dropped (the
    aggregation's block table does); a body it answers [None] for is
    translated and dropped here. *)

val chain_ratio : Pperf_sched.Dag.t -> (int * int * int) list -> Rat.t
(** [chain_ratio body carries]: the body's cycles per iteration at steady
    state when each [(prod, cons, dist)] makes node [cons] of an iteration
    wait for node [prod] of the iteration [dist] (>= 1) before it: the
    critical-path slope between 4 and 8 times the longest distance
    iterations of the unrolled body, and zero without carries. *)

val steady_total : routine -> Poly.t
(** The routine's steady-state performance expression under the
    three-bound model: per nest, the larger of the bin-packing and LCD
    rates times the trip counts, plus the memory bound when present — an
    ECM-style sum used by [compare] to decide variants the bin expression
    alone cannot. *)

val classification_string : classification -> string
