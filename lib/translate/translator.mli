(** The instruction translation module (§2.2).

    Converts straight-line PF statements into a dependence DAG of atomic
    operations while {e imitating the back-end}: the estimate must match
    the code the real code generator would emit, several phases later.
    Imitated optimizations (each gated by a {!Flags.t} field):

    - value numbering / CSE, with the limited register file simulated by
      an LRU window of {!Pperf_machine.Machine.t}[.register_load_limit]
      resident loads;
    - loop-invariant code motion: invariant work lands in separate
      {e one-time} bins (§2.2.2 "two functional bins are used to count the
      one-time and iterative costs separately");
    - fused multiply-add recognition;
    - sum-reduction recognition: accumulator loads/stores move to the
      one-time part, "all but one store instruction can be eliminated";
    - update-form addressing: subscript arithmetic affine in the enclosing
      loop indices costs nothing per iteration;
    - dead code elimination;
    - small-multiplier integer multiplies and power-of-two strength
      reduction (§2.2.1's variable-latency operations). *)

open Pperf_lang
open Pperf_machine
open Pperf_sched

type result = {
  body : Dag.t;  (** per-iteration atomic operations *)
  one_time : Dag.t;  (** invariant/one-time atomic operations *)
  loads : int;  (** memory loads in [body] *)
  stores : int;
  flops : int;  (** floating-point operations in [body] (an FMA counts 2) *)
  int_ops : int;
  array_loads : (string * int) list;
      (** [(a, k)]: node [k] of [body] loads an element of array [a];
          ascending in [k] *)
  array_stores : (string * int) list;  (** the same for element stores *)
}

exception Not_straight_line of Srcloc.t
(** Raised when the fragment contains control flow ([do]/[if]) — those are
    the aggregation layer's job. *)

val translate_block :
  machine:Machine.t ->
  ?flags:Flags.t ->
  symtab:Typecheck.symtab ->
  ?loop_vars:string list ->
  ?invariants:Analysis.SSet.t ->
  Ast.stmt list ->
  result
(** [loop_vars] are the enclosing loop indices (innermost last);
    [invariants] the variables (scalars and array bases) not assigned
    inside the enclosing loop. Both default to "no enclosing loop". *)

val translate_condition :
  machine:Machine.t ->
  ?flags:Flags.t ->
  symtab:Typecheck.symtab ->
  ?loop_vars:string list ->
  ?invariants:Analysis.SSet.t ->
  Ast.expr ->
  result
(** The condition evaluation plus conditional branch of an [if]. *)

val translate_exprs :
  machine:Machine.t ->
  ?flags:Flags.t ->
  symtab:Typecheck.symtab ->
  ?loop_vars:string list ->
  ?invariants:Analysis.SSet.t ->
  Ast.expr list ->
  result
(** Pure evaluation of expressions (loop bounds, call arguments) with no
    stores; dead-code elimination is disabled so every operation counts. *)

val loop_overhead_dag : machine:Machine.t -> unit -> Dag.t
(** Per-iteration loop control: induction increment, compare, branch. *)
