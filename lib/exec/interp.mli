(** A PF interpreter with cost accounting and profiling.

    Two of the paper's needs require actually running programs:

    - {b profiling} (§3.4): "Profiling can be used to eliminate some
      variables that result from unknown values in the control structures
      (such as the branching probabilities of conditional statements)";
    - {b validation}: a dynamic reference for the symbolic predictions —
      the interpreter walks the real execution path and charges each block
      {!Pperf_core.Aggregate}'s cost for it in its loop context: each
      straight-line run per execution (its hoisted part once per loop
      activation), each loop entry its bound evaluation, each iteration no
      run absorbs its loop control, each executed [if] its conditions and
      the taken branch's penalty. Each block is costed once per run. What
      the interpreter checks is the composition: trip counts, the branches
      taken, hoisting once per entry. Evaluating the static performance
      expression at the actual parameter values should agree with this
      accumulation (exactly, when control flow does not depend on data;
      through measured probabilities otherwise).

    Arrays are dense column-major floats/ints; intrinsics are evaluated
    natively; calls resolve to other routines of the same program.

    Cost and profile caches are keyed by statement source locations, so
    the routine must carry distinct locations per statement — anything
    produced by {!Pperf_lang.Parser} qualifies; hand-built ASTs should be
    printed and re-parsed first. *)

open Pperf_lang
open Pperf_machine

type value = VInt of int | VReal of float | VLog of bool

exception Runtime_error of string * Srcloc.t

module Profile : sig
  type t

  val empty : unit -> t

  val branch_prob : t -> Srcloc.t -> Pperf_symbolic.Poly.t option
  (** Measured probability of the first branch of the [if] at this
      location, as a constant polynomial — plugs directly into
      {!Pperf_core.Aggregate.options.branch_prob}. *)

  val branch_counts : t -> (Srcloc.t * int array) list
  (** Per [if]: how often each branch (else last) was taken. *)

  val trip_counts : t -> (Srcloc.t * int * int) list
  (** Per [do]: (location, entries, total iterations). *)

  val pp : Format.formatter -> t -> unit
end

type result = {
  cycles : float;  (** machine cycles accumulated along the execution *)
  profile : Profile.t;
  return_value : value option;  (** for functions *)
  scalars : (string * value) list;  (** final scalar bindings *)
}

val run :
  machine:Machine.t ->
  ?options:Pperf_core.Aggregate.options ->
  ?args:(string * value) list ->
  ?program:Typecheck.checked list ->
  Typecheck.checked ->
  result
(** [run ~machine checked] interprets the routine. Integer parameters not
    supplied in [args] default to 10; reals to 1.0. Arrays are allocated
    from their declarations (symbolic extents evaluated under the scalar
    bindings) and zero-initialized. [program] supplies callee routines for
    [call] statements and user function calls.

    @raise Runtime_error on out-of-bounds accesses, missing routines,
    division by zero, non-terminating suspicion (iteration budget), a frame
    whose arrays would take the run past 50,000,000 elements over all its
    frames (checked before any is allocated), or calls nested past 1,000. *)

val split_program : Typecheck.checked list -> Typecheck.checked * Typecheck.checked list
(** The unit a run interprets (the first) and its callees (the rest).
    @raise Failure on an empty program. *)

val run_source :
  machine:Machine.t ->
  ?options:Pperf_core.Aggregate.options ->
  ?args:(string * value) list ->
  string ->
  result
(** Parse, check and {!run} the source's units as {!split_program}
    divides them. *)
