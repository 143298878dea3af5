(** Communication cost model for distributed-memory targets.

    The paper routes "message passing instructions ... along with the
    sequential cost estimation to the communication cost module"; its model
    is the parameterized static predictor of Wang–Houstis [19]. We
    implement the standard alpha–beta formulation: a message of [b] bytes
    costs [alpha + beta*b] cycles, and collective patterns cost their
    textbook message counts. Costs are symbolic polynomials over the
    problem unknowns (e.g. [n]) and the processor count [p] — one more
    place where the framework delays guessing unknowns.

    Pattern recognition inspects HPF-like array layouts: for an assignment
    whose right-hand side reads a distributed array at an offset in the
    distributed dimension, a [Shift] boundary exchange is charged; reads
    with a non-aligned distributed index are [Gather]; reductions and
    broadcasts map to their collectives. *)

open Pperf_symbolic
open Pperf_lang
open Pperf_machine

type distribution = Block | Cyclic | Replicated | Collapsed
(** Per-dimension HPF distribution; [Collapsed] = not distributed. *)

type layout = { ldist : distribution list  (** one per array dimension *) }

type layouts = (string * layout) list

type pattern =
  | Shift of { offset : int; bytes_per_proc : Poly.t }
      (** nearest-neighbour boundary exchange *)
  | Broadcast of { bytes : Poly.t }
  | Reduce of { bytes : Poly.t }
  | Gather of { bytes_per_proc : Poly.t }  (** unstructured: all-to-all *)
  | Local  (** no communication *)

type event = { array : string; pattern : pattern; at : Srcloc.t }

(** {1 Cost primitives} *)

val message : Machine.comm_params -> bytes:Poly.t -> Poly.t
(** [alpha + beta * bytes], beta rounded to a rational. *)

val pattern_cost : Machine.comm_params -> pattern -> Poly.t
(** Cycles charged to the critical path:
    shift = 2 messages; broadcast/reduce = ceil(log2 p) messages of the
    payload; gather = (p-1) messages per processor. *)

(** {1 Recognition over a loop nest} *)

val analyze_nest :
  comm:Machine.comm_params ->
  symtab:Typecheck.symtab ->
  layouts:layouts ->
  Analysis.loop_ctx list ->
  Ast.stmt list ->
  event list

val nest_cost :
  comm:Machine.comm_params ->
  symtab:Typecheck.symtab ->
  layouts:layouts ->
  Analysis.loop_ctx list ->
  Ast.stmt list ->
  Poly.t

(** {1 Validation: a message-counting simulator} *)

module Sim : sig
  val count_messages :
    ?on_diag:(Pperf_lint.Diagnostic.t -> unit) ->
    comm:Machine.comm_params ->
    symtab:Typecheck.symtab ->
    layouts:layouts ->
    bounds:(string -> int) ->
    Analysis.loop_ctx list ->
    Ast.stmt list ->
    int * int
  (** [(messages, bytes)] actually exchanged when the nest runs under
      {!Pperf_lang.Analysis.run_nest} and every non-local element read is
      fetched from its owner (owner-computes rule), with one message per
      (source, destination, array) per iteration of a top-level loop — the
      standard compilation model the static formulas approximate.

      A subscript or loop bound that does not evaluate to an integer is
      skipped rather than aborting the count; one [Precision] diagnostic
      per source location goes to [on_diag] (dropped by default). *)
end
