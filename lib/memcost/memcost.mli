(** Memory access cost (§2.3): cache lines, TLB, page faults.

    "The total number of cache line accesses is counted and the cost of
    filling these cache lines is used to approximate the memory cost",
    following Ferrante–Sarkar–Thrash [8]. The count is computed
    {e symbolically} over the loop-nest trip counts, so blocked and
    unblocked variants can be compared without knowing the array sizes —
    one of the paper's showcased benefits of symbolic processing (§3.3.1:
    blocking changes the cache expression, not the straight-line cost).

    References are grouped into {e uniformly generated} classes (same
    linear part, constant offset difference): the members of a class walk
    the same line stream and are counted once. *)

open Pperf_symbolic
open Pperf_lang
open Pperf_machine

type ref_group = {
  array : string;
  leader : Analysis.array_ref;
  members : int;  (** references sharing this line stream *)
  elements : Poly.t;  (** distinct elements touched over the nest *)
  lines : Poly.t;  (** distinct cache lines fetched over the nest *)
  min_stride_bytes : int option;
      (** constant byte stride of the innermost varying loop, when known *)
}

val analyze_nest :
  ?bounds:(string -> int) ->
  machine:Machine.t ->
  symtab:Typecheck.symtab ->
  Analysis.loop_ctx list ->
  Ast.stmt list ->
  ref_group list
(** Loops outermost first; trip counts may be symbolic. When [bounds]
    provides concrete values for the unknowns, line reuse across outer
    loops is credited whenever the inner sub-nest's lines provably survive
    in the cache (capacity and set-conflict checked); without [bounds]
    only the innermost streak shares lines — conservative but fully
    symbolic. *)

val nest_cost :
  ?bounds:(string -> int) ->
  machine:Machine.t ->
  symtab:Typecheck.symtab ->
  Analysis.loop_ctx list ->
  Ast.stmt list ->
  Poly.t
(** Total memory cycles: [sum lines * miss_cycles], plus a TLB term when
    page-grained strides are recognizable. *)

val footprint_bytes :
  machine:Machine.t ->
  symtab:Typecheck.symtab ->
  Analysis.loop_ctx list ->
  Ast.stmt list ->
  Poly.t
(** Distinct bytes touched — compare against the cache size to decide
    whether a blocking transformation pays off. *)

(** {1 Validation: a direct set-associative LRU cache simulator} *)

module Sim : sig
  type t

  val create : Machine.cache_params -> t

  val access : t -> int -> bool
  (** [access t byte_addr] returns [true] on a miss. *)

  val misses : t -> int
  val accesses : t -> int

  val run_nest :
    ?on_diag:(Pperf_lint.Diagnostic.t -> unit) ->
    machine:Machine.t ->
    symtab:Typecheck.symtab ->
    bounds:(string -> int) ->
    Analysis.loop_ctx list ->
    Ast.stmt list ->
    int * int
  (** Run the nest with {!Pperf_lang.Analysis.run_nest} under concrete
      bounds, simulate every array access (reads, then the write) in
      column-major layout at disjoint array bases, and return
      [(misses, accesses)]. Exponential in principle — use small bounds.

      A subscript or loop bound that does not evaluate to an integer
      (a real-typed expression, an unknown intrinsic) does not abort the
      simulation: the offending reference or loop is skipped and one
      [Precision] diagnostic per source location is passed to [on_diag]
      (dropped by default). *)
end
