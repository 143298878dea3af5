(** Data-dependence testing for array references in loop nests.

    Classic PLDI-era machinery: subscript-wise GCD and Banerjee tests over
    affine subscripts, refined into direction vectors by hierarchical
    testing. Used to gate restructuring transformations (legality) and to
    derive loop-carried dependences for the scheduler's iteration-overlap
    estimates. Conservative: anything non-affine or symbolic beyond the
    loop indices is assumed dependent. *)

type direction = Lt  (** carried forward ( < ) *) | Eq | Gt  (** ( > ) *)

type dep_kind =
  | Flow
  | Anti
  | Output
  | Input  (** read-read pair; never constrains legality, filtered by
               {!dependences_in} *)

type dependence = {
  kind : dep_kind;
  directions : direction list;  (** one per common loop, outermost first *)
  src : Analysis.array_ref;
  dst : Analysis.array_ref;
}

val classify : Analysis.array_ref -> Analysis.array_ref -> dep_kind
(** Total over the four write/read combinations; read-read is {!Input}. *)

(** Subscript-by-subscript GCD + Banerjee disproof attempt, any direction. *)

val directions :
  common:Analysis.loop_ctx list ->
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  Analysis.array_ref ->
  Analysis.array_ref ->
  direction list list
(** All direction vectors (outermost first) that the tests could not
    disprove; empty = independent.

    The optional [env] supplies variable ranges (from the interval abstract
    interpretation) and must only bind variables that are invariant over
    the analyzed fragment. It strengthens the tests three ways: symbolic
    loop bounds collapse to integer enclosures for Banerjee, a symbolic
    subscript difference pinned to a point becomes testable, and references
    whose subscript ranges cannot overlap are proved independent.

    The optional [oracle] must return a sound enclosure of any polynomial
    (typically relational abstract-domain facts over subscript pairs); it
    sharpens the same places [env] does, e.g. deciding [a(i+m)] vs
    [a(i+2*n)] under the coupling [m = 2*n]. *)

val dependences_in :
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  Ast.stmt list ->
  dependence list
(** All pairwise dependences among array references of the fragment that
    share an array and include a write ({!Input} pairs are filtered here),
    classified by kind. Scalars are ignored here (handled by the
    translator's renaming/reduction logic). *)

val carried_dependences :
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  Ast.do_loop ->
  dependence list
(** Dependences carried by this loop (direction [Lt] or [Gt] at its
    level). *)

val interchange_legal :
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  Ast.do_loop ->
  bool
(** True when the outer two loops of the (perfect) nest can be swapped:
    no dependence with direction (<, >). *)

val pp_dependence : Format.formatter -> dependence -> unit
val direction_to_string : direction -> string
val kind_to_string : dep_kind -> string
