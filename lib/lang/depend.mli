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
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  Analysis.nest_ref ->
  Analysis.nest_ref ->
  direction list list
(** All direction vectors (outermost first) of two entries of one table
    over their common loops (the longest prefix of their loops whose
    names agree) that the tests could not disprove; empty = independent.

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
    translator's renaming/reduction logic). The fragment gets a table of
    its own ({!Analysis.nests}), so each reference's subscripts are
    converted once, not once per pair, and each loop's constant bounds
    once per call. Each pair tested counts once in [depend.pairs]. *)

val dependences_among :
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  ?flow_only:bool ->
  (Analysis.nest_ref * int) array ->
  dependence list
(** {!dependences_in} of a fragment of a table's statements, given by its
    references, each with how many of its entry's loops enclose the
    fragment ({!Analysis.loop_refs}, {!Analysis.innermost_refs}); the
    dependences name the table's references. [flow_only] (default false)
    tests only the pairs of a write and a read, so the result holds
    exactly the {!Flow} and {!Anti} dependences: the {!Output} ones
    between two writes are not sought. *)

val carried_dependences :
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  ?nests:Analysis.nests ->
  Ast.do_loop ->
  dependence list
(** Dependences carried by this loop (direction [Lt] or [Gt] at its
    level). [nests] is the table of the statements holding the loop
    ({!Analysis.loop_refs}); without it the loop gets a table of its
    own. *)

val interchange_legal :
  ?env:Pperf_symbolic.Interval.Env.t ->
  ?oracle:(Pperf_symbolic.Poly.t -> Pperf_symbolic.Interval.t) ->
  ?nests:Analysis.nests ->
  Ast.do_loop ->
  bool
(** True when the outer two loops of the (perfect) nest can be swapped:
    no dependence with direction (<, >). [nests] as for
    {!carried_dependences}. *)

val pp_dependence : Format.formatter -> dependence -> unit
val direction_to_string : direction -> string
val kind_to_string : dep_kind -> string
