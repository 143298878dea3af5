(** Conversion of PF integer expressions to symbolic polynomials.

    The bridge the paper's aggregation relies on: "unknowns in control
    statements and array subscripts are treated as variables in the
    performance expressions" (§2). Program variables become polynomial
    variables of the same name. *)

open Pperf_symbolic

val to_poly : Ast.expr -> Poly.t option
(** [Some p] when the expression is polynomial over program variables:
    literals, variables, [+], [-], [*], non-negative integer [**], and
    division by a nonzero constant (rational coefficients, as in trip
    counts). [None] for calls, array elements, logicals, symbolic
    divisors, or a power of a sum past {!Pperf_symbolic.Interval.max_exact_pow},
    whose expansion would grow without bound. *)

val affine_of_poly : string list -> Poly.t -> (int list * Poly.t) option
(** [affine_of_poly vars p] views [p] as [sum coeffs_i * vars_i + rest]
    with integer-constant coefficients and [rest] free of [vars]; the
    subscript form the dependence tests and the cache model need. *)

val affine_in : string list -> Ast.expr -> (int list * Poly.t) option
(** {!affine_of_poly} of the expression's {!to_poly}; [None] when it is not
    polynomial. *)

val affine_hint : string list -> Ast.expr -> [ `Affine | `Not | `Unknown ]
(** Polynomial-free screen for [affine_in <> None]: a single AST walk
    that computes the exact linear coefficients of [vars] when they are
    syntactically evident. [`Affine] and [`Not] agree with [affine_in];
    [`Unknown] means the caller must fall back to the full test (e.g. a
    coefficient whose constness needs polynomial normalization). Hot
    path of the translator's per-subscript addressing test. *)

val trip_count : lo:Ast.expr -> hi:Ast.expr -> step:Ast.expr option -> Poly.t option
(** Loop trip count [(hi - lo + step) / step] for constant steps, assuming
    a non-empty loop (the paper does the same). Recognizes two
    restructuring idioms exactly: strip-mined inner loops
    [do i = s, min(s+w-1, hi)] (returns [w]) and unroll remainder loops
    [do i = hi - mod(e, f) + 1, hi] (returns the average [(f-1)/2], a
    justified bounded guess). [None] when bounds are non-polynomial or the
    step is symbolic. *)
