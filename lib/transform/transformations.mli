(** Restructuring transformations over PF loops, with dependence-based
    legality checks.

    These are the "sequence of restructuring transformations" whose
    performance trade-offs the paper's framework exists to evaluate
    (§1, §3.2). Each returns [None] when illegal or inapplicable, so the
    search layer can enumerate blindly. *)

open Pperf_lang

type path = int list
(** Position of a statement: indices into nested statement lists, where an
    [If] statement's branches are numbered in order and the else branch
    comes last. *)

val loops_in : Ast.routine -> (path * Ast.do_loop) list
(** All [do] loops with their paths, outermost first. *)

val stmt_at : Ast.routine -> path -> Ast.stmt option
val replace_at : Ast.routine -> path -> Ast.stmt list -> Ast.routine option
(** Replace the statement at [path] by a list of statements. *)

(** {1 Transformations} *)

val unroll : factor:int -> Ast.do_loop -> Ast.stmt list option
(** Unroll by [factor] (legal for any loop with step 1): main loop with
    step [factor] and replicated body, plus a remainder loop. *)

val unroll_exact : factor:int -> Ast.do_loop -> Ast.stmt list option
(** Like {!unroll} but only when the trip count is a known constant
    divisible by [factor] — no remainder loop. *)

val interchange : Ast.do_loop -> Ast.stmt list option
(** Swap the outer two loops of a perfect nest; checked against (<,>)
    direction vectors. *)

val strip_mine : width:int -> Ast.do_loop -> Ast.stmt list option
(** Always legal: [do i] becomes [do is] by [width] over [do i]. *)

val tile2 : width:int -> Ast.do_loop -> Ast.stmt list option
(** Tile the outer two loops of a perfect nest (strip-mine both +
    interchange); requires interchange legality. *)

val distribute : Ast.do_loop -> Ast.stmt list option
(** Split a two-or-more statement loop body into consecutive loops at the
    first legal split point. *)

val fuse : Ast.do_loop -> Ast.do_loop -> Ast.stmt list option
(** Fuse two adjacent loops with syntactically equal headers; conservative
    dependence check. *)

val reverse : Ast.do_loop -> Ast.stmt list option
(** Run the loop backwards ([do i = hi, lo, -1]); legal only when the loop
    carries no dependence. *)

val pp_path : Format.formatter -> path -> unit
