(** Hand-written lexer for PF source (menhir/ocamllex are not available in
    the sealed build environment, and the language is small). *)

type token =
  | IDENT of string  (** lowercased; keywords are resolved by the parser *)
  | INT_LIT of int
  | REAL_LIT of float * Ast.dtype  (** [d] exponents give [Tdouble] *)
  | LOGICAL_LIT of bool
  | PLUS | MINUS | STAR | SLASH | POW
  | LPAREN | RPAREN | COMMA | COLON
  | ASSIGN  (** [=] *)
  | EQ | NE | LT | LE | GT | GE
  | AND | OR | NOT
  | NEWLINE
  | EOF

type spanned = { tok : token; loc : Srcloc.t }

exception Error of string * Srcloc.t

val tokenize : string -> spanned list
(** Comments ([!] to end of line), blank lines, and [&] continuations are
    handled here; consecutive separators are collapsed to one [NEWLINE].
    The list ends with [EOF]. It is not copied into an array: an array of
    more than 256 tokens goes straight to the major heap, and creating it
    forces a minor collection that promotes every token.
    @raise Error on an unrecognizable character sequence. *)

val token_to_string : token -> string
