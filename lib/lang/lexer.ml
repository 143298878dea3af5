type token =
  | IDENT of string
  | INT_LIT of int
  | REAL_LIT of float * Ast.dtype
  | LOGICAL_LIT of bool
  | PLUS | MINUS | STAR | SLASH | POW
  | LPAREN | RPAREN | COMMA | COLON
  | ASSIGN
  | EQ | NE | LT | LE | GT | GE
  | AND | OR | NOT
  | NEWLINE
  | EOF

type spanned = { tok : token; loc : Srcloc.t }

exception Error of string * Srcloc.t

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

let dot_word = function
  | "and" -> Some AND | "or" -> Some OR | "not" -> Some NOT
  | "true" -> Some (LOGICAL_LIT true) | "false" -> Some (LOGICAL_LIT false)
  | "eq" -> Some EQ | "ne" -> Some NE | "lt" -> Some LT | "le" -> Some LE
  | "gt" -> Some GT | "ge" -> Some GE
  | _ -> None

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let line = ref 1 in
  let bol = ref 0 in
  let out = ref [] in
  (* a token's location is its first character, on the current line *)
  let loc_at p = Srcloc.make !line (p - !bol + 1) in
  let error_at p msg = raise (Error (msg, loc_at p)) in
  let error msg = error_at !pos msg in
  let push_at p tok = out := { tok; loc = loc_at p } :: !out in
  let push tok = push_at !pos tok in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let newline () =
    (* collapse consecutive newlines *)
    (match !out with
     | { tok = NEWLINE; _ } :: _ | [] -> ()
     | _ -> push NEWLINE);
    incr pos;
    incr line;
    bol := !pos
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '\n' then newline ()
    else if c = '!' then (
      while !pos < n && src.[!pos] <> '\n' do incr pos done)
    else if c = ';' then (
      (match !out with { tok = NEWLINE; _ } :: _ | [] -> () | _ -> push NEWLINE);
      incr pos)
    else if c = '&' then (
      (* continuation: skip to beyond the next newline without emitting one *)
      incr pos;
      while !pos < n && src.[!pos] <> '\n' do
        match src.[!pos] with
        | ' ' | '\t' | '\r' -> incr pos
        | '!' ->
          while !pos < n && src.[!pos] <> '\n' do
            incr pos
          done
        | _ -> error "only a comment may follow a continuation '&'"
      done;
      if !pos < n then (
        incr pos;
        incr line;
        bol := !pos))
    else if is_digit c then (
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do incr pos done;
      (* a '.' begins a fraction only if NOT followed by a letter (else it is
         a dotted operator as in [1 .eq. 2] written [1.eq.2]) *)
      let is_fraction =
        !pos < n && src.[!pos] = '.'
        && (match peek 1 with Some ch when is_alpha ch -> false | _ -> true)
      in
      if is_fraction then (
        incr pos;
        while !pos < n && is_digit src.[!pos] do incr pos done);
      let has_exp, dbl =
        match if !pos < n then Some (Char.lowercase_ascii src.[!pos]) else None with
        | Some 'e' -> (true, false)
        | Some 'd' -> (true, true)
        | _ -> (false, false)
      in
      if has_exp then (
        incr pos;
        (match peek 0 with Some ('+' | '-') -> incr pos | _ -> ());
        if not (!pos < n && is_digit src.[!pos]) then error "malformed exponent";
        while !pos < n && is_digit src.[!pos] do incr pos done);
      let text = String.sub src start (!pos - start) in
      if is_fraction || has_exp then (
        let text = String.map (fun c -> if c = 'd' || c = 'D' then 'e' else c) text in
        match float_of_string_opt text with
        | Some f -> push_at start (REAL_LIT (f, if dbl then Ast.Tdouble else Ast.Treal))
        | None -> error_at start ("malformed real literal " ^ text))
      else (
        match int_of_string_opt text with
        | Some i -> push_at start (INT_LIT i)
        | None -> error_at start ("malformed integer literal " ^ text)))
    else if is_alpha c then (
      let start = !pos in
      while !pos < n && is_alnum src.[!pos] do incr pos done;
      push_at start (IDENT (String.lowercase_ascii (String.sub src start (!pos - start)))))
    else if c = '.' then (
      (* dotted operator .and. etc., or a leading-dot real like .5 *)
      if (match peek 1 with Some d when is_digit d -> true | _ -> false) then (
        let start = !pos in
        incr pos;
        while !pos < n && is_digit src.[!pos] do incr pos done;
        let text = String.sub src start (!pos - start) in
        push_at start (REAL_LIT (float_of_string text, Ast.Treal)))
      else (
        let start = !pos + 1 in
        let e = ref start in
        while !e < n && is_alpha src.[!e] do incr e done;
        if !e < n && src.[!e] = '.' then (
          let word = String.lowercase_ascii (String.sub src start (!e - start)) in
          match dot_word word with
          | Some tok ->
            push tok;
            pos := !e + 1
          | None -> error ("unknown dotted operator ." ^ word ^ "."))
        else error "stray '.'"))
    else (
      let next = if !pos + 1 < n then src.[!pos + 1] else ' ' in
      let tok, len =
        match (c, next) with
        | '*', '*' -> (POW, 2)
        | '=', '=' -> (EQ, 2)
        | '/', '=' -> (NE, 2)
        | '<', '=' -> (LE, 2)
        | '>', '=' -> (GE, 2)
        | '+', _ -> (PLUS, 1)
        | '-', _ -> (MINUS, 1)
        | '*', _ -> (STAR, 1)
        | '/', _ -> (SLASH, 1)
        | '(', _ -> (LPAREN, 1)
        | ')', _ -> (RPAREN, 1)
        | ',', _ -> (COMMA, 1)
        | ':', _ -> (COLON, 1)
        | '=', _ -> (ASSIGN, 1)
        | '<', _ -> (LT, 1)
        | '>', _ -> (GT, 1)
        | _ -> error (Printf.sprintf "unexpected character %C" c)
      in
      push tok;
      pos := !pos + len)
  done;
  (match !out with { tok = NEWLINE; _ } :: _ | [] -> () | _ -> push NEWLINE);
  push EOF;
  List.rev !out

let token_to_string = function
  | IDENT s -> s
  | INT_LIT i -> string_of_int i
  | REAL_LIT (f, _) -> string_of_float f
  | LOGICAL_LIT b -> if b then ".true." else ".false."
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | POW -> "**"
  | LPAREN -> "(" | RPAREN -> ")" | COMMA -> "," | COLON -> ":"
  | ASSIGN -> "="
  | EQ -> "==" | NE -> "/=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | AND -> ".and." | OR -> ".or." | NOT -> ".not."
  | NEWLINE -> "<newline>"
  | EOF -> "<eof>"
