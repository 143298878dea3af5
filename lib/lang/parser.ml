open Lexer

exception Error of string * Srcloc.t

(* The tokens not yet consumed. The lexer ends the list with EOF, which no
   rule consumes, so it is never empty. *)
type state = { mutable toks : spanned list }

let cur st = match st.toks with t :: _ -> t | [] -> assert false
let peek_tok st = (cur st).tok
let loc st = (cur st).loc
let advance st = match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let error st msg = raise (Error (msg ^ " (got " ^ token_to_string (peek_tok st) ^ ")", loc st))

let expect st tok msg =
  if peek_tok st = tok then advance st else error st ("expected " ^ msg)

let skip_newlines st =
  while peek_tok st = NEWLINE do
    advance st
  done

let end_of_stmt st =
  match peek_tok st with
  | NEWLINE -> advance st
  | EOF -> ()
  | _ -> error st "expected end of statement"

let at_kw st kw = match peek_tok st with IDENT id -> String.equal id kw | _ -> false

let eat_kw st kw = if at_kw st kw then (advance st; true) else false

let ident st =
  match peek_tok st with
  | IDENT id -> advance st; id
  | _ -> error st "expected identifier"

(* ---- expressions ---- *)

let rec parse_or st =
  let lhs = ref (parse_and st) in
  while peek_tok st = OR do
    advance st;
    lhs := Ast.Binop (Ast.Or, !lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while peek_tok st = AND do
    advance st;
    lhs := Ast.Binop (Ast.And, !lhs, parse_not st)
  done;
  !lhs

and parse_not st =
  if peek_tok st = NOT then (
    advance st;
    Ast.Unop (Ast.Not, parse_not st))
  else parse_rel st

and parse_rel st =
  let lhs = parse_add st in
  let op =
    match peek_tok st with
    | EQ -> Some Ast.Eq | NE -> Some Ast.Ne
    | LT -> Some Ast.Lt | LE -> Some Ast.Le
    | GT -> Some Ast.Gt | GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Ast.Binop (op, lhs, parse_add st)

and parse_add st =
  let first =
    match peek_tok st with
    | MINUS -> advance st; Ast.Unop (Ast.Neg, parse_mul st)
    | PLUS -> advance st; parse_mul st
    | _ -> parse_mul st
  in
  let lhs = ref first in
  let rec loop () =
    match peek_tok st with
    | PLUS ->
      advance st;
      lhs := Ast.Binop (Ast.Add, !lhs, parse_mul st);
      loop ()
    | MINUS ->
      advance st;
      lhs := Ast.Binop (Ast.Sub, !lhs, parse_mul st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_mul st =
  let lhs = ref (parse_pow st) in
  let rec loop () =
    match peek_tok st with
    | STAR ->
      advance st;
      lhs := Ast.Binop (Ast.Mul, !lhs, parse_pow st);
      loop ()
    | SLASH ->
      advance st;
      lhs := Ast.Binop (Ast.Div, !lhs, parse_pow st);
      loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and parse_pow st =
  let base = parse_primary st in
  if peek_tok st = POW then (
    advance st;
    (* right associative; allow unary minus in exponent *)
    let exp = match peek_tok st with
      | MINUS -> advance st; Ast.Unop (Ast.Neg, parse_pow st)
      | _ -> parse_pow st
    in
    Ast.Binop (Ast.Pow, base, exp))
  else base

and parse_primary st =
  match peek_tok st with
  | INT_LIT i -> advance st; Ast.Int i
  | REAL_LIT (f, ty) -> advance st; Ast.Real (f, ty)
  | LOGICAL_LIT b -> advance st; Ast.Logical b
  | LPAREN ->
    advance st;
    let e = parse_or st in
    expect st RPAREN ")";
    e
  | IDENT id ->
    advance st;
    if peek_tok st = LPAREN then (
      advance st;
      let args = parse_args st in
      expect st RPAREN ")";
      if Intrinsics.is_intrinsic id then Ast.Call (id, args) else Ast.Index (id, args))
    else Ast.Var id
  | _ -> error st "expected expression"

and parse_args st =
  if peek_tok st = RPAREN then []
  else (
    let rec loop acc =
      let e = parse_or st in
      if peek_tok st = COMMA then (
        advance st;
        loop (e :: acc))
      else List.rev (e :: acc)
    in
    loop [])

let parse_expression = parse_or

(* ---- statements ---- *)

let parse_dtype st =
  if eat_kw st "integer" then Some Ast.Tint
  else if eat_kw st "real" then Some Ast.Treal
  else if eat_kw st "logical" then Some Ast.Tlogical
  else if at_kw st "double" then (
    advance st;
    if not (eat_kw st "precision") then error st "expected 'precision' after 'double'";
    Some Ast.Tdouble)
  else None

let parse_decl st dty =
  (* after the type keyword: name [(dims)] {"," name [(dims)]} *)
  let parse_one () =
    let dname = ident st in
    let dims =
      if peek_tok st = LPAREN then (
        advance st;
        let rec loop acc =
          let e1 = parse_expression st in
          let dim =
            if peek_tok st = COLON then (
              advance st;
              let e2 = parse_expression st in
              { Ast.dim_lo = Some e1; dim_hi = e2 })
            else { Ast.dim_lo = None; dim_hi = e1 }
          in
          if peek_tok st = COMMA then (
            advance st;
            loop (dim :: acc))
          else (
            expect st RPAREN ")";
            List.rev (dim :: acc))
        in
        loop [])
      else []
    in
    { Ast.dname; dty; dims }
  in
  let rec loop acc =
    let d = parse_one () in
    if peek_tok st = COMMA then (
      advance st;
      loop (d :: acc))
    else List.rev (d :: acc)
  in
  let ds = loop [] in
  end_of_stmt st;
  ds

let is_block_end st =
  at_kw st "end" || at_kw st "enddo" || at_kw st "endif" || at_kw st "else"
  || at_kw st "elseif" || peek_tok st = EOF

let rec parse_stmt st : Ast.stmt =
  let sloc = loc st in
  if at_kw st "do" then (
    advance st;
    let var = ident st in
    expect st ASSIGN "=";
    let lo = parse_expression st in
    expect st COMMA ",";
    let hi = parse_expression st in
    let step =
      if peek_tok st = COMMA then (
        advance st;
        Some (parse_expression st))
      else None
    in
    end_of_stmt st;
    let body = parse_body st in
    (if eat_kw st "enddo" then ()
     else if eat_kw st "end" then (
       if not (eat_kw st "do") then error st "expected 'end do'")
     else error st "expected 'enddo'");
    end_of_stmt st;
    Ast.mk ~loc:sloc (Ast.Do { var; lo; hi; step; body }))
  else if at_kw st "if" then (
    advance st;
    expect st LPAREN "(";
    let cond = parse_expression st in
    expect st RPAREN ")";
    if at_kw st "then" then (
      advance st;
      end_of_stmt st;
      let first_body = parse_body st in
      let branches = ref [ (cond, first_body) ] in
      let else_body = ref [] in
      let rec elses () =
        if eat_kw st "elseif" then else_if ()
        else if at_kw st "else" then (
          advance st;
          if eat_kw st "if" then else_if ()
          else (
            end_of_stmt st;
            else_body := parse_body st;
            close ()))
        else close ()
      and else_if () =
        expect st LPAREN "(";
        let c = parse_expression st in
        expect st RPAREN ")";
        if not (eat_kw st "then") then error st "expected 'then'";
        end_of_stmt st;
        let b = parse_body st in
        branches := (c, b) :: !branches;
        elses ()
      and close () =
        if eat_kw st "endif" then ()
        else if eat_kw st "end" then (
          if not (eat_kw st "if") then error st "expected 'end if'")
        else error st "expected 'endif'";
        end_of_stmt st
      in
      elses ();
      Ast.mk ~loc:sloc (Ast.If (List.rev !branches, !else_body)))
    else (
      (* logical if: one statement on the same line *)
      let s = parse_stmt st in
      Ast.mk ~loc:sloc (Ast.If ([ (cond, [ s ]) ], []))))
  else if at_kw st "call" then (
    advance st;
    let name = ident st in
    let args =
      if peek_tok st = LPAREN then (
        advance st;
        let a = parse_args st in
        expect st RPAREN ")";
        a)
      else []
    in
    end_of_stmt st;
    Ast.mk ~loc:sloc (Ast.Call_stmt (name, args)))
  else if at_kw st "return" then (
    advance st;
    end_of_stmt st;
    Ast.mk ~loc:sloc Ast.Return)
  else (
    (* assignment *)
    let base = ident st in
    let subs =
      if peek_tok st = LPAREN then (
        advance st;
        let a = parse_args st in
        expect st RPAREN ")";
        a)
      else []
    in
    expect st ASSIGN "=";
    let e = parse_expression st in
    end_of_stmt st;
    Ast.mk ~loc:sloc (Ast.Assign ({ base; subs }, e)))

and parse_body st =
  skip_newlines st;
  let acc = ref [] in
  while not (is_block_end st) do
    acc := parse_stmt st :: !acc;
    skip_newlines st
  done;
  List.rev !acc

(* ---- units ---- *)

let parse_params st =
  if peek_tok st = LPAREN then (
    advance st;
    if peek_tok st = RPAREN then (
      advance st;
      [])
    else (
      let rec loop acc =
        let p = ident st in
        if peek_tok st = COMMA then (
          advance st;
          loop (p :: acc))
        else (
          expect st RPAREN ")";
          List.rev (p :: acc))
      in
      loop []))
  else []

let parse_unit st : Ast.routine =
  skip_newlines st;
  let rkind, rname, params =
    if eat_kw st "program" then (Ast.Main, ident st, [])
    else if eat_kw st "subroutine" then (
      let name = ident st in
      (Ast.Subroutine, name, parse_params st))
    else (
      match parse_dtype st with
      | Some ty ->
        if not (eat_kw st "function") then error st "expected 'function' after type";
        let name = ident st in
        (Ast.Function ty, name, parse_params st)
      | None -> error st "expected 'program', 'subroutine' or a typed 'function'")
  in
  end_of_stmt st;
  skip_newlines st;
  (* declarations first *)
  let decls = ref [] in
  let continue_decls = ref true in
  while !continue_decls do
    skip_newlines st;
    (* lookahead: a type keyword followed by 'function' starts a new unit; we
       are inside a unit so that cannot happen here *)
    let save = st.toks in
    match parse_dtype st with
    | Some ty when not (at_kw st "function") -> decls := !decls @ parse_decl st ty
    | Some _ ->
      st.toks <- save;
      continue_decls := false
    | None -> continue_decls := false
  done;
  let body = parse_body st in
  if not (eat_kw st "end") then error st "expected 'end'";
  (* optional: end subroutine foo / end program / end function *)
  (if at_kw st "subroutine" || at_kw st "program" || at_kw st "function" then (
     advance st;
     match peek_tok st with IDENT _ -> advance st | _ -> ()));
  end_of_stmt st;
  { Ast.rname; rkind; params; decls = !decls; body }

let with_state src f =
  try f { toks = Lexer.tokenize src }
  with Lexer.Error (msg, l) -> raise (Error (msg, l))

let sp_parse = Pperf_obs.Obs.span "parse"

let parse_program src =
  Pperf_obs.Obs.time sp_parse (fun () ->
      with_state src (fun st ->
          let units = ref [] in
          skip_newlines st;
          while peek_tok st <> EOF do
            units := parse_unit st :: !units;
            skip_newlines st
          done;
          List.rev !units))

let parse_routine src =
  match parse_program src with
  | [ r ] -> r
  | rs -> raise (Error (Printf.sprintf "expected exactly one unit, found %d" (List.length rs), Srcloc.dummy))

let parse_stmts src =
  with_state src (fun st ->
      let body = parse_body st in
      (match peek_tok st with
       | EOF -> ()
       | _ -> error st "unexpected token after statements");
      body)

let parse_expr src =
  with_state src (fun st ->
      skip_newlines st;
      let e = parse_expression st in
      skip_newlines st;
      (match peek_tok st with
       | EOF -> ()
       | _ -> error st "unexpected token after expression");
      e)
