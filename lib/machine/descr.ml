exception Parse_error of string

(* ---- a tiny S-expression reader; every node carries its source line ---- *)

type sexp = Atom of string * int | List of sexp list * int

let sexp_line = function Atom (_, l) | List (_, l) -> l
let err line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg))

let parse_sexp (s : string) : sexp =
  let n = String.length s in
  let pos = ref 0 in
  let line = ref 1 in
  let error msg = err !line msg in
  let rec skip_ws () =
    if !pos < n then (
      match s.[!pos] with
      | ' ' | '\t' | '\r' -> incr pos; skip_ws ()
      | '\n' -> incr line; incr pos; skip_ws ()
      | ';' ->
        while !pos < n && s.[!pos] <> '\n' do incr pos done;
        skip_ws ()
      | _ -> ())
  in
  let atom () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
          | _ -> true)
    do
      incr pos
    done;
    if !pos = start then error "expected atom";
    Atom (String.sub s start (!pos - start), !line)
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then error "unexpected end of input";
    if s.[!pos] = '(' then (
      let open_line = !line in
      incr pos;
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        if !pos >= n then err open_line "unterminated list";
        if s.[!pos] = ')' then incr pos
        else (
          items := value () :: !items;
          loop ())
      in
      loop ();
      List (List.rev !items, open_line))
    else if s.[!pos] = ')' then error "unexpected )"
    else atom ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then error "trailing input after machine description";
  v

(* ---- interpretation ---- *)

let as_atom = function Atom (a, _) -> a | List (_, l) -> err l "expected atom"

let as_int sx =
  let a = as_atom sx in
  match int_of_string_opt a with
  | Some i -> i
  | None -> err (sexp_line sx) ("expected integer, got " ^ a)

let as_bool sx =
  match as_atom sx with
  | "true" -> true
  | "false" -> false
  | a -> err (sexp_line sx) ("expected bool, got " ^ a)

let field name fields =
  List.find_map
    (function
      | List (Atom (key, _) :: rest, l) when String.equal key name -> Some (l, rest)
      | _ -> None)
    fields

let field_exn ~line name fields =
  match field name fields with
  | Some v -> v
  | None -> err line ("missing field " ^ name)

let int_field name default fields =
  match field name fields with
  | Some (_, [ v ]) -> as_int v
  | Some (l, _) -> err l ("field " ^ name ^ " expects a single integer")
  | None -> default

let no_duplicates what entries =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, line) ->
      (match Hashtbl.find_opt seen name with
       | Some first ->
         err line
           (Printf.sprintf "duplicate %s %s (first defined at line %d)" what name first)
       | None -> ());
      Hashtbl.add seen name line)
    entries

(* ---- classic (v1) dialect: (units ...) + (atomics (op (UNIT nc cv)...)) ---- *)

let classic_of_fields ~line ~name ~cache ~comm ~has_fma fields =
  let units =
    let _, us = field_exn ~line "units" fields in
    List.map
      (function
        | List ([ Atom (uname, _); Atom (kind, _) ], l) ->
          (uname, Funit.kind_of_string kind, l)
        | sx -> err (sexp_line sx) "unit entries must be (NAME kind)")
      us
  in
  no_duplicates "unit" (List.map (fun (u, _, l) -> (u, l)) units);
  let unit_index = List.mapi (fun i (uname, _, _) -> (uname, i)) units in
  let resolve_unit sx =
    let u = as_atom sx in
    match List.assoc_opt u unit_index with
    | Some i -> i
    | None -> err (sexp_line sx) ("unknown unit in atomic op: " ^ u)
  in
  let atomics =
    let _, ops = field_exn ~line "atomics" fields in
    List.map
      (function
        | List (Atom (opname, l) :: comps, _) ->
          let cost sx =
            let c = as_int sx in
            if c < 0 then err (sexp_line sx) ("negative cost in op " ^ opname);
            c
          in
          let seen = Hashtbl.create 4 in
          ( (opname, l),
            List.map
              (function
                | List ([ u; nc; cv ], _) ->
                  let i = resolve_unit u in
                  if Hashtbl.mem seen i then
                    err (sexp_line u) (Printf.sprintf "op %s names unit %s twice" opname (as_atom u));
                  Hashtbl.add seen i ();
                  (i, cost nc, cost cv)
                | sx -> err (sexp_line sx) ("bad component in op " ^ opname))
              comps )
        | sx -> err (sexp_line sx) "atomic entries must be (name (UNIT nc cv) ...)")
      ops
  in
  no_duplicates "atomic op" (List.map fst atomics);
  Machine.make ~name
    ~units:(List.map (fun (u, k, _) -> (u, k)) units)
    ~atomics:(List.map (fun ((n, _), comps) -> (n, comps)) atomics)
    ~issue_width:(int_field "issue-width" 4 fields)
    ~branch_taken_cycles:(int_field "branch-taken-cycles" 3 fields)
    ~register_load_limit:(int_field "register-load-limit" 24 fields)
    ~has_fma ~cache ?comm ()

(* ---- ports (v2) dialect: (model ports) + (ports p0 p1 ...) +
        (atomics (op (latency n) (uops (p0|p1 count) ...))) ---- *)

let split_ports sx =
  let a = as_atom sx in
  let parts = String.split_on_char '|' a in
  if List.exists (fun p -> p = "") parts then
    err (sexp_line sx) ("malformed port set " ^ a);
  parts

let ports_of_fields ~line ~name ~cache ~comm ~has_fma fields =
  let ports =
    let l, ps = field_exn ~line "ports" fields in
    if ps = [] then err l "ports machine declares no ports";
    List.map (fun sx -> (as_atom sx, sexp_line sx)) ps
  in
  no_duplicates "port" ports;
  let port_names = List.map fst ports in
  let known p = List.mem p port_names in
  let atomics =
    let _, ops = field_exn ~line "atomics" fields in
    List.map
      (function
        | List (Atom (opname, l) :: body, _) ->
          let uops =
            let ul, us = field_exn ~line:l "uops" body in
            if us = [] then err ul ("op " ^ opname ^ " lists no uops");
            List.map
              (function
                | List ([ pset; count ], _) ->
                  let names = split_ports pset in
                  List.iter
                    (fun p ->
                      if not (known p) then
                        err (sexp_line pset)
                          ("unknown port in op " ^ opname ^ ": " ^ p))
                    names;
                  let c = as_int count in
                  if c < 0 then err (sexp_line count) ("negative uop count in op " ^ opname);
                  (names, c)
                | sx -> err (sexp_line sx) ("bad uop group in op " ^ opname))
              us
          in
          let latency =
            match field "latency" body with
            | Some (_, [ v ]) ->
              let lat = as_int v in
              if lat < 0 then err (sexp_line v) ("negative latency in op " ^ opname);
              lat
            | Some (ll, _) -> err ll ("field latency expects a single integer in op " ^ opname)
            | None -> max 1 (List.fold_left (fun acc (_, c) -> acc + c) 0 uops)
          in
          ((opname, l), latency, uops)
        | sx -> err (sexp_line sx) "atomic entries must be (name (latency n) (uops ...))")
      ops
  in
  no_duplicates "atomic op" (List.map (fun (nl, _, _) -> nl) atomics);
  Machine.make_ports ~name ~ports:port_names
    ~atomics:(List.map (fun ((n, _), lat, uops) -> (n, lat, uops)) atomics)
    ~issue_width:(int_field "issue-width" 4 fields)
    ~branch_taken_cycles:(int_field "branch-taken-cycles" 3 fields)
    ~register_load_limit:(int_field "register-load-limit" 24 fields)
    ~has_fma ~cache ?comm ()

let of_string str =
  match parse_sexp str with
  | List (Atom ("machine", _) :: fields, line) ->
    let name =
      match field_exn ~line "name" fields with
      | _, [ v ] -> as_atom v
      | l, _ -> err l "field name expects a single atom"
    in
    let cache =
      match field "cache" fields with
      | None -> Machine.default_cache
      | Some (_, cfields) ->
        {
          Machine.line_bytes = int_field "line-bytes" Machine.default_cache.line_bytes cfields;
          cache_bytes = int_field "cache-bytes" Machine.default_cache.cache_bytes cfields;
          associativity = int_field "associativity" Machine.default_cache.associativity cfields;
          miss_cycles = int_field "miss-cycles" Machine.default_cache.miss_cycles cfields;
          tlb_entries = int_field "tlb-entries" Machine.default_cache.tlb_entries cfields;
          page_bytes = int_field "page-bytes" Machine.default_cache.page_bytes cfields;
          tlb_miss_cycles = int_field "tlb-miss-cycles" Machine.default_cache.tlb_miss_cycles cfields;
        }
    in
    let comm =
      match field "comm" fields with
      | None -> None
      | Some (_, cfields) ->
        Some
          {
            Machine.processors = int_field "processors" 1 cfields;
            startup_cycles = int_field "startup-cycles" 1000 cfields;
            per_byte_cycles =
              (match field "per-byte-cycles" cfields with
               | Some (_, [ v ]) ->
                 let a = as_atom v in
                 (match float_of_string_opt a with
                  | Some f -> f
                  | None -> err (sexp_line v) ("expected number, got " ^ a))
               | _ -> 1.0);
          }
    in
    let has_fma = match field "fma" fields with Some (_, [ v ]) -> as_bool v | _ -> false in
    let model =
      match field "model" fields with
      | None -> Costmodel.Classic
      | Some (l, [ v ]) ->
        (match Costmodel.kind_of_string (as_atom v) with
         | Some k -> k
         | None -> err l ("unknown cost model " ^ as_atom v))
      | Some (l, _) -> err l "field model expects a single atom"
    in
    (match model with
     | Costmodel.Classic -> classic_of_fields ~line ~name ~cache ~comm ~has_fma fields
     | Costmodel.Ports -> ports_of_fields ~line ~name ~cache ~comm ~has_fma fields)
  | sx -> err (sexp_line sx) "expected (machine ...)"

let to_string (m : Machine.t) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "(machine (name %s)\n" m.name;
  (match Machine.model m with
   | Costmodel.Classic -> ()
   | Costmodel.Ports -> pf "  (model ports)\n");
  pf "  (issue-width %d)\n" m.issue_width;
  pf "  (branch-taken-cycles %d)\n" m.branch_taken_cycles;
  pf "  (register-load-limit %d)\n" m.register_load_limit;
  pf "  (fma %b)\n" m.has_fma;
  (match Machine.model m with
   | Costmodel.Classic ->
     pf "  (units";
     Machine.iter_units
       (fun (u : Funit.t) -> pf " (%s %s)" u.name (Funit.kind_to_string u.kind))
       m;
     pf ")\n  (atomics\n";
     let ops =
       List.sort compare
         (Machine.fold_atomics (fun k v acc -> (k, v) :: acc) m [])
     in
     List.iter
       (fun (opname, (op : Atomic_op.t)) ->
         pf "    (%s" opname;
         List.iter
           (fun (c : Atomic_op.component) ->
             pf " (%s %d %d)" (Machine.unit_at m c.unit_id).Funit.name c.noncoverable
               c.coverable)
           op.components;
         pf ")\n")
       ops
   | Costmodel.Ports ->
     pf "  (ports";
     Machine.iter_units (fun (u : Funit.t) -> pf " %s" u.name) m;
     pf ")\n  (atomics\n";
     let ops =
       List.sort compare
         (Machine.fold_atomics (fun k v acc -> (k, v) :: acc) m [])
     in
     List.iter
       (fun (opname, (op : Atomic_op.t)) ->
         pf "    (%s (latency %d) (uops" opname (Atomic_op.result_latency op);
         List.iter
           (fun (g : Costmodel.uop_group) ->
             let names =
               List.map (fun id -> (Machine.unit_at m id).Funit.name) g.eligible
             in
             pf " (%s %d)" (String.concat "|" names) g.count)
           (Costmodel.groups_of_op op);
         pf "))\n")
       ops);
  pf "  )\n";
  pf "  (cache (line-bytes %d) (cache-bytes %d) (associativity %d) (miss-cycles %d)\n"
    m.cache.line_bytes m.cache.cache_bytes m.cache.associativity m.cache.miss_cycles;
  pf "         (tlb-entries %d) (page-bytes %d) (tlb-miss-cycles %d))\n" m.cache.tlb_entries
    m.cache.page_bytes m.cache.tlb_miss_cycles;
  (match m.comm with
   | Some c ->
     pf "  (comm (processors %d) (startup-cycles %d) (per-byte-cycles %g))\n" c.processors
       c.startup_cycles c.per_byte_cycles
   | None -> ());
  pf ")\n";
  Buffer.contents b

(* ---- the shipped machines ---- *)

(* A builtin is its machines/NAME.pmach text, parsed on first use and
   shared from then on: the memos derived from a machine key it by
   physical identity, so every lookup must give the one value. Worker
   domains may look one up at once, and Lazy.force raises when two
   domains force one value, hence the lock. *)
type builtin = { names : string list; text : string; mutable parsed : Machine.t option }

let builtins =
  List.map
    (fun (names, text) -> { names; text; parsed = None })
    [ ([ "power1" ], Pmach_text.power1); ([ "power1x2" ], Pmach_text.power1x2);
      ([ "alpha21064"; "alpha" ], Pmach_text.alpha21064); ([ "scalar" ], Pmach_text.scalar) ]

let builtin_names = List.map (fun b -> List.hd b.names) builtins
let builtin_lock = Mutex.create ()

let builtin name =
  let b = List.find (fun b -> List.mem name b.names) builtins in
  Mutex.protect builtin_lock (fun () ->
      match b.parsed with
      | Some m -> m
      | None ->
        let m = of_string b.text in
        b.parsed <- Some m;
        m)
