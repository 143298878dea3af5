type cache_params = {
  line_bytes : int;
  cache_bytes : int;
  associativity : int;
  miss_cycles : int;
  tlb_entries : int;
  page_bytes : int;
  tlb_miss_cycles : int;
}

type comm_params = {
  processors : int;
  startup_cycles : int;
  per_byte_cycles : float;
}

type table = { units : Funit.t array; atomics : (string, Atomic_op.t) Hashtbl.t }

type t = {
  name : string;
  description : string;
  table : table;
  model : Costmodel.kind;
  issue_width : int;
  branch_taken_cycles : int;
  register_load_limit : int;
  has_fma : bool;
  cache : cache_params;
  comm : comm_params option;
}

let default_cache =
  {
    line_bytes = 128;
    cache_bytes = 64 * 1024;
    associativity = 4;
    miss_cycles = 12;
    tlb_entries = 128;
    page_bytes = 4096;
    tlb_miss_cycles = 36;
  }

let make ~name ?(description = "") ~units ~atomics ?(issue_width = 4)
    ?(branch_taken_cycles = 3) ?(register_load_limit = 24) ?(has_fma = false)
    ?(cache = default_cache) ?comm () =
  let unit_arr =
    Array.of_list (List.mapi (fun id (uname, kind) -> { Funit.id; name = uname; kind }) units)
  in
  let names = Hashtbl.create 16 in
  Array.iter
    (fun (u : Funit.t) ->
      if Hashtbl.mem names u.name then invalid_arg ("Machine.make: duplicate unit " ^ u.name);
      Hashtbl.add names u.name ())
    unit_arr;
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (opname, comps) ->
      List.iter
        (fun (uid, _, _) ->
          if uid < 0 || uid >= Array.length unit_arr then
            invalid_arg
              (Printf.sprintf "Machine.make: op %s references missing unit %d" opname uid))
        comps;
      if Hashtbl.mem tbl opname then
        invalid_arg ("Machine.make: duplicate atomic op " ^ opname);
      Hashtbl.add tbl opname (Atomic_op.make opname comps))
    atomics;
  {
    name;
    description;
    table = { units = unit_arr; atomics = tbl };
    model = Costmodel.Classic;
    issue_width;
    branch_taken_cycles;
    register_load_limit;
    has_fma;
    cache;
    comm;
  }

let make_ports ~name ?(description = "") ~ports ~atomics ?(issue_width = 4)
    ?(branch_taken_cycles = 3) ?(register_load_limit = 24) ?(has_fma = false)
    ?(cache = default_cache) ?comm () =
  if ports = [] then invalid_arg "Machine.make_ports: no ports";
  let unit_arr =
    Array.of_list
      (List.mapi (fun id pname -> { Funit.id; name = pname; kind = Funit.Port }) ports)
  in
  let ids = Hashtbl.create 16 in
  Array.iter
    (fun (u : Funit.t) ->
      if Hashtbl.mem ids u.name then
        invalid_arg ("Machine.make_ports: duplicate port " ^ u.name);
      Hashtbl.add ids u.name u.id)
    unit_arr;
  let port_id opname p =
    match Hashtbl.find_opt ids p with
    | Some id -> id
    | None ->
      invalid_arg
        (Printf.sprintf "Machine.make_ports: op %s references missing port %s" opname p)
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (opname, latency, groups) ->
      if Hashtbl.mem tbl opname then
        invalid_arg ("Machine.make_ports: duplicate atomic op " ^ opname);
      if latency < 0 then
        invalid_arg ("Machine.make_ports: negative latency for " ^ opname);
      let groups =
        List.map
          (fun (eligible, count) ->
            { Costmodel.eligible = List.map (port_id opname) eligible; count })
          groups
      in
      let groups = Costmodel.canonical_groups groups in
      let components = Costmodel.lower ~latency groups in
      Hashtbl.add tbl opname (Atomic_op.of_components opname components))
    atomics;
  {
    name;
    description;
    table = { units = unit_arr; atomics = tbl };
    model = Costmodel.Ports;
    issue_width;
    branch_taken_cycles;
    register_load_limit;
    has_fma;
    cache;
    comm;
  }

exception Unknown_atomic of { machine : string; op : string }

let () =
  Printexc.register_printer (function
    | Unknown_atomic { machine; op } ->
      Some (Printf.sprintf "machine %s has no atomic operation %s" machine op)
    | _ -> None)

let atomic t name =
  match Hashtbl.find_opt t.table.atomics name with
  | Some op -> op
  | None -> raise (Unknown_atomic { machine = t.name; op = name })

let atomic_opt t name = Hashtbl.find_opt t.table.atomics name
let hash t = Hashtbl.hash t.name
let has_atomic t name = Hashtbl.mem t.table.atomics name
let num_units t = Array.length t.table.units

let units_of_kind t kind =
  Array.to_list t.table.units |> List.filter (fun (u : Funit.t) -> u.kind = kind)

let model t = t.model
let unit_at t id = t.table.units.(id)
let units_list t = Array.to_list t.table.units
let iter_units f t = Array.iter f t.table.units
let num_atomics t = Hashtbl.length t.table.atomics
let iter_atomics f t = Hashtbl.iter f t.table.atomics
let fold_atomics f t init = Hashtbl.fold f t.table.atomics init

let reciprocal_throughput t op =
  let (module M : Costmodel.S) = Costmodel.model t.model in
  M.reciprocal_throughput ~units:t.table.units op

(* ---- built-in machines ---- *)

(* POWER1 unit indices *)
let fxu = 0
let fpu = 1
let br = 2
let cr = 3
let lsu = 4

let power1_atomics =
  [
    (* integer ops: one FXU cycle *)
    ("iadd", [ (fxu, 1, 0) ]);
    ("isub", [ (fxu, 1, 0) ]);
    ("ineg", [ (fxu, 1, 0) ]);
    ("ilogic", [ (fxu, 1, 0) ]);
    ("ishift", [ (fxu, 1, 0) ]);
    ("icopy", [ (fxu, 1, 0) ]);
    (* §2.2.1: integer multiply is 3 cycles for multipliers in [-128,127],
       5 cycles in general *)
    ("imul_small", [ (fxu, 3, 0) ]);
    ("imul", [ (fxu, 5, 0) ]);
    ("idiv", [ (fxu, 19, 0) ]);
    ("icmp", [ (fxu, 1, 0); (cr, 0, 1) ]);
    (* floating point: the paper's 1 noncoverable + 1 coverable FPU cycle *)
    ("fadd", [ (fpu, 1, 1) ]);
    ("fsub", [ (fpu, 1, 1) ]);
    ("fmul", [ (fpu, 1, 1) ]);
    ("fma", [ (fpu, 1, 1) ]);
    ("fneg", [ (fpu, 1, 0) ]);
    ("fabs", [ (fpu, 1, 0) ]);
    ("fcopy", [ (fpu, 1, 0) ]);
    ("fdiv", [ (fpu, 16, 1) ]);
    ("fcmp", [ (fpu, 1, 0); (cr, 0, 1) ]);
    ("cvt_if", [ (fpu, 1, 1) ]);
    ("cvt_fi", [ (fpu, 1, 1); (fxu, 1, 0) ]);
    (* memory: loads issue on the FXU (address generation) and occupy the
       load/store port; result after one extra (coverable) cycle *)
    ("load_int", [ (fxu, 1, 0); (lsu, 1, 1) ]);
    ("load_fp", [ (fxu, 1, 0); (lsu, 1, 1) ]);
    ("store_int", [ (fxu, 1, 0); (lsu, 1, 0) ]);
    (* §2.1: FP store = two FPU cycles, one coverable, plus one integer-unit
       cycle *)
    ("store_fp", [ (fpu, 1, 1); (fxu, 1, 0); (lsu, 1, 0) ]);
    (* control *)
    ("branch", [ (br, 1, 0) ]);
    ("branch_cond", [ (br, 1, 0); (cr, 1, 0) ]);
    ("call", [ (br, 2, 0); (fxu, 2, 0) ]);
    (* expensive intrinsics (software sequences on POWER1) *)
    ("fsqrt", [ (fpu, 27, 1) ]);
    ("fsin", [ (fpu, 40, 1) ]);
    ("fcos", [ (fpu, 40, 1) ]);
    ("fexp", [ (fpu, 35, 1) ]);
    ("flog", [ (fpu, 35, 1) ]);
    ("ftanh", [ (fpu, 45, 1) ]);
    ("nop", [ (fxu, 0, 0) ]);
  ]

let power1 =
  make ~name:"power1"
    ~description:"IBM POWER (RS/6000-like): 5 units, FMA, the paper's target"
    ~units:
      [ ("FXU", Funit.Fixed_point); ("FPU", Funit.Float_point); ("BR", Funit.Branch);
        ("CR", Funit.Cr_logic); ("LSU", Funit.Load_store) ]
    ~atomics:power1_atomics ~issue_width:4 ~branch_taken_cycles:3 ~register_load_limit:24
    ~has_fma:true ()

let power1_wide =
  (* duplicated FXU/FPU/LSU; atomic components still name the first unit of
     each kind — the scheduler may place a component on any unit of the same
     kind *)
  let units =
    [ ("FXU0", Funit.Fixed_point); ("FPU0", Funit.Float_point); ("BR", Funit.Branch);
      ("CR", Funit.Cr_logic); ("LSU0", Funit.Load_store); ("FXU1", Funit.Fixed_point);
      ("FPU1", Funit.Float_point); ("LSU1", Funit.Load_store) ]
  in
  make ~name:"power1x2"
    ~description:"2-way POWER variant: duplicated FXU/FPU/LSU"
    ~units ~atomics:power1_atomics ~issue_width:6 ~branch_taken_cycles:3
    ~register_load_limit:28 ~has_fma:true ()

let alpha21064 =
  (* DEC Alpha 21064-like (the Cray T3D node the paper's intro mentions):
     dual issue, no FMA, longer FP latencies than POWER1, separate
     load/store pipe. Costs follow the 21064 hardware reference manual's
     well-known latencies (fadd/fmul 6, pipelined; idiv via software). *)
  let fxu = 0 and fpu = 1 and br = 2 and lsu = 3 in
  make ~name:"alpha21064"
    ~description:"DEC Alpha 21064-like (Cray T3D node): dual issue, no FMA"
    ~units:
      [ ("EBOX", Funit.Fixed_point); ("FBOX", Funit.Float_point); ("IBOX", Funit.Branch);
        ("ABOX", Funit.Load_store) ]
    ~atomics:
      [
        ("iadd", [ (fxu, 1, 0) ]);
        ("isub", [ (fxu, 1, 0) ]);
        ("ineg", [ (fxu, 1, 0) ]);
        ("ilogic", [ (fxu, 1, 0) ]);
        ("ishift", [ (fxu, 1, 1) ]);
        ("icopy", [ (fxu, 1, 0) ]);
        ("imul_small", [ (fxu, 1, 18) ]) (* 21064 integer multiply: long latency *);
        ("imul", [ (fxu, 1, 20) ]);
        ("idiv", [ (fxu, 40, 0) ]) (* software sequence *);
        ("icmp", [ (fxu, 1, 0) ]);
        ("fadd", [ (fpu, 1, 5) ]) (* 6-cycle latency, fully pipelined *);
        ("fsub", [ (fpu, 1, 5) ]);
        ("fmul", [ (fpu, 1, 5) ]);
        ("fneg", [ (fpu, 1, 0) ]);
        ("fabs", [ (fpu, 1, 0) ]);
        ("fcopy", [ (fpu, 1, 0) ]);
        ("fdiv", [ (fpu, 30, 4) ]) (* single precision, not pipelined *);
        ("ddiv", [ (fpu, 59, 4) ]) (* 21064: double divide ~63 vs ~34 cycles *);
        ("fcmp", [ (fpu, 1, 2) ]);
        ("cvt_if", [ (fpu, 1, 5) ]);
        ("cvt_fi", [ (fpu, 1, 5); (fxu, 1, 0) ]);
        ("load_int", [ (lsu, 1, 2) ]);
        ("load_fp", [ (lsu, 1, 2) ]);
        ("store_int", [ (lsu, 1, 0) ]);
        ("store_fp", [ (lsu, 1, 0) ]);
        ("branch", [ (br, 1, 0) ]);
        ("branch_cond", [ (br, 1, 1) ]);
        ("call", [ (br, 2, 0); (fxu, 2, 0) ]);
        ("fsqrt", [ (fpu, 34, 0) ]);
        ("fsin", [ (fpu, 60, 0) ]);
        ("fcos", [ (fpu, 60, 0) ]);
        ("fexp", [ (fpu, 50, 0) ]);
        ("flog", [ (fpu, 50, 0) ]);
        ("ftanh", [ (fpu, 70, 0) ]);
        ("nop", [ (fxu, 0, 0) ]);
      ]
    ~issue_width:2 ~branch_taken_cycles:4 ~register_load_limit:28 ~has_fma:false
    ~cache:
      {
        line_bytes = 32;
        cache_bytes = 8 * 1024;
        associativity = 1;
        miss_cycles = 25;
        tlb_entries = 32;
        page_bytes = 8192;
        tlb_miss_cycles = 50;
      }
    ~comm:{ processors = 64; startup_cycles = 1500; per_byte_cycles = 0.35 }
    ()

let scalar =
  let alu = 0 in
  let serial_ops =
    [
      ("iadd", 1); ("isub", 1); ("ineg", 1); ("ilogic", 1); ("ishift", 1); ("icopy", 1);
      ("imul_small", 3); ("imul", 5); ("idiv", 19); ("icmp", 1);
      ("fadd", 2); ("fsub", 2); ("fmul", 2); ("fneg", 1); ("fabs", 1); ("fcopy", 1);
      ("fdiv", 17); ("fcmp", 1); ("cvt_if", 2); ("cvt_fi", 2);
      ("load_int", 2); ("load_fp", 2); ("store_int", 2); ("store_fp", 2);
      ("branch", 1); ("branch_cond", 2); ("call", 4);
      ("fsqrt", 28); ("fsin", 41); ("fcos", 41); ("fexp", 36); ("flog", 36); ("ftanh", 46);
      ("nop", 0);
    ]
  in
  make ~name:"scalar"
    ~description:"strictly sequential single-unit machine (operation counting)"
    ~units:[ ("ALU", Funit.Custom "alu") ]
    ~atomics:(List.map (fun (n, c) -> (n, [ (alu, c, 0) ])) serial_ops)
    ~issue_width:1 ~branch_taken_cycles:2 ~register_load_limit:8 ~has_fma:false ()
