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

let make ~name ~units ~atomics ?(issue_width = 4)
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
  (* a component may take any unit of its kind: the named unit first, then
     its twins in id order *)
  let eligible =
    Array.map
      (fun (u : Funit.t) ->
        Array.of_list
          (u.id
          :: List.filter_map
               (fun (v : Funit.t) -> if v.kind = u.kind && v.id <> u.id then Some v.id else None)
               (Array.to_list unit_arr)))
      unit_arr
  in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (opname, comps) ->
      let seen = Hashtbl.create 4 in
      List.iter
        (fun (uid, _, _) ->
          if uid < 0 || uid >= Array.length unit_arr then
            invalid_arg
              (Printf.sprintf "Machine.make: op %s references missing unit %d" opname uid);
          if Hashtbl.mem seen uid then
            invalid_arg (Printf.sprintf "Machine.make: op %s names unit %d twice" opname uid);
          Hashtbl.add seen uid ())
        comps;
      if Hashtbl.mem tbl opname then
        invalid_arg ("Machine.make: duplicate atomic op " ^ opname);
      Hashtbl.add tbl opname
        (Atomic_op.make opname
           (List.map
              (fun (unit_id, noncoverable, coverable) ->
                { Atomic_op.unit_id; noncoverable; coverable; eligible = eligible.(unit_id) })
              comps)))
    atomics;
  {
    name;
    table = { units = unit_arr; atomics = tbl };
    model = Costmodel.Classic;
    issue_width;
    branch_taken_cycles;
    register_load_limit;
    has_fma;
    cache;
    comm;
  }

let make_ports ~name ~ports ~atomics ?(issue_width = 4)
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
      Hashtbl.add tbl opname (Atomic_op.make opname components))
    atomics;
  {
    name;
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
let iter_units f t = Array.iter f t.table.units
let num_atomics t = Hashtbl.length t.table.atomics
let iter_atomics f t = Hashtbl.iter f t.table.atomics
let fold_atomics f t init = Hashtbl.fold f t.table.atomics init

let reciprocal_throughput _ = Costmodel.reciprocal_throughput
