type component = {
  unit_id : int;
  noncoverable : int;
  coverable : int;
  eligible : int array;
}

type t = { name : string; components : component list }

let make name components =
  if components = [] then invalid_arg "Atomic_op.make: no components";
  List.iter
    (fun c ->
      if c.noncoverable < 0 || c.coverable < 0 then invalid_arg "Atomic_op.make: negative cost";
      if Array.length c.eligible = 0 then invalid_arg "Atomic_op.make: empty eligible set")
    components;
  { name; components }

let result_latency t =
  List.fold_left (fun acc c -> max acc (c.noncoverable + c.coverable)) 0 t.components

let busy_cycles t = List.fold_left (fun acc c -> acc + c.noncoverable) 0 t.components

let serial_cycles = result_latency

let component_on t unit_id = List.find_opt (fun c -> c.unit_id = unit_id) t.components

let pp fmt t =
  Format.fprintf fmt "%s[%a]" t.name
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       (fun fmt c -> Format.fprintf fmt "u%d:%d+%dc" c.unit_id c.noncoverable c.coverable))
    t.components
