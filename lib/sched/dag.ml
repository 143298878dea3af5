open Pperf_machine

type node = { index : int; op : Atomic_op.t; deps : int list; label : string Lazy.t }

type t = { nodes : node array }

let of_nodes nodes =
  Array.iteri
    (fun i n ->
      if n.index <> i then invalid_arg "Dag.of_nodes: node out of place";
      List.iter
        (fun d ->
          if d >= i then invalid_arg "Dag.make: forward or self dependence";
          if d < 0 then invalid_arg "Dag.make: negative dependence")
        n.deps)
    nodes;
  { nodes }

let make arr = of_nodes (Array.mapi (fun index (op, deps, label) -> { index; op; deps; label }) arr)

let no_label = Lazy.from_val ""
let of_ops ops = make (Array.of_list (List.map (fun (op, deps) -> (op, deps, no_label)) ops))

let length t = Array.length t.nodes
let node t i = t.nodes.(i)

let critical_path t =
  let n = Array.length t.nodes in
  let finish = Array.make n 0 in
  let cp = ref 0 in
  for i = 0 to n - 1 do
    let node = t.nodes.(i) in
    let ready = List.fold_left (fun acc d -> max acc finish.(d)) 0 node.deps in
    finish.(i) <- ready + Atomic_op.result_latency node.op;
    cp := max !cp finish.(i)
  done;
  !cp

let serial_cost t =
  Array.fold_left (fun acc n -> acc + Atomic_op.serial_cycles n.op) 0 t.nodes

let busy_cost t = Array.fold_left (fun acc n -> acc + Atomic_op.busy_cycles n.op) 0 t.nodes

let map_ops f t =
  { nodes = Array.map (fun n -> { n with op = f n.op }) t.nodes }

let concat a b =
  let na = Array.length a.nodes in
  let shifted =
    Array.map
      (fun n -> { n with index = n.index + na; deps = List.map (fun d -> d + na) n.deps })
      b.nodes
  in
  { nodes = Array.append a.nodes shifted }

let repeat ?(carry = []) body k =
  if k <= 0 then invalid_arg "Dag.repeat: k must be positive";
  let nb = Array.length body.nodes in
  let parts =
    List.init k (fun iter ->
        Array.map
          (fun n ->
            let deps = List.map (fun d -> d + (iter * nb)) n.deps in
            let deps =
              if iter = 0 then deps
              else
                deps
                @ List.filter_map
                    (fun (prod, cons) ->
                      if cons = n.index then Some (prod + ((iter - 1) * nb)) else None)
                    carry
            in
            { n with index = n.index + (iter * nb); deps })
          body.nodes)
  in
  { nodes = Array.concat parts }

let pp fmt t =
  Array.iter
    (fun n ->
      let label = Lazy.force n.label in
      Format.fprintf fmt "%3d: %a%s deps:[%a]@." n.index Atomic_op.pp n.op
        (if label = "" then "" else " ; " ^ label)
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           Format.pp_print_int)
        n.deps)
    t.nodes
