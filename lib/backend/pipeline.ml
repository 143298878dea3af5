open Pperf_machine
open Pperf_sched

type exec_result = { cycles : int; issue : int array; stalls : int }

exception Livelock of { cycle : int; unissued : int }

let default_max_cycles = 10_000_000

(* [free_at.(u)] is the cycle at which unit [u] becomes free. Can all
   components of [op] issue at [cycle]? if so return the chosen units (one
   per component needing occupancy): each component takes the first free
   unit of its eligible set that no earlier component of the op took *)
let units_available free_at cycle (op : Atomic_op.t) =
  let taken = Hashtbl.create 4 in
  let rec choose = function
    | [] -> Some []
    | (c : Atomic_op.component) :: rest ->
      if c.noncoverable = 0 then Option.map (fun l -> (c, -1) :: l) (choose rest)
      else (
        let cand =
          Array.to_list c.eligible
          |> List.find_opt (fun u -> free_at.(u) <= cycle && not (Hashtbl.mem taken u))
        in
        match cand with
        | None -> None
        | Some u ->
          Hashtbl.add taken u ();
          (match choose rest with
           | Some l -> Some ((c, u) :: l)
           | None -> None))
  in
  choose op.components

let do_issue free_at cycle (op : Atomic_op.t) chosen =
  List.iter
    (fun ((c : Atomic_op.component), u) ->
      if u >= 0 then free_at.(u) <- cycle + c.noncoverable)
    chosen;
  cycle + Atomic_op.result_latency op

(* generic engine: [pick ready] chooses the next op to try to issue among
   ready ones (indices into the dag) *)
let run ?(max_cycles = default_max_cycles) ~pick (m : Machine.t) (dag : Dag.t) =
  let n = Dag.length dag in
  let free_at = Array.make (Machine.num_units m) 0 in
  let issue = Array.make n (-1) in
  let result_at = Array.make n max_int in
  let remaining = ref n in
  let cycle = ref 0 in
  let stalls = ref 0 in
  let makespan = ref 0 in
  let guard = ref 0 in
  while !remaining > 0 do
    incr guard;
    if !guard > max_cycles then
      raise (Livelock { cycle = !cycle; unissued = !remaining });
    (* ops whose predecessors' results are available at this cycle *)
    let ready =
      List.filter
        (fun i ->
          issue.(i) < 0
          && List.for_all (fun d -> result_at.(d) <= !cycle) (Dag.node dag i).Dag.deps)
        (List.init n (fun i -> i))
    in
    let issued_this_cycle = ref 0 in
    let continue_issuing = ref true in
    let ready = ref (pick ready) in
    while !continue_issuing && !issued_this_cycle < m.Machine.issue_width do
      match !ready with
      | [] -> continue_issuing := false
      | i :: rest -> (
        let op = (Dag.node dag i).Dag.op in
        match units_available free_at !cycle op with
        | Some chosen ->
          let res = do_issue free_at !cycle op chosen in
          issue.(i) <- !cycle;
          result_at.(i) <- res;
          makespan := max !makespan res;
          decr remaining;
          incr issued_this_cycle;
          ready := rest
        | None ->
          (* structural hazard: in-order semantics stop at the first
             blocked op; list scheduling skips it and tries the next *)
          ready := rest)
    done;
    if !issued_this_cycle = 0 then incr stalls;
    incr cycle
  done;
  { cycles = !makespan; issue; stalls = !stalls }

let run_in_order ?(max_cycles = default_max_cycles) m dag =
  (* strict program order with head-of-line blocking: an op may not issue
     before all earlier ops have issued *)
  let n = Dag.length dag in
  let free_at = Array.make (Machine.num_units m) 0 in
  let issue = Array.make n (-1) in
  let result_at = Array.make n max_int in
  let cycle = ref 0 in
  let stalls = ref 0 in
  let makespan = ref 0 in
  let next = ref 0 in
  while !next < n do
    if !cycle > max_cycles then
      raise (Livelock { cycle = !cycle; unissued = n - !next });
    let issued_this_cycle = ref 0 in
    let blocked = ref false in
    while (not !blocked) && !next < n && !issued_this_cycle < m.Machine.issue_width do
      let i = !next in
      let nd = Dag.node dag i in
      let deps_ready = List.for_all (fun d -> result_at.(d) <= !cycle) nd.Dag.deps in
      if not deps_ready then blocked := true
      else (
        match units_available free_at !cycle nd.Dag.op with
        | Some chosen ->
          let res = do_issue free_at !cycle nd.Dag.op chosen in
          issue.(i) <- !cycle;
          result_at.(i) <- res;
          makespan := max !makespan res;
          incr next;
          incr issued_this_cycle
        | None -> blocked := true)
    done;
    if !issued_this_cycle = 0 then incr stalls;
    incr cycle
  done;
  { cycles = !makespan; issue; stalls = !stalls }

let run_list_scheduled ?max_cycles m dag =
  (* priority = critical-path height to any sink *)
  let n = Dag.length dag in
  let height = Array.make n 0 in
  (* successors from deps *)
  for i = n - 1 downto 0 do
    let nd = Dag.node dag i in
    let lat = Atomic_op.result_latency nd.Dag.op in
    height.(i) <- max height.(i) lat;
    List.iter (fun d -> height.(d) <- max height.(d) (height.(i) + Atomic_op.result_latency (Dag.node dag d).Dag.op)) nd.Dag.deps
  done;
  let pick ready =
    List.sort (fun a b -> compare (height.(b), a) (height.(a), b)) ready
  in
  run ?max_cycles ~pick m dag

let reference_cycles m dag = (run_list_scheduled m dag).cycles
