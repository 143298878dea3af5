open Pperf_machine
module Obs = Pperf_obs.Obs

let c_placements = Obs.counter "bins.placements"
let c_scan = Obs.counter "bins.scan_cells"
let c_fallback = Obs.counter "bins.fit_fallback"

type t = {
  machine : Machine.t;
  slots : Slots.t array;
  focus_span : int;
  mutable makespan : int;
  cover_tops : int array;
  mutable slots_hwm : int;  (** cached max of the slots' high-water marks *)
  mutable fallbacks : int;  (** coordinated fits resolved by stacked placement *)
}

let create ?(focus_span = 64) machine =
  let n = Machine.num_units machine in
  {
    machine;
    slots = Array.init n (fun _ -> Slots.create ~capacity:16 ());
    focus_span;
    makespan = 0;
    cover_tops = Array.make n 0;
    slots_hwm = 0;
    fallbacks = 0;
  }

let reset t =
  Array.iter Slots.reset t.slots;
  t.makespan <- 0;
  t.slots_hwm <- 0;
  t.fallbacks <- 0;
  Array.fill t.cover_tops 0 (Array.length t.cover_tops) 0

let machine t = t.machine

type placement = {
  node : int;
  start : int;
  finish : int;
  filled : (int * int * int) list;
}

type schedule = { placements : placement array; cost : int; block : Costblock.t }

(* every fill goes through [drop_op_full], which maintains the cache *)
let global_hwm t = t.slots_hwm

(* a coordinated fit that keeps chasing a moving frontier has hit a
   pathological interleaving of free runs; instead of raising (which would
   kill the whole prediction) place the components stacked above everything
   already in the bins — conservative (it overlaps nothing, costing the sum
   of the unit spans) but always succeeds. Recorded as an [obs] counter and
   a per-bins count so predictions can surface a precision diagnostic. *)
let stacked_placement t ~floor (op : Atomic_op.t) =
  Obs.incr c_fallback;
  t.fallbacks <- t.fallbacks + 1;
  let base = Stdlib.max floor t.slots_hwm in
  let off = ref base in
  let choices =
    List.map
      (fun (c : Atomic_op.component) ->
        let s = !off in
        off := s + Stdlib.max 1 c.noncoverable;
        (c, c.unit_id, s))
      op.components
  in
  (base, choices)

(* the end of the latest range in [claims] on unit [u] that [s, s + len)
   overlaps, or -1 *)
let rec claimed_end claims u s len =
  match claims with
  | [] -> -1
  | (cu, cs, cl) :: rest ->
    let e = claimed_end rest u s len in
    if cu = u && s < cs + cl && cs < s + len then Stdlib.max e (cs + cl) else e

(* the first fit of [len] cycles on unit [u] at or after [floor] that no
   range in [claims] overlaps *)
let rec fit_avoiding t claims u ~floor ~len =
  let s = Slots.first_fit t.slots.(u) ~floor ~len in
  match claims with
  | [] -> s
  | _ ->
    let e = claimed_end claims u s len in
    if e < 0 then s else fit_avoiding t claims u ~floor:e ~len

(* find the lowest start >= floor where every component fits simultaneously;
   returns (start, chosen unit per component).

   Each component tries its eligible units in order and takes the lowest
   fit. Two components of one op may share an eligible unit (two µop groups
   of a ports op), so each component avoids the ranges the earlier ones of
   the same attempt claimed; with nothing claimed, a unit's first fit
   stands. *)
let coordinated_fit t ~floor (op : Atomic_op.t) =
  let rec attempt start guard =
    if guard > 1_000 then raise Exit;
    let worst = ref start in
    let rec place claims = function
      | [] -> []
      | (c : Atomic_op.component) :: rest when c.noncoverable = 0 ->
        (c, c.unit_id, start) :: place claims rest
      | (c : Atomic_op.component) :: rest ->
        let best = ref max_int and best_u = ref c.unit_id in
        for i = 0 to Array.length c.eligible - 1 do
          let u = c.eligible.(i) in
          let s = fit_avoiding t claims u ~floor:start ~len:c.noncoverable in
          if s < !best then (
            best := s;
            best_u := u)
        done;
        if !best > !worst then worst := !best;
        let claims =
          match rest with [] -> claims | _ -> (!best_u, !best, c.noncoverable) :: claims
        in
        (c, !best_u, !best) :: place claims rest
    in
    let choices = place [] op.components in
    if !worst = start then (start, choices) else attempt !worst (guard + 1)
  in
  try attempt floor 0 with Exit -> stacked_placement t ~floor op

let drop_op_full t ~ready node (op : Atomic_op.t) =
  let floor = max ready (max 0 (global_hwm t - t.focus_span)) in
  Obs.incr c_placements;
  Obs.add c_scan (Stdlib.max 0 (global_hwm t - floor));
  let start, choices = coordinated_fit t ~floor op in
  (* each choice carries its own start; all equal after a converged
     coordinated fit, stacked after a fallback *)
  let filled =
    List.map
      (fun ((c : Atomic_op.component), u, s) ->
        if c.noncoverable > 0 then (
          Slots.fill t.slots.(u) ~start:s ~len:c.noncoverable;
          t.slots_hwm <- Stdlib.max t.slots_hwm (s + c.noncoverable));
        t.cover_tops.(u) <- max t.cover_tops.(u) (s + c.noncoverable + c.coverable);
        (u, s, c.noncoverable))
      choices
  in
  let top = List.fold_left (fun acc (_, s, _) -> Stdlib.max acc s) start filled in
  let finish = top + Atomic_op.result_latency op in
  t.makespan <- max t.makespan finish;
  { node; start; finish; filled }

let drop_op t ~ready op = (drop_op_full t ~ready (-1) op).start

let cost_block t =
  let per_unit =
    Array.mapi
      (fun u s ->
        {
          Costblock.first = Slots.first_occupied s;
          last = Slots.last_occupied s;
          occupied = Slots.occupied_cells s;
          cover_top = t.cover_tops.(u);
        })
      t.slots
  in
  let start =
    Array.fold_left
      (fun acc (p : Costblock.unit_profile) ->
        match p.first with Some f -> min acc f | None -> acc)
      max_int per_unit
  in
  let start = if start = max_int then 0 else start in
  { Costblock.start; finish = t.makespan; per_unit }

let sp_bins = Obs.span "sched.bins"

let drop_dag t (dag : Dag.t) =
  Obs.time sp_bins @@ fun () ->
  let n = Dag.length dag in
  let placements = Array.make n { node = 0; start = 0; finish = 0; filled = [] } in
  for i = 0 to n - 1 do
    let nd = Dag.node dag i in
    let ready =
      List.fold_left (fun acc d -> max acc placements.(d).finish) 0 nd.Dag.deps
    in
    placements.(i) <- drop_op_full t ~ready i nd.Dag.op
  done;
  let block = cost_block t in
  { placements; cost = Costblock.cost block; block }

(* steady state (§2.4.2): the second drop of the block lands on the
   first, so its extra cost is what one more iteration costs once it
   overlaps the previous one *)
let steady_state t dag =
  if Dag.length dag = 0 then (0, 0)
  else (
    let once = (drop_dag t dag).cost in
    let twice = (drop_dag t dag).cost in
    (once, max 1 (twice - once)))

let fallbacks t = t.fallbacks

let pp fmt t =
  let top = max (global_hwm t) t.makespan in
  Format.fprintf fmt "t   ";
  Machine.iter_units (fun (u : Funit.t) -> Format.fprintf fmt "%-6s" u.name) t.machine;
  Format.pp_print_newline fmt ();
  for row = 0 to top - 1 do
    Format.fprintf fmt "%-4d" row;
    Array.iteri
      (fun u s ->
        let occupied = not (Slots.is_free s ~start:row ~len:1) in
        let covered = (not occupied) && row < t.cover_tops.(u) in
        Format.fprintf fmt "%-6s" (if occupied then "##" else if covered then "::" else "..")
      )
      t.slots;
    Format.pp_print_newline fmt ()
  done

module Opcount = struct
  let cost = Dag.serial_cost
  let busy_cost = Dag.busy_cost
end
