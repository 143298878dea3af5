type unit_profile = {
  first : int option;
  last : int option;
  occupied : int;
  cover_top : int;
}

type t = { start : int; finish : int; per_unit : unit_profile array }

let cost t = max 0 (t.finish - t.start)

let empty num_units =
  {
    start = 0;
    finish = 0;
    per_unit = Array.make num_units { first = None; last = None; occupied = 0; cover_top = 0 };
  }

let occupancy_ratio t u =
  let p = t.per_unit.(u) in
  let span = cost t in
  if span = 0 then 0.0 else float_of_int p.occupied /. float_of_int span

let critical_unit t =
  let best = ref None in
  Array.iteri
    (fun u p ->
      match !best with
      | Some (_, occ) when occ >= p.occupied -> ()
      | _ -> if p.occupied > 0 then best := Some (u, p.occupied))
    t.per_unit;
  Option.map fst !best

let lead t u =
  match t.per_unit.(u).first with
  | None -> cost t
  | Some f -> max 0 (f - t.start)

(* free slots on a unit between its last occupied slot and the block finish *)
let trail t u =
  match t.per_unit.(u).last with
  | None -> cost t
  | Some l -> max 0 (t.finish - (l + 1))

let overlap_estimate ?(min_gap = 0) a b =
  let ca = cost a and cb = cost b in
  if ca = 0 || cb = 0 then 0
  else (
    let n = min (Array.length a.per_unit) (Array.length b.per_unit) in
    let slide = ref max_int in
    for u = 0 to n - 1 do
      let room =
        if a.per_unit.(u).occupied = 0 && b.per_unit.(u).occupied = 0 then max_int
        else trail a u + lead b u
      in
      slide := min !slide room
    done;
    let s = if !slide = max_int then min ca cb else !slide in
    let s = s - min_gap in
    max 0 (min s (min ca cb)))

let combine_estimate ?min_gap a b = cost a + cost b - overlap_estimate ?min_gap a b

let unrolled_iteration_estimate t = cost t - overlap_estimate t t

let chain_cost_estimate = function
  | [] -> 0
  | first :: rest ->
    let total, _ =
      List.fold_left
        (fun (acc, prev) b -> (acc + cost b - overlap_estimate prev b, b))
        (cost first, first) rest
    in
    total

let best_order blocks =
  match blocks with
  | [] -> []
  | _ ->
    let arr = Array.of_list blocks in
    let n = Array.length arr in
    let used = Array.make n false in
    (* start from the block with the largest self-trailing slack *)
    let start = ref 0 in
    let best_slack = ref min_int in
    Array.iteri
      (fun i b ->
        let slack =
          Array.to_list (Array.init (Array.length b.per_unit) (fun u -> trail b u))
          |> List.fold_left max 0
        in
        if slack > !best_slack then (
          best_slack := slack;
          start := i))
      arr;
    used.(!start) <- true;
    let order = ref [ !start ] in
    let current = ref arr.(!start) in
    for _ = 2 to n do
      let best = ref (-1) and best_ov = ref min_int in
      Array.iteri
        (fun i b ->
          if not used.(i) then (
            let ov = overlap_estimate !current b in
            if ov > !best_ov then (
              best_ov := ov;
              best := i)))
        arr;
      used.(!best) <- true;
      order := !best :: !order;
      current := arr.(!best)
    done;
    List.rev !order

let pp fmt t =
  Format.fprintf fmt "cost block [%d, %d) cost=%d@." t.start t.finish (cost t);
  Array.iteri
    (fun u p ->
      Format.fprintf fmt "  unit %d: %s occ=%d cover_top=%d@." u
        (match (p.first, p.last) with
         | Some f, Some l -> Printf.sprintf "[%d..%d]" f l
         | _ -> "(idle)")
        p.occupied p.cover_top)
    t.per_unit
