(* The two cost-model dialects and the one throughput rule.

   Classic — the paper's two-component coverable/noncoverable model: each
   atomic op names the functional units it occupies; replication is
   expressed by unit *kinds*, so Machine.make gives each component the
   units of its kind as its eligible set.

   Ports — a PALMED/OSACA-style issue-port model: each atomic op is a
   multiset of µops, each µop eligible to a *set* of issue ports and
   consuming one port-cycle; [lower] gives each component its µop group's
   ports as its eligible set.

   Either way the scheduler sees components with eligible sets, and the
   steady-state reciprocal throughput of an op is the optimal fractional
   assignment of its cycles to eligible units; by LP duality this equals

     max over unit subsets S of  #{cycles whose eligible set ⊆ S} / |S|

   which on a classic op is the busiest kind's cycles over its units. *)

type kind = Classic | Ports

let kind_string = function Classic -> "classic" | Ports -> "ports"

let kind_of_string = function
  | "classic" -> Some Classic
  | "ports" -> Some Ports
  | _ -> None

type uop_group = {
  eligible : int list;  (** sorted, distinct port (unit) ids *)
  count : int;  (** µops with this eligible set; each costs one port-cycle *)
}

(* merge groups with equal eligible sets and order them canonically, so
   construction order, Descr.to_string order and re-parse order agree *)
let canonical_groups groups =
  let tbl = Hashtbl.create 8 in
  let keys = ref [] in
  List.iter
    (fun g ->
      let key = List.sort_uniq compare g.eligible in
      if g.count < 0 then invalid_arg "Costmodel: negative uop count";
      if key = [] then invalid_arg "Costmodel: empty eligible port set";
      match Hashtbl.find_opt tbl key with
      | Some n -> Hashtbl.replace tbl key (n + g.count)
      | None ->
        Hashtbl.add tbl key g.count;
        keys := key :: !keys)
    groups;
  List.sort compare !keys |> List.map (fun k -> { eligible = k; count = Hashtbl.find tbl k })

(* Lower a ports op to scheduler components: round-robin each group's
   µops over its eligible ports (a deterministic, conservative integer
   assignment — the exact fractional optimum is what
   [reciprocal_throughput] reports), merging µops that land on the same
   primary port into one component. The op's result latency is realised
   as a coverable tail on the first component. *)
let lower ~latency groups =
  let groups = canonical_groups groups in
  if groups = [] then invalid_arg "Costmodel.lower: no uops";
  let comps = ref [] in
  List.iter
    (fun g ->
      let elig = Array.of_list g.eligible in
      let k = Array.length elig in
      if g.count = 0 then
        (* zero-cost op (e.g. nop): keep one empty component so the op
           still names its eligible ports *)
        comps := (elig.(0), 0, elig) :: !comps
      else (
        let per = Array.make k 0 in
        for j = 0 to g.count - 1 do
          per.(j mod k) <- per.(j mod k) + 1
        done;
        Array.iteri (fun i c -> if c > 0 then comps := (elig.(i), c, elig) :: !comps) per))
    groups;
  match List.rev !comps with
  | [] -> invalid_arg "Costmodel.lower: no uops"
  | (u, nc, elig) :: rest ->
    { Atomic_op.unit_id = u; noncoverable = nc; coverable = max 0 (latency - nc); eligible = elig }
    :: List.map
         (fun (u, nc, elig) ->
           { Atomic_op.unit_id = u; noncoverable = nc; coverable = 0; eligible = elig })
         rest

(* Recover the µop groups of a lowered op (inverse of [lower] up to
   canonicalization); a classic op has one group per unit kind it names. *)
let groups_of_op (op : Atomic_op.t) =
  canonical_groups
    (List.map
       (fun (c : Atomic_op.component) ->
         { eligible = Array.to_list c.eligible; count = c.noncoverable })
       op.components)

(* the maximum is attained on a union of eligible sets (shrinking any S to
   the union of the sets it contains keeps its load and drops units), so
   only the unions of the op's few groups are enumerated, however many
   units the machine replicates *)
let reciprocal_throughput (op : Atomic_op.t) =
  let groups = groups_of_op op in
  let best = ref 0.0 in
  for mask = 1 to (1 lsl List.length groups) - 1 do
    let union =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) groups
      |> List.concat_map (fun g -> g.eligible)
      |> List.sort_uniq compare
    in
    let load =
      List.fold_left
        (fun acc g ->
          if List.for_all (fun u -> List.mem u union) g.eligible then acc + g.count else acc)
        0 groups
    in
    let rate = float_of_int load /. float_of_int (List.length union) in
    if rate > !best then best := rate
  done;
  !best
