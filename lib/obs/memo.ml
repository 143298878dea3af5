(* Bounded memo tables with second-chance eviction, shared behind a
   mutex, per domain, or local to one owner. Each family registers its
   instruments once, in the one registry below. *)

type family = {
  hits : Obs.counter;
  misses : Obs.counter;
  evictions : Obs.counter;
  entries : Obs.gauge;
  capacity : int Atomic.t;  (* summed over the family's non-empty tables *)
}

let families : (string, family) Hashtbl.t = Hashtbl.create 16
let families_lock = Mutex.create ()

let family name =
  Mutex.protect families_lock (fun () ->
      match Hashtbl.find_opt families name with
      | Some f -> f
      | None ->
        let f =
          {
            hits = Obs.counter (name ^ ".hits");
            misses = Obs.counter (name ^ ".misses");
            evictions = Obs.counter (name ^ ".evictions");
            entries = Obs.gauge (name ^ ".entries");
            capacity = Atomic.make 0;
          }
        in
        Hashtbl.add families name f;
        f)

type ('k, 'v) cell = { key : 'k; hash : int; value : 'v; mutable live : bool }

(* chained buckets, a power of two of them *)
type ('k, 'v) table = {
  mutable buckets : ('k, 'v) cell list array;
  mutable size : int;
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_evictions : int;
}

type ('k, 'v) spec = {
  fam : family;
  cap : int;
  key_hash : 'k -> int;
  key_equal : 'k -> 'k -> bool;
  on_drop : 'v -> unit;
}

type ('k, 'v) home =
  | Local_table of ('k, 'v) table
  | Locked of ('k, 'v) table * Mutex.t
  | Domain_table of ('k, 'v) table Domain.DLS.key

type ('k, 'v) t = { spec : ('k, 'v) spec; home : ('k, 'v) home }
type sharing = Shared | Per_domain | Local

let new_table () =
  { buckets = Array.make 8 []; size = 0; t_hits = 0; t_misses = 0; t_evictions = 0 }

(* every size change goes through here: the family gauge follows it, and
   a table counts toward the family capacity while it holds entries *)
let set_size s tbl n =
  Obs.add_gauge s.fam.entries (n - tbl.size);
  if tbl.size = 0 && n > 0 then ignore (Atomic.fetch_and_add s.fam.capacity s.cap)
  else if tbl.size > 0 && n = 0 then ignore (Atomic.fetch_and_add s.fam.capacity (-s.cap));
  tbl.size <- n

let slot tbl h = h land (Array.length tbl.buckets - 1)

let rec find_cell s h k = function
  | [] -> None
  | c :: rest -> if c.hash = h && s.key_equal c.key k then Some c else find_cell s h k rest

let drop_all s tbl =
  let values = Array.fold_left (List.fold_left (fun acc c -> c.value :: acc)) [] tbl.buckets in
  Array.fill tbl.buckets 0 (Array.length tbl.buckets) [];
  set_size s tbl 0;
  tbl.t_hits <- 0;
  tbl.t_misses <- 0;
  tbl.t_evictions <- 0;
  List.iter s.on_drop values

(* second chance: clear every recently-used bit and drop the entries not
   used since the previous sweep until half the capacity is free; when
   everything was used, drop arbitrary entries *)
let evict s tbl =
  let want = max 1 (s.cap / 2) in
  let n = ref 0 and dropped = ref [] in
  let sweep ~second_chance =
    Array.iteri
      (fun i cells ->
        tbl.buckets.(i) <-
          List.filter
            (fun c ->
              let spared = second_chance && c.live in
              c.live <- false;
              if !n < want && not spared then (
                incr n;
                dropped := c.value :: !dropped;
                false)
              else true)
            cells)
      tbl.buckets
  in
  sweep ~second_chance:true;
  if !n < want then sweep ~second_chance:false;
  tbl.t_evictions <- tbl.t_evictions + !n;
  Obs.add s.fam.evictions !n;
  set_size s tbl (tbl.size - !n);
  List.iter s.on_drop !dropped

let grow tbl =
  let old = tbl.buckets in
  tbl.buckets <- Array.make (2 * Array.length old) [];
  Array.iter
    (List.iter (fun c ->
         let i = slot tbl c.hash in
         tbl.buckets.(i) <- c :: tbl.buckets.(i)))
    old

let lookup s tbl h k =
  match find_cell s h k tbl.buckets.(slot tbl h) with
  | Some c ->
    c.live <- true;
    tbl.t_hits <- tbl.t_hits + 1;
    Obs.incr s.fam.hits;
    Some c.value
  | None ->
    tbl.t_misses <- tbl.t_misses + 1;
    Obs.incr s.fam.misses;
    None

let insert s tbl h k v =
  match find_cell s h k tbl.buckets.(slot tbl h) with
  | Some c -> c.value
  | None ->
    if tbl.size >= s.cap then evict s tbl;
    if tbl.size >= 2 * Array.length tbl.buckets then grow tbl;
    let i = slot tbl h in
    tbl.buckets.(i) <- { key = k; hash = h; value = v; live = true } :: tbl.buckets.(i);
    set_size s tbl (tbl.size + 1);
    v

let create ?(hash = Hashtbl.hash) ?(equal = fun a b -> compare a b = 0)
    ?(on_drop = ignore) sharing name ~capacity =
  let spec =
    { fam = family name; cap = max 1 capacity; key_hash = hash; key_equal = equal; on_drop }
  in
  let home =
    match sharing with
    | Local -> Local_table (new_table ())
    | Shared -> Locked (new_table (), Mutex.create ())
    | Per_domain ->
      Domain_table
        (Domain.DLS.new_key (fun () ->
             let tbl = new_table () in
             Domain.at_exit (fun () -> drop_all spec tbl);
             tbl))
  in
  { spec; home }

let with_table t f =
  match t.home with
  | Local_table tbl -> f tbl
  | Locked (tbl, lock) -> Mutex.protect lock (fun () -> f tbl)
  | Domain_table key -> f (Domain.DLS.get key)

let find t k =
  let h = t.spec.key_hash k land max_int in
  with_table t (fun tbl -> lookup t.spec tbl h k)

let add t k v =
  let h = t.spec.key_hash k land max_int in
  with_table t (fun tbl -> insert t.spec tbl h k v)

let find_or_add t k f = match find t k with Some v -> v | None -> add t k (f ())
let clear t = with_table t (drop_all t.spec)

type stats = { hits : int; misses : int; evictions : int; entries : int; capacity : int }

let stats t =
  with_table t (fun tbl ->
      {
        hits = tbl.t_hits;
        misses = tbl.t_misses;
        evictions = tbl.t_evictions;
        entries = tbl.size;
        capacity = t.spec.cap;
      })

let report () =
  Mutex.protect families_lock (fun () ->
      Hashtbl.fold
        (fun name (f : family) acc ->
          ( name,
            {
              hits = Obs.count f.hits;
              misses = Obs.count f.misses;
              evictions = Obs.count f.evictions;
              entries = Obs.gauge_value f.entries;
              capacity = Atomic.get f.capacity;
            } )
          :: acc)
        families [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
