(* "Load the machine once": every subcommand and every server request
   resolves its machine spec through this memo, so a .pmach file is read,
   parsed, and its derived tables (atomic-op chains, bin kind-candidates)
   built exactly once per distinct machine — the cold-start cost the
   one-shot CLI used to pay on every invocation, and a daemon must not
   pay on every request. *)

open Pperf_machine
open Pperf_translate

let builtin = function
  | "power1" -> Some Machine.power1
  | "power1x2" -> Some Machine.power1_wide
  | "alpha21064" | "alpha" -> Some Machine.alpha21064
  | "scalar" -> Some Machine.scalar
  | _ -> None

(* basic ops every translation asks for; mapping them at load time makes
   the shared chain memo effectively read-only before worker domains start
   hammering it *)
let common_basic_ops =
  Basic_op.
    [ B_iadd; B_isub; B_imul { small = true }; B_imul { small = false }; B_icmp;
      B_fadd Single; B_fsub Single; B_fmul Single; B_fma Single; B_fneg; B_fcmp;
      B_load { float = true }; B_load { float = false }; B_store { float = true };
      B_store { float = false }; B_branch; B_branch_cond; B_call ]

(* warming is purely an optimization: a machine that lacks one of the
   common ops must fail at translation time (with the op the translation
   actually needed), not at load time *)
let warm m =
  List.iter
    (fun b -> try ignore (Atomic_map.map m b) with Machine.Unknown_atomic _ -> ())
    common_basic_ops;
  ignore (Pperf_sched.Bins.create m)

(* warm once per machine (physical identity), so builtins served on every
   request do not rebuild their bins structure per request; a concurrent
   double-warm is harmless (warm is idempotent), the CAS only keeps the
   memo list consistent *)
let warmed : Machine.t list Atomic.t = Atomic.make []

let ensure_warm m =
  if not (List.memq m (Atomic.get warmed)) then (
    warm m;
    let rec publish () =
      let old = Atomic.get warmed in
      if List.memq m old then ()
      else if not (Atomic.compare_and_set warmed old (m :: old)) then publish ()
    in
    publish ())

let lock = Mutex.create ()
let with_lock f = Mutex.protect lock f

(* parse memo for file-based machines, keyed by the file's content digest
   (content-addressed: re-reading a changed file loads the new machine,
   re-reading an unchanged one is a table lookup) *)
let by_digest : (string, Machine.t) Hashtbl.t = Hashtbl.create 8

(* physically-keyed digest memo: Descr.to_string is canonical, so the
   digest identifies the machine's content wherever it came from *)
let hashes : (Machine.t * string) list Atomic.t = Atomic.make []

let hash (m : Machine.t) =
  match List.assq_opt m (Atomic.get hashes) with
  | Some h -> h
  | None ->
    let h = Digest.to_hex (Digest.string (Descr.to_string m)) in
    let rec publish () =
      let old = Atomic.get hashes in
      if List.mem_assq m old then ()
      else if Atomic.compare_and_set hashes old ((m, h) :: old) then ()
      else publish ()
    in
    publish ();
    h

let load spec =
  match builtin spec with
  | Some m ->
    ensure_warm m;
    m
  | None ->
    if Sys.file_exists spec then (
      let text = In_channel.with_open_bin spec In_channel.input_all in
      let digest = Digest.string text in
      with_lock (fun () ->
          match Hashtbl.find_opt by_digest digest with
          | Some m -> m
          | None ->
            let m = Descr.of_string text in
            ensure_warm m;
            Hashtbl.add by_digest digest m;
            m))
    else
      failwith
        (Printf.sprintf "unknown machine %s (power1|power1x2|alpha21064|scalar|FILE)" spec)

let loaded_count () = with_lock (fun () -> Hashtbl.length by_digest)
