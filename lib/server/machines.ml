(* "Load the machine once": every subcommand and every server request
   resolves its machine spec through here. A builtin is one value per
   process (Descr.builtin); a .pmach file is parsed once per content
   digest while it stays in the shared memo, so a daemon does not re-parse
   it on every request. Tables
   derived from a machine (atomic-op chains, its digest) are memoized by
   the modules that build them, per worker domain, keyed by the machine's
   physical identity. *)

open Pperf_machine
module Memo = Pperf_obs.Memo

(* parse memo for file-based machines, keyed by the file's content digest
   (content-addressed: re-reading a changed file loads the new machine,
   re-reading an unchanged one is a lookup). 16 files: a daemon serves a
   handful of machines, and every machine-keyed memo keeps 16. *)
let files = Memo.create Memo.Shared "machines.files" ~capacity:16

(* Descr.to_string is canonical, so the digest identifies the machine's
   content wherever it came from *)
let digests =
  Memo.create ~hash:Machine.hash ~equal:( == ) Memo.Per_domain "machines.digests" ~capacity:16

let hash m =
  Memo.find_or_add digests m (fun () -> Digest.to_hex (Digest.string (Descr.to_string m)))

let load spec =
  match Descr.builtin spec with
  | m -> m
  | exception Not_found ->
    if Sys.file_exists spec then (
      let text = In_channel.with_open_bin spec In_channel.input_all in
      Memo.find_or_add files (Digest.string text) (fun () -> Descr.of_string text))
    else
      failwith
        (Printf.sprintf "unknown machine %s (%s|FILE)" spec
           (String.concat "|" Descr.builtin_names))

let loaded_count () = (Memo.stats files).entries
