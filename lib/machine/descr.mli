(** Textual machine descriptions.

    The paper argues portability comes from keeping all architecture
    knowledge in tables: "Adding a new architecture to the cost model is a
    matter of defining the atomic operation mapping and the atomic operation
    cost table" (§2.2.1). This module gives those tables a concrete textual
    form, a small S-expression dialect:

    {v
    (machine (name power1)
      (issue-width 4)
      (branch-taken-cycles 3)
      (register-load-limit 24)
      (fma true)
      (units (FXU fxu) (FPU fpu) (BR branch) (CR cr) (LSU lsu))
      (atomics
        (fadd (FPU 1 1))
        (store_fp (FPU 1 1) (FXU 1 0) (LSU 1 0)))
      (cache (line-bytes 128) (cache-bytes 65536) (associativity 4)
             (miss-cycles 12) (tlb-entries 128) (page-bytes 4096)
             (tlb-miss-cycles 36)))
    v}

    The v2 {e ports} dialect describes issue-port machines
    ({!Costmodel.Ports}): [(model ports)] selects the model, [(ports p0 p1
    ...)] replaces [(units ...)], and each atomic op lists µop groups —
    [(fadd (latency 3) (uops (p0|p1 1)))] is one µop eligible on either of
    two ports with a 3-cycle result latency. [latency] defaults to the
    op's total µop count:

    {v
    (machine (name ooo4)
      (model ports)
      (issue-width 4)
      (ports p0 p1 p2 p3)
      (atomics
        (fadd (latency 3) (uops (p0|p1 1)))
        (load_fp (latency 4) (uops (p2|p3 1)))))
    v} *)

exception Parse_error of string
(** Raised with a line-annotated message on malformed input — including
    duplicate unit, port or atomic-op names, a classic op naming one unit
    twice, unknown units/ports, negative costs and malformed fields. *)

val of_string : string -> Machine.t
val to_string : Machine.t -> string
(** Round-trips through {!of_string} (up to whitespace). *)

(** {1 The shipped machines}

    The builtin machines are the [machines/NAME.pmach] files, whose text
    is embedded at build time: the files are their only copy. *)

val builtin_names : string list
(** [power1], [power1x2], [alpha21064], [scalar], in that order. *)

val builtin : string -> Machine.t
(** The builtin of that name, or [alpha21064] for its alias [alpha].
    Parsed on first use, once per process, so every lookup of one machine
    gives one physical value. Domain-safe.
    @raise Not_found for any other name. *)
