(** Fit an issue-port cost model ({!Pperf_machine.Costmodel.Ports}) to an
    existing machine by measurement.

    The target machine is treated as a black box reachable only through
    {!Interp}: calibration runs a fixed suite of microbenchmark kernels
    (steady-state reduction loops whose per-iteration slope isolates one op
    family's reciprocal throughput, and straight-line dependence chains
    whose slope is a result latency) and then searches for the port
    structure and µop table whose {e forward predictions} — the same
    kernels re-run through the same interpreter under the candidate
    machine — best match the measurements.

    Ops the kernels cannot observe individually get documented defaults:
    integer/logic aliases share the fitted [iadd], [store_int] shares
    [store_fp], intrinsics are scaled from the fitted divide, [call] is a
    fixed 2-µop integer sequence, and [has_fma] is pinned off (fusion is
    also disabled during measurement so op mixes match). *)

open Pperf_machine

type measurement = {
  label : string;  (** kernel name, e.g. ["fp x4"] or ["iadd chain"] *)
  oracle : float;  (** cycles measured on the target machine *)
  fitted : float;  (** same probe re-run under the fitted machine *)
  rel_err : float;  (** [|fitted - oracle| / max 1 |oracle|] *)
}

type t = {
  machine : Machine.t;  (** the fitted ports machine, named ["<target>+fit"] *)
  description : string;  (** [Descr.to_string machine] — a v2 [.pmach] *)
  measurements : measurement list;
  max_rel_err : float;
  tolerance : float;
  ok : bool;  (** [max_rel_err <= tolerance] *)
}


val run : machine:Machine.t -> ?tolerance:float -> unit -> t
(** Calibrate against [machine]. Runs a few hundred interpreter
    executions; typically well under a second per machine. *)

val report : t -> string
(** Human-readable table of every probe plus the fitted description —
    shared verbatim by the CLI verb and the server verb. *)
