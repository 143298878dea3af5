(* Responses leave a session in request order: a worker finishing request
   [n] parks its response and whoever holds the next-to-emit response
   drains the run. *)

module Protocol = Pperf_server.Protocol

(* response-write latency (the last lifecycle stage a request sees) *)
let h_write = Pperf_obs.Obs.histogram "server.write_ns"

type t = {
  write : string -> unit;
  flush_out : unit -> unit;
  flush_each : bool;
  lock : Mutex.t;
  advanced : Condition.t;  (** signalled whenever [next] moves or the peer dies *)
  parked : (int, Protocol.response) Hashtbl.t;
  mutable next : int;
  dead : bool Atomic.t;
      (** a write failed (peer hung up): stop emitting so the session can
          unwind instead of parking every later response forever. Set
          under [lock]; atomic so the read loop can poll it without
          queueing behind a worker that is writing. *)
}

let create ?(flush_each = false) ~write ~flush () =
  { write; flush_out = flush; flush_each; lock = Mutex.create ();
    advanced = Condition.create (); parked = Hashtbl.create 16; next = 0;
    dead = Atomic.make false }

(* emit is called from worker domains whose exceptions the core swallows,
   so a failed write must not be silently dropped: the entry stays parked,
   [next] only advances on success, and [dead] tells the read loop to stop *)
let emit seq n response =
  Mutex.protect seq.lock (fun () ->
      Hashtbl.replace seq.parked n response;
      let advanced = ref false in
      let rec pump () =
        if not (Atomic.get seq.dead) then
          match Hashtbl.find_opt seq.parked seq.next with
          | None -> ()
          | Some r -> (
            let t0 = Unix.gettimeofday () in
            match seq.write (Protocol.response_line r ^ "\n") with
            | () ->
              Pperf_obs.Obs.record h_write
                (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
              Hashtbl.remove seq.parked seq.next;
              seq.next <- seq.next + 1;
              advanced := true;
              pump ()
            | exception (Sys_error _ | Unix.Unix_error _) -> Atomic.set seq.dead true)
      in
      pump ();
      if seq.flush_each && not (Atomic.get seq.dead) then (
        try seq.flush_out ()
        with Sys_error _ | Unix.Unix_error _ -> Atomic.set seq.dead true);
      if !advanced || Atomic.get seq.dead then Condition.broadcast seq.advanced)

let dead seq = Atomic.get seq.dead

let wait seq ~upto =
  Mutex.protect seq.lock (fun () ->
      while seq.next < upto && not (Atomic.get seq.dead) do
        Condition.wait seq.advanced seq.lock
      done;
      not (Atomic.get seq.dead))
