(* Distributed-memory prediction: HPF-style layouts feed the communication
   cost model; the total expression mixes cpu, memory and message-passing
   cycles, all symbolic in the grid size n and comparable as one unit.

     dune exec examples/distributed.exe
*)

open Pperf_machine
open Pperf_symbolic
open Pperf_commcost
open Pperf_core

(* a 1-D block-distributed relaxation: reads left and right neighbours *)
let source = {|
subroutine relax(u, v, n)
  integer n, i
  real u(100000), v(100000)
  do i = 2, n - 1
    v(i) = 0.5 * u(i) + 0.25 * (u(i-1) + u(i+1))
  end do
end
|}

let () =
  (* give power1 T3D-ish message-passing parameters *)
  let machine =
    { (Descr.builtin "power1") with
      Machine.comm = Some { processors = 16; startup_cycles = 1200; per_byte_cycles = 0.4 } }
  in
  let layouts =
    [ ("u", { Commcost.ldist = [ Commcost.Block ] });
      ("v", { Commcost.ldist = [ Commcost.Block ] }) ]
  in
  let options =
    { Aggregate.default_options with include_memory = true; layouts = Some layouts }
  in
  let p = Predict.of_source ~options ~machine source in
  Format.printf "distributed relaxation on 16 processors:@.  %a@.@." Predict.pp p;

  Format.printf "%-8s %12s %12s %12s@." "n" "cpu" "memory" "comm";
  List.iter
    (fun n ->
      let at cat = Poly.eval_float (fun v -> if v = "n" then n else 1.0) cat in
      let c = Predict.cost p in
      Format.printf "%-8.0f %12.0f %12.0f %12.0f@." n (at c.Perf_expr.cpu) (at c.mem) (at c.comm))
    [ 1000.; 10000.; 100000. ];

  (* the communication events the analyzer recognized *)
  let checked =
    Pperf_lang.Typecheck.check_routine (Pperf_lang.Parser.parse_routine source)
  in
  let comm = Option.get machine.Machine.comm in
  let events =
    Commcost.analyze_nest ~comm ~symtab:checked.symbols ~layouts [] checked.routine.body
  in
  Format.printf "@.recognized communication:@.";
  List.iter
    (fun (e : Commcost.event) ->
      let kind =
        match e.pattern with
        | Commcost.Shift { offset; _ } -> Printf.sprintf "shift by %d" offset
        | Broadcast _ -> "broadcast"
        | Reduce _ -> "reduce"
        | Gather _ -> "gather"
        | Local -> "local"
      in
      Format.printf "  %s of %s@." kind e.array)
    events;

  (* validate against the message-counting simulator at n = 1024 *)
  let msgs, bytes =
    Commcost.Sim.count_messages ~comm ~symtab:checked.symbols ~layouts
      ~bounds:(fun v -> if v = "p" then 16 else 1024)
      [] checked.routine.body
  in
  Format.printf "@.simulator at n=1024, p=16: %d messages, %d bytes@." msgs bytes;
  Format.printf "(static shift model: 2 boundary messages on the critical path;@.";
  Format.printf " the simulator counts all %d point-to-point neighbour pairs)@." msgs
