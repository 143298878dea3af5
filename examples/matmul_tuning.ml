(* Choosing the unroll factor of a matrix-multiply inner loop by symbolic
   comparison — the paper's motivating use of performance prediction in
   program restructuring (§3).

     dune exec examples/matmul_tuning.exe
*)

open Pperf_lang
open Pperf_machine
open Pperf_sched
open Pperf_backend
open Pperf_core

let machine = Descr.builtin "power1"

let matmul_with_unroll factor =
  let base =
    "subroutine mm(a, b, c, n)\n  integer n, i, j, k\n\
    \  real a(512,512), b(512,512), c(512,512)\n\
    \  do i = 1, n\n    do j = 1, n\n      do k = 1, 512\n\
    \        c(i,j) = c(i,j) + a(i,k) * b(k,j)\n      end do\n    end do\n  end do\nend\n"
  in
  let checked = Typecheck.check_routine (Parser.parse_routine base) in
  if factor = 1 then checked
  else (
    (* unroll the innermost (k) loop *)
    let loops = Pperf_transform.Transformations.loops_in checked.routine in
    let path, d = List.nth loops 2 in
    match Pperf_transform.Transformations.unroll_exact ~factor d with
    | Some repl ->
      let r = Option.get (Pperf_transform.Transformations.replace_at checked.routine path repl) in
      Typecheck.check_routine (Parser.parse_routine (Pp_ast.routine_to_string r))
    | None -> failwith "unroll failed")

let () =
  Format.printf "Tuning the matmul inner loop unroll factor on %s@.@." machine.Machine.name;
  Format.printf "%-8s %-28s %14s %12s@." "factor" "cost expression" "pred @n=256" "oracle/iter";
  let candidates =
    List.map
      (fun factor ->
        let checked = matmul_with_unroll factor in
        let pred = Aggregate.routine ~machine checked in
        let at_256 =
          Pperf_symbolic.Poly.eval_float
            (fun v -> if v = "n" then 256.0 else 64.0)
            (Perf_expr.total pred.cost)
        in
        (* oracle: steady-state cycles per original iteration of the body *)
        let loops, body = List.hd (Analysis.innermost_bodies checked.routine.body) in
        let loop_vars = List.map (fun (l : Analysis.loop_ctx) -> l.lvar) loops in
        let assigned = Analysis.assigned_vars checked.routine.body in
        let invariants =
          Analysis.SSet.diff
            (Analysis.SSet.union (Analysis.used_vars checked.routine.body) assigned)
            assigned
        in
        let res =
          Pperf_translate.Translator.translate_block ~machine ~symtab:checked.symbols
            ~loop_vars ~invariants body
        in
        let dag =
          Dag.concat res.body (Pperf_translate.Translator.loop_overhead_dag ~machine ())
        in
        let oracle =
          float_of_int (Pipeline.reference_cycles machine (Dag.repeat dag 8))
          /. (8.0 *. float_of_int factor)
        in
        let expr = Pperf_symbolic.Poly.to_string (Perf_expr.total pred.cost) in
        let expr = if String.length expr > 28 then String.sub expr 0 25 ^ "..." else expr in
        Format.printf "%-8d %-28s %14.0f %12.2f@." factor expr at_256 oracle;
        (factor, pred.cost, at_256, oracle))
      [ 1; 2; 4; 8 ]
  in
  (* pick by predicted cost, confirm against the oracle *)
  let by_pred =
    List.fold_left (fun best (f, _, v, _) ->
        match best with Some (_, bv) when bv <= v -> best | _ -> Some (f, v)) None candidates
  in
  let by_oracle =
    List.fold_left (fun best (f, _, _, o) ->
        match best with Some (_, bo) when bo <= o -> best | _ -> Some (f, o)) None candidates
  in
  let pf = fst (Option.get by_pred) and obf = fst (Option.get by_oracle) in
  Format.printf "@.prediction picks unroll %d; the reference back-end agrees? %b@." pf (pf = obf);

  (* symbolic comparison between the top two candidates, without fixing n *)
  match candidates with
  | (_, c1, _, _) :: (_, c2, _, _) :: _ ->
    let env = Pperf_symbolic.Interval.Env.of_list
        [ ("n", Pperf_symbolic.Interval.of_ints 16 512) ] in
    let d = Compare.decide env c1 c2 in
    Format.printf "@.symbolic comparison of factor 1 vs factor 2 over n in [16,512]:@.  %a@."
      Compare.pp_decision d
  | _ -> ()
