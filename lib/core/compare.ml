(** Symbolic comparison of performance expressions (§3.1–3.2).

    Wraps {!Pperf_symbolic.Signs.compare_over} with performance-expression
    conveniences: evaluate both candidates, decide over the variable
    ranges, and when undecidable produce the run-time test condition.
    Probability variables default to the range [0,1] if the caller's
    environment does not bind them. *)

open Pperf_num
open Pperf_symbolic

type choice = First | Second | Either

type decision = {
  verdict : Signs.verdict;
  recommended : choice;
      (** when the verdict has regions or is undecided, the choice that
          wins on the larger share of the range (by P⁻/P⁺ measure or at
          the midpoint) *)
  difference : Poly.t;  (** [C(first) - C(second)] *)
}

let widen_env env diff =
  (* default probability unknowns to [0,1], trip counts to n >= 0 *)
  List.fold_left
    (fun env v ->
      match Interval.Env.find_opt v env with
      | Some _ -> env
      | None ->
        if String.length v > 0 && v.[0] = 'p' then Interval.Env.add v Interval.unit_prob env
        else Interval.Env.add v Interval.nonneg env)
    env (Poly.vars diff)

(* Eliminate variables the environment pins to a single value: a
   multivariate difference like c*n*m with m in [8,8] becomes univariate in
   n, which the root-isolation path of {!Signs.compare_over} can decide
   where interval subdivision over unbounded boxes cannot. *)
let subst_points env p =
  List.fold_left
    (fun p (x, iv) ->
      match Interval.is_point iv with
      | Some r when Poly.mem_var x p -> Poly.subst x (Poly.const r) p
      | _ -> p)
    p (Interval.Env.bindings env)

type rel_facts = {
  rel_domain : Pperf_absint.Absint.domain;
  rel_rewrites : (string * Poly.t) list;
  rel_oracle : Poly.t -> Interval.t;
  rel_show : string list;
}

let inferred_rel ?(base = Interval.Env.empty) ?(domain = Pperf_absint.Absint.Box) checkeds =
  let module A = Pperf_absint.Absint in
  let results = List.map (A.analyze ~domain) checkeds in
  let inferred =
    List.fold_left
      (fun env res ->
        List.fold_left
          (fun env (x, iv) ->
            match Interval.Env.find_opt x env with
            | Some cur -> Interval.Env.add x (Interval.union cur iv) env
            | None -> Interval.Env.add x iv env)
          env
          (Interval.Env.bindings (A.summary res)))
      Interval.Env.empty results
  in
  (* explicit caller bindings win over inferred ones *)
  let env =
    List.fold_left
      (fun env (x, iv) -> Interval.Env.add x iv env)
      inferred
      (Interval.Env.bindings base)
  in
  let rel =
    if domain = A.Box then None
    else
      match List.map A.summary_rel results with
      | [] -> None
      | r :: tl ->
        (* join: only relations valid in every routine survive, so the
           oracle is sound for a cross-routine comparison *)
        let joined = List.fold_left Pperf_absint.Reldom.join r tl in
        let ivb v = Interval.Env.find v env in
        Some
          {
            rel_domain = domain;
            rel_rewrites = Pperf_absint.Reldom.rewrites joined;
            rel_oracle = (fun p -> Pperf_absint.Reldom.bound ~ivb joined p);
            rel_show =
              List.map Pperf_absint.Lin.cons_to_string
                (Pperf_absint.Reldom.constraints joined);
          }
  in
  (env, rel)

let inferred_env ?base checkeds = fst (inferred_rel ?base checkeds)

let sp_compare = Pperf_obs.Obs.span "compare"

(* one decision counter per abstract domain, lazy so interval-only runs
   keep their historical counter set; forced under a lock, since worker
   domains may decide their first verdict in a domain at once *)
let c_decided =
  List.map
    (fun d -> (d, lazy (Pperf_obs.Obs.counter ("compare.decided." ^ d))))
    Pperf_absint.Absint.all_domains

let c_decided_lock = Mutex.create ()

let count_decided rel verdict =
  match verdict with
  | Signs.Always_le | Signs.Always_ge | Signs.Equal ->
    let dom =
      match rel with
      | Some r -> Pperf_absint.Absint.domain_to_string r.rel_domain
      | None -> "interval"
    in
    Pperf_obs.Obs.incr
      (Mutex.protect c_decided_lock (fun () -> Lazy.force (List.assoc dom c_decided)))
  | Signs.Crossover _ | Signs.Undecided _ -> ()

(* ---- comparison-level memo ----

   The sign analysis is the expensive half of [decide]; its verdict is a
   pure function of the two (rewritten, point-substituted) totals, the
   widened environment restricted to their variables, and the relational
   facts feeding the oracle. We key a per-domain memo on a digest of
   exactly those inputs. *)

let verdicts = Pperf_obs.Memo.create Pperf_obs.Memo.Per_domain "compare.memo" ~capacity:256

let verdict_digest ~rel ~env f g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Poly.to_string f);
  Buffer.add_char buf '|';
  Buffer.add_string buf (Poly.to_string g);
  Buffer.add_char buf '|';
  (* env restricted to the variables the analysis can see, in sorted
     binding order so equal environments digest equally *)
  let vars = List.sort_uniq String.compare (Poly.vars f @ Poly.vars g) in
  List.iter
    (fun v ->
      match Interval.Env.find_opt v env with
      | Some iv ->
        Buffer.add_string buf v;
        Buffer.add_char buf '=';
        Buffer.add_string buf (Interval.to_string iv);
        Buffer.add_char buf ';'
      | None -> ())
    vars;
  Buffer.add_char buf '|';
  (* rewrites are already applied to f/g; the oracle's influence is pinned
     by the rendered relations + domain *)
  Option.iter
    (fun r ->
      Buffer.add_string buf (Pperf_absint.Absint.domain_to_string r.rel_domain);
      List.iter
        (fun s ->
          Buffer.add_char buf ';';
          Buffer.add_string buf s)
        r.rel_show)
    rel;
  Digest.string (Buffer.contents buf)

let apply_rewrites rel p =
  match rel with
  | None -> p
  | Some r ->
    List.fold_left
      (fun p (x, q) ->
        if Poly.mem_var x p && Poly.min_degree_in x p >= 0 then Poly.subst x q p else p)
      p r.rel_rewrites

let decide ?rel env (cf : Perf_expr.t) (cg : Perf_expr.t) : decision =
  Pperf_obs.Obs.time sp_compare @@ fun () ->
  (* affine rewrites ([m = 2*n]) eliminate coupled variables exactly, which
     can collapse a multivariate difference to a decidable one *)
  let f = subst_points env (apply_rewrites rel (Perf_expr.total cf))
  and g = subst_points env (apply_rewrites rel (Perf_expr.total cg)) in
  let diff = Poly.sub f g in
  let env = widen_env env diff in
  let key = verdict_digest ~rel ~env f g in
  let verdict =
    Pperf_obs.Memo.find_or_add verdicts key (fun () ->
        let oracle = Option.map (fun r -> r.rel_oracle) rel in
        Signs.compare_over ?oracle env f g)
  in
  count_decided rel verdict;
  let recommended =
    match verdict with
    | Signs.Always_le -> First
    | Signs.Always_ge -> Second
    | Signs.Equal -> Either
    | Signs.Crossover regions -> (
      (* weigh by measure of the negative (first wins) vs positive part *)
      let measure sign =
        List.fold_left
          (fun acc (r : Signs.region) ->
            if r.sign = sign then
              match Interval.width r.range with
              | Some w -> Rat.add acc w
              | None -> Rat.add acc (Rat.of_int 1_000_000)
            else acc)
          Rat.zero regions
      in
      let neg = measure Signs.Neg and pos = measure Signs.Pos in
      match Rat.compare neg pos with
      | c when c > 0 -> First
      | 0 -> Either
      | _ -> Second)
    | Signs.Undecided _ -> (
      (* midpoint evaluation as the tie-breaker the compiler would use if
         forced to guess *)
      let v = Poly.eval (Interval.Env.midpoint_valuation env) diff in
      match Rat.sign v with
      | s when s < 0 -> First
      | 0 -> Either
      | _ -> Second)
  in
  { verdict; recommended; difference = diff }

let pp_choice fmt = function
  | First -> Format.pp_print_string fmt "first"
  | Second -> Format.pp_print_string fmt "second"
  | Either -> Format.pp_print_string fmt "either"

let pp_decision fmt d =
  Format.fprintf fmt "%a (recommend %a)" Signs.pp_verdict d.verdict pp_choice d.recommended
