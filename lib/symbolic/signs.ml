open Pperf_num

type sign = Interval.sign = Neg | Zero | Pos | Mixed

type region = { range : Interval.t; sign : sign }

let sign_of_rat r =
  let s = Rat.sign r in
  if s > 0 then Pos else if s < 0 then Neg else Zero

let regions p x iv =
  match Poly.to_const p with
  | Some c -> [ { range = iv; sign = sign_of_rat c } ]
  | None ->
    let encls = Roots.isolate p x iv in
    (* Build an ordered list of cut intervals; sample sign between them. *)
    let eval_sign v = sign_of_rat (Roots.eval_at p x v) in
    let lo_b = Interval.lo iv and hi_b = Interval.hi iv in
    let acc = ref [] in
    let push range sign = acc := { range; sign } :: !acc in
    let cursor = ref lo_b in
    let sample_between a b =
      (* a, b : Interval.bound; return a rational strictly between *)
      match (a, b) with
      | Interval.Fin x, Interval.Fin y -> Rat.mul Rat.half (Rat.add x y)
      | Interval.Neg_inf, Interval.Fin y -> Rat.sub y Rat.one
      | Interval.Fin x, Interval.Pos_inf -> Rat.add x Rat.one
      | Interval.Neg_inf, Interval.Pos_inf -> Rat.zero
      | _ -> Rat.zero
    in
    let push_gap gap =
      match Interval.is_point gap with
      | Some v -> push gap (eval_sign v)
      | None -> push gap (eval_sign (sample_between (Interval.lo gap) (Interval.hi gap)))
    in
    List.iter
      (fun (e : Roots.enclosure) ->
        let root_lo = Interval.Fin e.lo and root_hi = Interval.Fin e.hi in
        (* the gap before this root *)
        (match Interval.intersect (Interval.make !cursor root_lo) iv with
         | Some gap -> push_gap gap
         | None -> ());
        push (Interval.make root_lo root_hi) Zero;
        cursor := root_hi)
      encls;
    (* final gap *)
    (match Interval.intersect (Interval.make !cursor hi_b) iv with
     | Some gap -> push_gap gap
     | None -> ());
    (* merge adjacent regions with identical sign; drop empty point-gaps
       duplicated at region boundaries *)
    let merged =
      List.fold_left
        (fun out r ->
          match out with
          | prev :: rest when prev.sign = r.sign ->
            { range = Interval.union prev.range r.range; sign = r.sign } :: rest
          | _ -> r :: out)
        [] (List.rev !acc)
    in
    List.rev merged

let rec sign_over ?oracle ?(depth = 3) env p =
  let base =
    match Interval.sign_of_poly env p with
    | Mixed ->
      (* a relational oracle (e.g. octagon facts from {!Pperf_absint}) may
         know a sign the variable box cannot express *)
      (match oracle with Some f -> Interval.sign (f p) | None -> Mixed)
    | s -> s
  in
  match base with
  | (Pos | Neg | Zero) as s -> s
  | Mixed when depth <= 0 -> Mixed
  | Mixed ->
    (* split the widest finite variable range and recurse *)
    let bindings = Interval.Env.bindings env in
    let widest =
      List.fold_left
        (fun best (x, iv) ->
          if not (Poly.mem_var x p) then best
          else
            match (Interval.width iv, best) with
            | Some w, Some (_, _, bw) when Rat.compare w bw > 0 -> Some (x, iv, w)
            | Some w, None -> Some (x, iv, w)
            | _ -> best)
        None bindings
    in
    (match widest with
     | None -> Mixed
     | Some (x, iv, w) ->
       if Rat.sign w <= 0 then Mixed
       else (
         let m = Interval.midpoint iv in
         let left = Interval.make (Interval.lo iv) (Interval.Fin m) in
         let right = Interval.make (Interval.Fin m) (Interval.hi iv) in
         let s1 = sign_over ?oracle ~depth:(depth - 1) (Interval.Env.add x left env) p in
         if s1 = Mixed then Mixed
         else (
           let s2 = sign_over ?oracle ~depth:(depth - 1) (Interval.Env.add x right env) p in
           match (s1, s2) with
           | a, b when a = b -> a
           | Pos, Zero | Zero, Pos -> Pos (* zero only on the seam boundary *)
           | Neg, Zero | Zero, Neg -> Neg
           | _ -> Mixed)))

type verdict =
  | Always_le
  | Always_ge
  | Equal
  | Crossover of region list
  | Undecided of Poly.t

let compare_over ?oracle env cf cg =
  let d = Poly.sub cf cg in
  if Poly.is_zero d then Equal
  else
    match sign_over ?oracle env d with
    | Neg -> Always_le
    | Pos -> Always_ge
    | Zero -> Equal
    | Mixed ->
      (match Poly.is_univariate d with
       | Some x ->
         let iv = Interval.Env.find x env in
         let iv =
           (* the oracle may clip an unbounded variable to a finite range *)
           match oracle with
           | Some f -> (
             match Interval.intersect iv (f (Poly.var x)) with
             | Some m -> m
             | None -> iv)
           | None -> iv
         in
         let rs = regions d x iv in
         (* the regions may still be single-signed if interval arith was too
            coarse *)
         let has_pos = List.exists (fun r -> r.sign = Pos) rs in
         let has_neg = List.exists (fun r -> r.sign = Neg) rs in
         if has_pos && not has_neg then Always_ge
         else if has_neg && not has_pos then Always_le
         else if (not has_pos) && not has_neg then Equal
         else Crossover rs
       | None -> Undecided d)

let pp_sign fmt = function
  | Pos -> Format.pp_print_string fmt "+"
  | Neg -> Format.pp_print_string fmt "-"
  | Zero -> Format.pp_print_string fmt "0"
  | Mixed -> Format.pp_print_string fmt "?"

let pp_region fmt r = Format.fprintf fmt "%a on %a" pp_sign r.sign Interval.pp r.range

let pp_verdict fmt = function
  | Always_le -> Format.pp_print_string fmt "first <= second over the whole range"
  | Always_ge -> Format.pp_print_string fmt "first >= second over the whole range"
  | Equal -> Format.pp_print_string fmt "equal"
  | Crossover rs ->
    Format.fprintf fmt "crossover: %a"
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ") pp_region)
      rs
  | Undecided p -> Format.fprintf fmt "undecided; run-time test on sign of %a" Poly.pp p
