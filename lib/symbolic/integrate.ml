open Pperf_num

let antiderivative x p =
  Poly.terms p
  |> List.map (fun (c, m) ->
         let k = Monomial.exponent x m in
         if k = -1 then
           invalid_arg "Integrate.antiderivative: x^-1 term has no polynomial antiderivative";
         let m' = Monomial.mul m (Monomial.var x) in
         (Rat.div c (Rat.of_int (k + 1)), m'))
  |> Poly.of_terms

let integral p x a b =
  let anti = antiderivative x p in
  Rat.sub (Roots.eval_at anti x b) (Roots.eval_at anti x a)

type split = {
  pos_measure : Rat.t;
  neg_measure : Rat.t;
  pos_integral : Rat.t;
  neg_integral : Rat.t;
}

let pos_neg_split p x iv =
  let a, b =
    match (Interval.lo iv, Interval.hi iv) with
    | Interval.Fin a, Interval.Fin b -> (a, b)
    | _ -> invalid_arg "Integrate.pos_neg_split: unbounded interval"
  in
  ignore b;
  ignore a;
  let rs = Signs.regions p x iv in
  List.fold_left
    (fun acc (r : Signs.region) ->
      match (Interval.lo r.range, Interval.hi r.range) with
      | Interval.Fin lo, Interval.Fin hi ->
        let w = Rat.sub hi lo in
        (match r.sign with
         | Signs.Pos ->
           { acc with
             pos_measure = Rat.add acc.pos_measure w;
             pos_integral = Rat.add acc.pos_integral (integral p x lo hi);
           }
         | Signs.Neg ->
           { acc with
             neg_measure = Rat.add acc.neg_measure w;
             neg_integral = Rat.add acc.neg_integral (Rat.neg (integral p x lo hi));
           }
         | _ -> acc)
      | _ -> acc)
    { pos_measure = Rat.zero; neg_measure = Rat.zero;
      pos_integral = Rat.zero; neg_integral = Rat.zero }
    rs

let pp_split fmt s =
  Format.fprintf fmt "P+ on length %a (area %a); P- on length %a (area %a)"
    Rat.pp s.pos_measure Rat.pp s.pos_integral Rat.pp s.neg_measure Rat.pp s.neg_integral
