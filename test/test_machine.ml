(* Tests for machine descriptions: units, atomic ops, the textual format. *)

open Pperf_machine

let test_atomic_op () =
  let make name comps =
    Atomic_op.make name
      (List.map
         (fun (u, nc, cv) ->
           { Atomic_op.unit_id = u; noncoverable = nc; coverable = cv; eligible = [| u |] })
         comps)
  in
  let op = make "fadd" [ (1, 1, 1) ] in
  Alcotest.(check int) "latency" 2 (Atomic_op.result_latency op);
  Alcotest.(check int) "busy" 1 (Atomic_op.busy_cycles op);
  let st = make "store_fp" [ (1, 1, 1); (0, 1, 0); (4, 1, 0) ] in
  Alcotest.(check int) "multi-unit busy" 3 (Atomic_op.busy_cycles st);
  Alcotest.(check int) "multi-unit latency" 2 (Atomic_op.result_latency st);
  Alcotest.(check bool) "component lookup" true (Atomic_op.component_on st 0 <> None);
  Alcotest.(check bool) "component missing" true (Atomic_op.component_on st 2 = None);
  Alcotest.check_raises "negative cost" (Invalid_argument "Atomic_op.make: negative cost")
    (fun () -> ignore (make "x" [ (0, -1, 0) ]));
  Alcotest.check_raises "empty eligible set" (Invalid_argument "Atomic_op.make: empty eligible set")
    (fun () ->
      ignore
        (Atomic_op.make "x"
           [ { Atomic_op.unit_id = 0; noncoverable = 1; coverable = 0; eligible = [||] } ]));
  (* a classic op names each unit once *)
  Alcotest.check_raises "duplicate unit" (Invalid_argument "Machine.make: op x names unit 0 twice")
    (fun () ->
      ignore
        (Machine.make ~name:"m" ~units:[ ("U", Funit.Fixed_point) ]
           ~atomics:[ ("x", [ (0, 1, 0); (0, 1, 0) ]) ] ()))

let test_power1 () =
  let m = Descr.builtin "power1" in
  Alcotest.(check int) "5 units" 5 (Machine.num_units m);
  Alcotest.(check bool) "has fma" true m.has_fma;
  (* the paper's stated costs *)
  let fadd = Machine.atomic m "fadd" in
  Alcotest.(check int) "fadd = 1nc + 1cv" 2 (Atomic_op.result_latency fadd);
  Alcotest.(check int) "fadd busy 1" 1 (Atomic_op.busy_cycles fadd);
  let imul_s = Machine.atomic m "imul_small" and imul = Machine.atomic m "imul" in
  Alcotest.(check int) "imul small 3" 3 (Atomic_op.result_latency imul_s);
  Alcotest.(check int) "imul general 5" 5 (Atomic_op.result_latency imul);
  (* fp store: 2 cycles FPU (1 coverable) + 1 FXU *)
  let st = Machine.atomic m "store_fp" in
  (match Atomic_op.component_on st 1 with
   | Some c -> Alcotest.(check (pair int int)) "FPU comp" (1, 1) (c.noncoverable, c.coverable)
   | None -> Alcotest.fail "no FPU component");
  (match Atomic_op.component_on st 0 with
   | Some c -> Alcotest.(check (pair int int)) "FXU comp" (1, 0) (c.noncoverable, c.coverable)
   | None -> Alcotest.fail "no FXU component")

let test_machine_errors () =
  Alcotest.(check bool) "dangling unit rejected" true
    (try
       ignore (Machine.make ~name:"bad" ~units:[ ("U", Funit.Fixed_point) ]
                 ~atomics:[ ("op", [ (3, 1, 0) ]) ] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "missing op fails" true
    (try ignore (Machine.atomic (Descr.builtin "power1") "nosuchop"); false
     with Machine.Unknown_atomic { machine = "power1"; op = "nosuchop" } -> true)

let test_units_of_kind () =
  let fpus name = List.length (Machine.units_of_kind (Descr.builtin name) Funit.Float_point) in
  Alcotest.(check int) "power1 one fpu" 1 (fpus "power1");
  Alcotest.(check int) "wide two fpu" 2 (fpus "power1x2")

(* A builtin is one physical value per process: the memos derived from a
   machine (translate.atomic_chains, machines.digests) key it by [==], so
   a parse per lookup would make every request cold. This case runs first,
   while no builtin is parsed yet, so its two domains race to parse each. *)
let test_builtin_identity () =
  let go = Atomic.make false in
  let load_all names () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    List.map (fun n -> (n, Descr.builtin n)) names
  in
  let d1 = Domain.spawn (load_all Descr.builtin_names) in
  let d2 = Domain.spawn (load_all (List.rev Descr.builtin_names)) in
  Atomic.set go true;
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  List.iter
    (fun n ->
      let m = Descr.builtin n in
      Alcotest.(check string) (n ^ " name") n m.Machine.name;
      Alcotest.(check bool) (n ^ ": one value in both domains") true
        (List.assoc n r1 == m && List.assoc n r2 == m))
    Descr.builtin_names;
  Alcotest.(check bool) "alpha is alpha21064" true
    (Descr.builtin "alpha" == Descr.builtin "alpha21064");
  Alcotest.check_raises "unknown name" Not_found (fun () -> ignore (Descr.builtin "power2"))

let test_descr_roundtrip () =
  List.iter
    (fun m ->
      let txt = Descr.to_string m in
      let m2 = Descr.of_string txt in
      Alcotest.(check string) "name" m.Machine.name m2.Machine.name;
      Alcotest.(check int) "units" (Machine.num_units m) (Machine.num_units m2);
      Alcotest.(check int) "ops" (Machine.num_atomics m) (Machine.num_atomics m2);
      Alcotest.(check int) "issue width" m.issue_width m2.issue_width;
      Alcotest.(check bool) "fma" m.has_fma m2.has_fma;
      Alcotest.(check int) "cache line" m.cache.line_bytes m2.cache.line_bytes;
      (* costs survive *)
      Machine.iter_atomics
        (fun name (op : Atomic_op.t) ->
          let op2 = Machine.atomic m2 name in
          Alcotest.(check int) (name ^ " latency") (Atomic_op.result_latency op)
            (Atomic_op.result_latency op2);
          Alcotest.(check int) (name ^ " busy") (Atomic_op.busy_cycles op)
            (Atomic_op.busy_cycles op2))
        m)
    (List.map Descr.builtin [ "power1"; "power1x2"; "scalar" ])

let test_descr_parse () =
  let m = Descr.of_string {|
(machine (name toy)
  (issue-width 2)
  (fma false)
  (units (ALU fxu) (FP fpu))
  (atomics
    (iadd (ALU 1 0))
    (fadd (FP 1 2))))
|} in
  Alcotest.(check string) "name" "toy" m.Machine.name;
  Alcotest.(check int) "fadd latency" 3 (Atomic_op.result_latency (Machine.atomic m "fadd"))

let test_alpha () =
  let m = Descr.builtin "alpha21064" in
  Alcotest.(check bool) "no fma" false m.Machine.has_fma;
  Alcotest.(check int) "dual issue" 2 m.issue_width;
  Alcotest.(check int) "fadd latency 6" 6 (Atomic_op.result_latency (Machine.atomic m "fadd"));
  Alcotest.(check int) "fadd busy 1 (pipelined)" 1 (Atomic_op.busy_cycles (Machine.atomic m "fadd"))

(* ---- cost models ---- *)

let test_costmodel_groups () =
  (* canonical_groups merges equal eligible sets regardless of order *)
  (match
     Costmodel.canonical_groups
       [ { Costmodel.eligible = [ 1; 0 ]; count = 1 };
         { Costmodel.eligible = [ 0; 1 ]; count = 2 } ]
   with
  | [ { Costmodel.eligible = [ 0; 1 ]; count = 3 } ] -> ()
  | _ -> Alcotest.fail "equal sets must merge");
  (* lower realises the latency; groups_of_op inverts the lowering *)
  let comps =
    Costmodel.lower ~latency:3 [ { Costmodel.eligible = [ 0; 1 ]; count = 3 } ]
  in
  let op = Atomic_op.make "x" comps in
  Alcotest.(check int) "latency realised" 3 (Atomic_op.result_latency op);
  Alcotest.(check int) "busy = µop count" 3 (Atomic_op.busy_cycles op);
  (match Costmodel.groups_of_op op with
  | [ { Costmodel.eligible = [ 0; 1 ]; count = 3 } ] -> ()
  | _ -> Alcotest.fail "groups_of_op must invert lower");
  Alcotest.(check bool) "negative count rejected" true
    (try
       ignore (Costmodel.canonical_groups [ { Costmodel.eligible = [ 0 ]; count = -1 } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty eligible set rejected" true
    (try
       ignore (Costmodel.canonical_groups [ { Costmodel.eligible = []; count = 1 } ]);
       false
     with Invalid_argument _ -> true)

let test_ports_throughput () =
  let m =
    Machine.make_ports ~name:"t" ~ports:[ "p0"; "p1"; "p2" ]
      ~atomics:
        [ ("one_any2", 1, [ ([ "p0"; "p1" ], 1) ]);
          ("two_any2", 1, [ ([ "p0"; "p1" ], 2) ]);
          ("mixed", 1, [ ([ "p0" ], 1); ([ "p0"; "p1" ], 1) ]);
          ("wide", 1, [ ([ "p0"; "p1"; "p2" ], 2) ]) ]
      ()
  in
  let rt name = Machine.reciprocal_throughput m (Machine.atomic m name) in
  Alcotest.(check bool) "ports kind" true (Machine.model m = Costmodel.Ports);
  Alcotest.(check (float 1e-9)) "1 µop / 2 ports" 0.5 (rt "one_any2");
  Alcotest.(check (float 1e-9)) "2 µops / 2 ports" 1.0 (rt "two_any2");
  (* the pinned µop saturates p0, but the flexible one escapes to p1 *)
  Alcotest.(check (float 1e-9)) "pinned + flexible" 1.0 (rt "mixed");
  Alcotest.(check (float 1e-9)) "2 µops / 3 ports" (2. /. 3.) (rt "wide");
  (* classic ops answer through their kinds' units *)
  let rt_classic mach name =
    Machine.reciprocal_throughput mach (Machine.atomic mach name)
  in
  Alcotest.(check bool) "classic kind" true
    (Machine.model (Descr.builtin "power1") = Costmodel.Classic);
  Alcotest.(check (float 1e-9)) "power1 fadd" 1.0 (rt_classic (Descr.builtin "power1") "fadd");
  Alcotest.(check (float 1e-9)) "power1x2 fadd (2 FPUs)" 0.5
    (rt_classic (Descr.builtin "power1x2") "fadd")

(* the per-kind rule the classic dialect was written for, kept here as the
   reference: an op's noncoverable cycles on a kind spread over that kind's
   units, and the busiest kind binds *)
let per_kind_rate m (op : Atomic_op.t) =
  let kind (c : Atomic_op.component) = (Machine.unit_at m c.unit_id).Funit.kind in
  List.fold_left
    (fun acc c ->
      let on_kind =
        List.fold_left
          (fun n d -> if kind d = kind c then n + d.Atomic_op.noncoverable else n)
          0 op.components
      in
      let units = List.length (Machine.units_of_kind m (kind c)) in
      Float.max acc (float_of_int on_kind /. float_of_int units))
    0.0 op.components

(* the eligible-set bound equals the per-kind rule on every op of every
   shipped classic machine *)
let test_classic_throughput_per_kind () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Machine.name ^ " classic") true (Machine.model m = Costmodel.Classic);
      Machine.iter_atomics
        (fun name op ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s %s" m.Machine.name name)
            (per_kind_rate m op) (Machine.reciprocal_throughput m op))
        m)
    (List.map Descr.builtin Descr.builtin_names)

(* ---- v2 (ports) descriptions ---- *)

let test_descr_v2 () =
  let m =
    Descr.of_string
      {|
(machine (name toy2)
  (model ports)
  (issue-width 4)
  (ports p0 p1 p2)
  (atomics
    (fadd (latency 3) (uops (p0|p1 1)))
    (load_fp (uops (p2 2)))))
|}
  in
  Alcotest.(check bool) "ports model" true (Machine.model m = Costmodel.Ports);
  Alcotest.(check int) "3 ports" 3 (Machine.num_units m);
  Alcotest.(check int) "issue width" 4 m.Machine.issue_width;
  Alcotest.(check int) "fadd latency" 3 (Atomic_op.result_latency (Machine.atomic m "fadd"));
  Alcotest.(check int) "latency defaults to µop count" 2
    (Atomic_op.result_latency (Machine.atomic m "load_fp"));
  Alcotest.(check (float 1e-9)) "fadd throughput" 0.5
    (Machine.reciprocal_throughput m (Machine.atomic m "fadd"));
  let txt = Descr.to_string m in
  Alcotest.(check string) "to_string/of_string fixpoint" txt
    (Descr.to_string (Descr.of_string txt))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* malformed descriptions die with a position-annotated message *)
let test_descr_positions () =
  let expect src frags =
    match Descr.of_string src with
    | _ -> Alcotest.fail (Printf.sprintf "expected Parse_error on %s" src)
    | exception Descr.Parse_error msg ->
      List.iter
        (fun frag ->
          Alcotest.(check bool)
            (Printf.sprintf "%S mentions %S" msg frag)
            true (contains msg frag))
        ("line" :: frags)
  in
  (* duplicate atomic op, v1: rejected, naming the op and both lines *)
  expect
    "(machine (name x)\n  (units (A fxu))\n  (atomics\n    (iadd (A 1 0))\n    (iadd (A 2 0))))"
    [ "duplicate"; "iadd"; "first defined at line 4" ];
  (* duplicate unit and duplicate port *)
  expect "(machine (name x)\n  (units (A fxu) (A fpu))\n  (atomics))" [ "duplicate"; "A" ];
  (* a classic op naming one unit twice, or a negative cost *)
  expect "(machine (name x)\n  (units (A fxu))\n  (atomics\n    (iadd (A 1 0) (A 1 0))))"
    [ "line 4"; "iadd"; "unit A twice" ];
  expect "(machine (name x)\n  (units (A fxu))\n  (atomics\n    (iadd (A 1 -1))))"
    [ "line 4"; "negative cost"; "iadd" ];
  expect
    "(machine (name x) (model ports)\n  (ports p0 p0)\n  (atomics))"
    [ "duplicate"; "p0" ];
  (* duplicate atomic op, v2 *)
  expect
    "(machine (name x) (model ports)\n  (ports p0)\n  (atomics\n    (fadd (uops (p0 1)))\n    (fadd (uops (p0 1)))))"
    [ "duplicate"; "fadd" ];
  (* unknown port, malformed port set, negative count *)
  expect
    "(machine (name x) (model ports)\n  (ports p0)\n  (atomics (fadd (uops (p9 1)))))"
    [ "p9" ];
  expect
    "(machine (name x) (model ports)\n  (ports p0 p1)\n  (atomics (fadd (uops (p0||p1 1)))))"
    [];
  expect
    "(machine (name x) (model ports)\n  (ports p0)\n  (atomics (fadd (uops (p0 -1)))))"
    [ "negative" ]

let test_ooo4_file () =
  let path =
    if Sys.file_exists "../machines/ooo4.pmach" then "../machines/ooo4.pmach"
    else "machines/ooo4.pmach"
  in
  if Sys.file_exists path then (
    let ic = open_in path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let m = Descr.of_string src in
    Alcotest.(check string) "name" "ooo4" m.Machine.name;
    Alcotest.(check bool) "ports model" true (Machine.model m = Costmodel.Ports);
    Alcotest.(check int) "7 ports" 7 (Machine.num_units m);
    Alcotest.(check (float 1e-9)) "fadd throughput" 0.5
      (Machine.reciprocal_throughput m (Machine.atomic m "fadd"));
    let txt = Descr.to_string m in
    Alcotest.(check string) "fixpoint" txt (Descr.to_string (Descr.of_string txt)))

(* ---- QCheck: to_string/of_string round-trip over both dialects ---- *)

let gen_classic_machine =
  let open QCheck.Gen in
  let kinds = [| Funit.Fixed_point; Funit.Float_point; Funit.Load_store; Funit.Branch |] in
  int_range 1 4 >>= fun nunits ->
  let units = List.init nunits (fun i -> (Printf.sprintf "U%d" i, kinds.(i))) in
  int_range 1 6 >>= fun nops ->
  let gen_op i =
    int_range 1 nunits >>= fun ncomps ->
    let comps =
      List.init ncomps (fun u -> int_range 1 5 >>= fun nc -> int_range 0 3 >>= fun cv -> return (u, nc, cv))
    in
    flatten_l comps >>= fun comps -> return (Printf.sprintf "op%d" i, comps)
  in
  flatten_l (List.init nops gen_op) >>= fun atomics ->
  int_range 1 8 >>= fun issue_width ->
  return (Machine.make ~name:"gen" ~units ~atomics ~issue_width ())

let gen_ports_machine =
  let open QCheck.Gen in
  int_range 1 4 >>= fun nports ->
  let ports = List.init nports (Printf.sprintf "q%d") in
  int_range 1 6 >>= fun nops ->
  let gen_subset =
    (* non-empty subset of the ports *)
    int_range 1 ((1 lsl nports) - 1) >>= fun mask ->
    return (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) ports)
  in
  let gen_op i =
    int_range 1 3 >>= fun ngroups ->
    flatten_l
      (List.init ngroups (fun _ ->
           gen_subset >>= fun ps -> int_range 0 3 >>= fun count -> return (ps, count)))
    >>= fun groups ->
    (* keep at least one µop so the op stays printable *)
    let groups =
      if List.for_all (fun (_, c) -> c = 0) groups then
        match groups with (ps, _) :: tl -> (ps, 1) :: tl | [] -> groups
      else groups
    in
    int_range 1 8 >>= fun latency -> return (Printf.sprintf "op%d" i, latency, groups)
  in
  flatten_l (List.init nops gen_op) >>= fun atomics ->
  int_range 1 8 >>= fun issue_width ->
  return (Machine.make_ports ~name:"gen" ~ports ~atomics ~issue_width ())

let prop_descr_roundtrip =
  let gen = QCheck.Gen.oneof [ gen_classic_machine; gen_ports_machine ] in
  QCheck.Test.make ~name:"descr: to_string/of_string is a fixpoint (v1 + v2)" ~count:200
    (QCheck.make ~print:Descr.to_string gen)
    (fun m ->
      let s = Descr.to_string m in
      let s2 = Descr.to_string (Descr.of_string s) in
      if String.equal s s2 then true
      else QCheck.Test.fail_reportf "reparse drifted:@.%s@.vs@.%s" s s2)

(* the LP bound by its definition, over every subset of the machine's
   units: the reference for the enumeration over unions of µop groups *)
let prop_throughput_over_unit_subsets =
  let gen = QCheck.Gen.oneof [ gen_classic_machine; gen_ports_machine ] in
  QCheck.Test.make ~name:"throughput: group unions = every unit subset" ~count:200
    (QCheck.make ~print:Descr.to_string gen)
    (fun m ->
      let n = Machine.num_units m in
      let brute (op : Atomic_op.t) =
        let best = ref 0.0 in
        for mask = 1 to (1 lsl n) - 1 do
          let inside u = mask land (1 lsl u) <> 0 in
          let load =
            List.fold_left
              (fun acc (c : Atomic_op.component) ->
                if Array.for_all inside c.eligible then acc + c.noncoverable else acc)
              0 op.components
          in
          let size = List.length (List.filter inside (List.init n Fun.id)) in
          best := Float.max !best (float_of_int load /. float_of_int size)
        done;
        !best
      in
      Machine.fold_atomics
        (fun _ op ok -> ok && Machine.reciprocal_throughput m op = brute op)
        m true)

let test_descr_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) "parse error" true
        (try ignore (Descr.of_string src); false with Descr.Parse_error _ -> true))
    [ "(machine"; "(notmachine)"; "(machine (name x) (units) (atomics (op (NOPE 1 0))))";
      "(machine (units (A fxu)) (atomics))" (* missing name *) ]

let () =
  Alcotest.run "machine"
    [
      ( "atomic",
        [ Alcotest.test_case "components" `Quick test_atomic_op ] );
      ( "builtin",
        [
          Alcotest.test_case "one value per process" `Quick test_builtin_identity;
          Alcotest.test_case "power1 costs" `Quick test_power1;
          Alcotest.test_case "errors" `Quick test_machine_errors;
          Alcotest.test_case "unit kinds" `Quick test_units_of_kind;
        ] );
      ( "descr",
        [
          Alcotest.test_case "roundtrip" `Quick test_descr_roundtrip;
          Alcotest.test_case "parse" `Quick test_descr_parse;
          Alcotest.test_case "errors" `Quick test_descr_errors;
          Alcotest.test_case "alpha21064" `Quick test_alpha;
        ] );
      ( "costmodel",
        [
          Alcotest.test_case "groups" `Quick test_costmodel_groups;
          Alcotest.test_case "ports throughput" `Quick test_ports_throughput;
          Alcotest.test_case "classic throughput per kind" `Quick
            test_classic_throughput_per_kind;
        ] );
      ( "descr-v2",
        [
          Alcotest.test_case "parse" `Quick test_descr_v2;
          Alcotest.test_case "positions" `Quick test_descr_positions;
          Alcotest.test_case "ooo4 file" `Quick test_ooo4_file;
        ] );
      ( "descr-qcheck",
        List.map
          (QCheck_alcotest.to_alcotest
             ~rand:(Random.State.make [| 0x5eed |]))
          [ prop_descr_roundtrip ] );
      ( "cost-qcheck",
        List.map
          (QCheck_alcotest.to_alcotest
             ~rand:(Random.State.make [| 0x5eed |]))
          [ prop_throughput_over_unit_subsets ] );
    ]
