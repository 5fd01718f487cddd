open Dl_netlist
open Dl_switch
module Mapping = Dl_cell.Mapping
module T3 = Dl_logic.Ternary

let rng = Dl_util.Rng.create 404

let build name =
  let c = Transform.decompose_for_cells (Option.get (Benchmarks.by_name name)) in
  let m = Mapping.flatten c in
  (c, m, Network.build m)

let exhaustive_vectors c =
  let npi = Circuit.input_count c in
  Array.init (1 lsl npi) (fun k -> Array.init npi (fun pi -> k lsr pi land 1 = 1))

let random_vectors c n =
  Array.init n (fun _ ->
      Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))

(* --- Network indexing -------------------------------------------------------- *)

let test_network_adjacency () =
  let _, m, net = build "c17" in
  (* every transistor appears in the channel lists of both terminals *)
  Array.iteri
    (fun ti (tr : Mapping.transistor) ->
      Alcotest.(check bool) "source lists it" true
        (List.mem ti (Network.channel_edges net tr.source));
      Alcotest.(check bool) "drain lists it" true
        (List.mem ti (Network.channel_edges net tr.drain));
      Alcotest.(check bool) "gate lists it" true (List.mem ti (Network.gated_by net tr.gate)))
    m.Mapping.transistors

let test_network_owners () =
  let c, m, net = build "c17" in
  Array.iter
    (fun (inst : Mapping.instance) ->
      Alcotest.(check bool) "output owned" true
        (Network.owner_instance net inst.output_node <> None))
    m.Mapping.instances;
  Array.iter
    (fun pi ->
      Alcotest.(check bool) "PI unowned" true
        (Network.owner_instance net m.Mapping.signal_node.(pi) = None);
      Alcotest.(check bool) "PI flagged" true
        (Network.is_primary_input net m.Mapping.signal_node.(pi)))
    c.Circuit.inputs;
  Alcotest.(check bool) "gnd is rail" true (Network.is_rail net m.Mapping.gnd)

(* --- Solver: fault-free cells agree with gate logic -------------------------- *)

let test_solver_fault_free_cells () =
  let c, m, net = build "c432s_small" in
  (* For each instance, solve its region with no modifications and compare
     the output against Gate.eval on random inputs. *)
  Array.iteri
    (fun ii (inst : Mapping.instance) ->
      let nd = c.Circuit.nodes.(inst.gate_id) in
      let region = Solver.make net ~instances:[ ii ] ~modifications:[] in
      for _ = 1 to 8 do
        let ins = Array.init (Array.length nd.fanin) (fun _ -> Dl_util.Rng.bool rng) in
        let ext g =
          let rec scan p =
            if p >= Array.length nd.fanin then T3.VX
            else if m.Mapping.signal_node.(nd.fanin.(p)) = g then T3.of_bool ins.(p)
            else scan (p + 1)
          in
          scan 0
        in
        let o = Solver.solve region ~external_value:ext ~charge:(fun _ -> T3.VX) in
        Alcotest.(check bool) "no fight in fault-free cell" false o.fight;
        match List.assoc_opt inst.output_node o.values with
        | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s output" (Circuit.name c inst.gate_id))
              true
              (T3.to_bool v = Some (Gate.eval nd.kind ins))
        | None -> Alcotest.fail "output not reported"
      done)
    m.Mapping.instances

(* --- Fault behaviours ---------------------------------------------------------- *)

(* A single INV circuit gives fully transparent behaviour checks. *)
let inv_fixture () =
  let b = Circuit.Builder.create ~title:"inv1" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_gate b "o" Gate.Not [ "a" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  (c, m, Network.build m)

let test_stuck_open_two_pattern () =
  let _, m, net = inv_fixture () in
  (* transistor 0 is the NMOS; removing it makes input=1 float the output,
     retaining the previous value: detected only by a 0->1 input sequence. *)
  let nmos_index =
    let rec scan i =
      if (m.Mapping.transistors.(i)).channel = Dl_cell.Cell.Nmos then i else scan (i + 1)
    in
    scan 0
  in
  let fault =
    {
      Realistic.kind = Realistic.Transistor_stuck_open nmos_index;
      weight = 1.0;
      label = "nmos open";
    }
  in
  (* Sequence 1: input constant 1 -> output floats with unknown charge:
     never a definite error. *)
  let r1 = Swift.run net ~faults:[| fault |] ~vectors:[| [| true |]; [| true |] |] in
  Alcotest.(check bool) "constant-1 undetected" true
    (r1.detection.(0).voltage = None);
  (* Sequence 2: 0 then 1: the 0 charges the output to 1; at input 1 the
     output should fall but floats at 1 -> detected on vector 2. *)
  let r2 = Swift.run net ~faults:[| fault |] ~vectors:[| [| false |]; [| true |] |] in
  Alcotest.(check bool) "two-pattern detected" true (r2.detection.(0).voltage = Some 1);
  Alcotest.(check bool) "no static current" true (r2.detection.(0).iddq = None)

let test_stuck_on_fight () =
  let _, m, net = inv_fixture () in
  let nmos_index =
    let rec scan i =
      if (m.Mapping.transistors.(i)).channel = Dl_cell.Cell.Nmos then i else scan (i + 1)
    in
    scan 0
  in
  let fault =
    {
      Realistic.kind = Realistic.Transistor_stuck_on nmos_index;
      weight = 1.0;
      label = "nmos on";
    }
  in
  (* input 0: PMOS pulls up (2.5) against stuck-on NMOS (1.0): output reads 0
     -> wrong value AND static current. *)
  let r = Swift.run net ~faults:[| fault |] ~vectors:[| [| false |] |] in
  Alcotest.(check bool) "voltage detected" true (r.detection.(0).voltage = Some 0);
  Alcotest.(check bool) "iddq detected" true (r.detection.(0).iddq = Some 0)

let test_bridge_wired_behaviour () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let fault =
    {
      Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n19" };
      weight = 1.0;
      label = "n10/n19";
    }
  in
  let vectors = exhaustive_vectors c in
  let r = Swift.run net ~faults:[| fault |] ~vectors in
  Alcotest.(check bool) "bridge voltage-detected" true (r.detection.(0).voltage <> None);
  Alcotest.(check bool) "bridge iddq-detected" true (r.detection.(0).iddq <> None);
  (* IDDQ fires no later than voltage (activation suffices). *)
  (match (r.detection.(0).voltage, r.detection.(0).iddq) with
  | Some v, Some i -> Alcotest.(check bool) "iddq <= voltage" true (i <= v)
  | _ -> ())

let test_bridge_to_rail_acts_stuck () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  (* n10 shorted to GND behaves as n10 SA0 for detection purposes *)
  let fault =
    {
      Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = m.Mapping.gnd };
      weight = 1.0;
      label = "n10/gnd";
    }
  in
  let vectors = exhaustive_vectors c in
  let r = Swift.run net ~faults:[| fault |] ~vectors in
  let sa =
    { Dl_fault.Stuck_at.site = Dl_fault.Stuck_at.Stem (Circuit.find c "n10");
      polarity = Dl_fault.Stuck_at.Sa0 }
  in
  let sim =
    Dl_fault.Fault_sim.run ~drop_detected:false c ~faults:[| sa |] ~vectors
  in
  Alcotest.(check bool) "same first detection as SA0" true
    (r.detection.(0).voltage = sim.first_detection.(0))

let test_input_open_policies () =
  let c, _, net = build "c17" in
  let n22 = Circuit.find c "n22" in
  let mk policy =
    {
      Realistic.kind = Realistic.Input_open { gate = n22; pin = 0; policy };
      weight = 1.0;
      label = "n22.in0";
    }
  in
  let vectors = exhaustive_vectors c in
  let r =
    Swift.run net
      ~faults:[| mk Realistic.Floats_low; mk Realistic.Floats_high; mk Realistic.Floats_unknown |]
      ~vectors
  in
  Alcotest.(check bool) "low detected" true (r.detection.(0).voltage <> None);
  Alcotest.(check bool) "high detected" true (r.detection.(1).voltage <> None);
  Alcotest.(check bool) "unknown never voltage-detected" true
    (r.detection.(2).voltage = None);
  Alcotest.(check bool) "unknown iddq-detected" true (r.detection.(2).iddq = Some 0)

let test_stem_open_matches_branch_all () =
  (* A stem open on a fanout-free net equals the input-open at its only
     reader. *)
  let c, _, net = build "c17" in
  let n10 = Circuit.find c "n10" in
  let n22 = Circuit.find c "n22" in
  let vectors = exhaustive_vectors c in
  let stem =
    { Realistic.kind = Realistic.Stem_open { node = n10; policy = Realistic.Floats_low };
      weight = 1.0; label = "stem" }
  in
  let branch =
    { Realistic.kind = Realistic.Input_open { gate = n22; pin = 0; policy = Realistic.Floats_low };
      weight = 1.0; label = "branch" }
  in
  let r = Swift.run net ~faults:[| stem; branch |] ~vectors in
  Alcotest.(check bool) "same detection" true
    (r.detection.(0).voltage = r.detection.(1).voltage)

let test_weighted_coverage_composition () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let faults =
    [|
      { Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n19" };
        weight = 3.0; label = "b" };
      { Realistic.kind = Realistic.Stem_open { node = Circuit.find c "n16"; policy = Realistic.Floats_unknown };
        weight = 1.0; label = "o" };
    |]
  in
  let vectors = exhaustive_vectors c in
  let r = Swift.run net ~faults ~vectors in
  let theta = Swift.weighted_coverage r in
  let gamma = Swift.unweighted_coverage r in
  let n = Array.length vectors in
  (* bridge detected, float-X open not: theta = 3/4, gamma = 1/2 *)
  Alcotest.(check (float 1e-12)) "theta" 0.75 (Dl_fault.Coverage.at theta n);
  Alcotest.(check (float 1e-12)) "gamma" 0.5 (Dl_fault.Coverage.at gamma n);
  let iddq = Swift.iddq_weighted_coverage r in
  Alcotest.(check (float 1e-12)) "iddq completes" 1.0 (Dl_fault.Coverage.at iddq n)

let test_good_values_match_sim2 () =
  let c, _, net = build "c432s_small" in
  let vectors = random_vectors c 10 in
  let goods = Swift.good_values net vectors in
  Array.iteri
    (fun k v ->
      let expected = Dl_logic.Sim2.run_single c v in
      Alcotest.(check (array bool)) (Printf.sprintf "vector %d" k) expected goods.(k))
    vectors

let test_drop_modes_agree_on_firsts () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let faults =
    [|
      { Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n23" };
        weight = 1.0; label = "b1" };
      { Realistic.kind = Realistic.Bridge { node_a = sn "n11"; node_b = sn "n22" };
        weight = 1.0; label = "b2" };
    |]
  in
  let vectors = random_vectors c 64 in
  let a = Swift.run ~drop_when:`Never net ~faults ~vectors in
  let b = Swift.run ~drop_when:`Both net ~faults ~vectors in
  Alcotest.(check bool) "voltage firsts equal" true
    (Array.for_all2
       (fun (x : Swift.detection) (y : Swift.detection) -> x.voltage = y.voltage)
       a.detection b.detection)


let test_charge_retention_sequence () =
  (* A stuck-open NAND pull-down transistor: output floats when the stuck
     pattern is applied; the retained value must be the *previous* settled
     value, vector after vector. *)
  let b = Circuit.Builder.create ~title:"nand1" in
  Circuit.Builder.add_input b "a";
  Circuit.Builder.add_input b "b";
  Circuit.Builder.add_gate b "o" Gate.Nand [ "a"; "b" ];
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  let m = Mapping.flatten c in
  let net = Network.build m in
  (* find an NMOS of the series stack *)
  let nmos_index =
    let rec scan i =
      if (m.Mapping.transistors.(i)).channel = Dl_cell.Cell.Nmos then i else scan (i + 1)
    in
    scan 0
  in
  let fault =
    { Realistic.kind = Realistic.Transistor_stuck_open nmos_index;
      weight = 1.0; label = "nand nmos open" }
  in
  (* (1,1) would pull down; with the device open the output retains its last
     value.  Sequence: (0,1) -> o=1; (1,1) -> retains 1 (good would be 0):
     detected exactly on the second vector. *)
  let r =
    Swift.run net ~faults:[| fault |]
      ~vectors:[| [| false; true |]; [| true; true |] |]
  in
  Alcotest.(check bool) "detected on capture vector" true
    (r.detection.(0).voltage = Some 1)

let test_feedback_bridge_terminates () =
  (* Bridge a gate output back onto one of its transitive inputs: the
     region/propagation feedback loop must settle (bounded iterations) and
     the run must finish with a sane verdict. *)
  let c, m, net = build "c432s_small" in
  (* find a pair (x, y) with y in the cone of x *)
  let found = ref None in
  (try
     Array.iter
       (fun (nd : Circuit.node) ->
         Array.iter
           (fun succ ->
             Array.iter
               (fun succ2 ->
                 if !found = None && c.Circuit.nodes.(succ2).kind <> Gate.Input then begin
                   found := Some (nd.id, succ2);
                   raise Exit
                 end)
               c.Circuit.fanouts.(succ))
           c.Circuit.fanouts.(nd.id))
       c.Circuit.nodes
   with Exit -> ());
  match !found with
  | None -> Alcotest.fail "no feedback pair found"
  | Some (a, b) ->
      let fault =
        { Realistic.kind =
            Realistic.Bridge
              { node_a = m.Mapping.signal_node.(a); node_b = m.Mapping.signal_node.(b) };
          weight = 1.0; label = "feedback" }
      in
      let vectors = random_vectors c 64 in
      let r = Swift.run net ~faults:[| fault |] ~vectors in
      Alcotest.(check int) "run completes over all vectors" 64 r.vectors_applied

let test_drop_voltage_mode_faster () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let faults =
    [| { Realistic.kind = Realistic.Bridge { node_a = sn "n10"; node_b = sn "n19" };
         weight = 1.0; label = "b" } |]
  in
  let vectors = exhaustive_vectors c in
  let fast = Swift.run ~drop_when:`Voltage net ~faults ~vectors in
  let full = Swift.run ~drop_when:`Never net ~faults ~vectors in
  Alcotest.(check bool) "same first detection" true
    (fast.detection.(0).voltage = full.detection.(0).voltage);
  Alcotest.(check bool) "strictly less work" true
    (fast.region_solves < full.region_solves)

let test_signature_consistent_with_first_detection () =
  let c, m, net = build "c17" in
  let sn name = m.Mapping.signal_node.(Circuit.find c name) in
  let fault =
    { Realistic.kind = Realistic.Bridge { node_a = sn "n11"; node_b = sn "n22" };
      weight = 1.0; label = "b" }
  in
  let vectors = exhaustive_vectors c in
  let fails = Swift.signature net ~fault ~vectors in
  let r = Swift.run ~drop_when:`Never net ~faults:[| fault |] ~vectors in
  let first_fail =
    let rec scan i =
      if i >= Array.length fails then None
      else if fails.(i) then Some i
      else scan (i + 1)
    in
    scan 0
  in
  Alcotest.(check bool) "signature first = detection first" true
    (first_fail = r.detection.(0).voltage)

(* --- compiled kernel + memo vs the retained reference ------------------- *)

(* A region over the first cells of c432s_small, wide enough that its memo
   key (input + charge slots) cannot pack into an int, with a stuck-open
   device so retained charge matters.  Each vector is solved through one
   memo table twice (a miss, then a hit) and by the reference solver. *)
let test_wide_region_memo () =
  let c, m, net = build "c432s_small" in
  let instances = List.init 24 Fun.id in
  let ti = m.Mapping.instances.(0).first_transistor in
  let modifications = [ Solver.Remove_transistor ti ] in
  let region = Solver.make net ~instances ~modifications in
  let reference = Solver.Reference.make net ~instances ~modifications in
  let slots = Array.length (Solver.input_nodes region) + Solver.charge_count region in
  Alcotest.(check bool) (Printf.sprintf "%d slots exceed an int key" slots) true (slots > 31);
  Alcotest.(check (list int)) "same observable nodes"
    (Solver.Reference.observable_nodes reference) (Solver.observable_nodes region);
  let memo = Memo.create () in
  let charge = Hashtbl.create 64 in
  let charge_of g = Option.value (Hashtbl.find_opt charge g) ~default:T3.VX in
  let values = Array.make (Solver.report_count region) T3.VX in
  let vectors = random_vectors c 24 in
  (* Hold every other vector so floating nodes keep their charge. *)
  let vectors = Array.init 48 (fun k -> vectors.(k / 2)) in
  Array.iteri
    (fun k v ->
      let ext g =
        let rec scan i =
          if i >= Circuit.input_count c then T3.VX
          else if m.Mapping.signal_node.(c.Circuit.inputs.(i)) = g then T3.of_bool v.(i)
          else scan (i + 1)
        in
        scan 0
      in
      let expected = Solver.Reference.solve reference ~external_value:ext ~charge:charge_of in
      let inputs = Array.map ext (Solver.input_nodes region) in
      let charges = Array.of_list (List.map charge_of (Solver.nodes region)) in
      for pass = 1 to 2 do
        let fight = Memo.solve memo region ~inputs ~charges ~values in
        Alcotest.(check bool) (Printf.sprintf "vector %d pass %d fight" k pass)
          expected.fight fight;
        Alcotest.(check (list char)) (Printf.sprintf "vector %d pass %d values" k pass)
          (List.map (fun (_, x) -> T3.to_char x) expected.values)
          (Array.to_list (Array.map T3.to_char values))
      done;
      List.iter (fun (g, x) -> Hashtbl.replace charge g x) expected.values)
    vectors

(* The swift-reference oracle over seeded random circuits (the default mix
   and every generator family): Swift.run = Swift.Reference.run in
   detections, region_solves and signatures under every drop rule, for all
   realistic fault kinds, on vector sequences extended with held and
   alternating pairs (stuck-open charge retention), plus a multi-cell
   region whose memo key is wider than an int. *)
let prop_swift_matches_reference =
  let check =
    match (Option.get (Dl_check.Oracle.find "swift-reference")).kind with
    | Dl_check.Oracle.Case f -> f
    | Dl_check.Oracle.Sweep _ -> assert false
  in
  let families = Array.of_list (Generator.Family.names ()) in
  QCheck.Test.make ~name:"swift = Swift.Reference on random circuits" ~count:12
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let family =
        if seed mod 2 = 0 then None
        else Some families.(seed / 2 mod Array.length families)
      in
      let case =
        Dl_check.Testcase.generate ?family ~seed ~gates:(10 + (seed mod 40))
          ~n_vectors:(2 + (seed mod 60)) ()
      in
      match check case with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

let () =
  Alcotest.run "dl_switch"
    [
      ( "network",
        [
          Alcotest.test_case "adjacency" `Quick test_network_adjacency;
          Alcotest.test_case "owners" `Quick test_network_owners;
        ] );
      ( "solver",
        [ Alcotest.test_case "fault-free cells = gates" `Quick test_solver_fault_free_cells ] );
      ( "faults",
        [
          Alcotest.test_case "stuck-open needs two patterns" `Quick test_stuck_open_two_pattern;
          Alcotest.test_case "stuck-on fights" `Quick test_stuck_on_fight;
          Alcotest.test_case "bridge wired behaviour" `Quick test_bridge_wired_behaviour;
          Alcotest.test_case "rail bridge = stuck-at" `Quick test_bridge_to_rail_acts_stuck;
          Alcotest.test_case "input-open policies" `Quick test_input_open_policies;
          Alcotest.test_case "stem = only-branch open" `Quick test_stem_open_matches_branch_all;
        ] );
      ( "swift",
        [
          Alcotest.test_case "coverage composition" `Quick test_weighted_coverage_composition;
          Alcotest.test_case "good values = sim2" `Quick test_good_values_match_sim2;
          Alcotest.test_case "drop modes agree" `Quick test_drop_modes_agree_on_firsts;
          Alcotest.test_case "charge retention sequence" `Quick test_charge_retention_sequence;
          Alcotest.test_case "feedback bridge terminates" `Quick test_feedback_bridge_terminates;
          Alcotest.test_case "voltage-drop mode faster" `Quick test_drop_voltage_mode_faster;
          Alcotest.test_case "signature consistent" `Quick
            test_signature_consistent_with_first_detection;
        ] );
      ( "reference",
        [
          Alcotest.test_case "wide region memo = reference" `Quick test_wide_region_memo;
          QCheck_alcotest.to_alcotest prop_swift_matches_reference;
        ] );
    ]
