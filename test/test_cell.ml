open Dl_netlist
open Dl_cell

(* --- Cell library -------------------------------------------------------------- *)

let test_cells_validate () =
  List.iter
    (fun (kind, arity) -> Cell.validate (Cell.for_gate kind ~arity))
    Cell.all_kinds

let test_cells_match_gate_functions () =
  List.iter
    (fun (kind, arity) ->
      let cell = Cell.for_gate kind ~arity in
      for code = 0 to (1 lsl arity) - 1 do
        let bits = Array.init arity (fun i -> code lsr i land 1 = 1) in
        let lookup p = bits.(Char.code p.[0] - Char.code 'a') in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%d code %d" (Gate.to_string kind) arity code)
          (Gate.eval kind bits) (Cell.eval cell lookup)
      done)
    Cell.all_kinds

let test_cell_complementary_transistor_counts () =
  List.iter
    (fun (kind, arity) ->
      let cell = Cell.for_gate kind ~arity in
      let n, p =
        List.fold_left
          (fun (n, p) (tr : Cell.transistor) ->
            match tr.channel with Cell.Nmos -> (n + 1, p) | Cell.Pmos -> (n, p + 1))
          (0, 0) cell.Cell.transistors
      in
      Alcotest.(check int) (Gate.to_string kind ^ " complementary") n p)
    Cell.all_kinds

let test_cell_known_sizes () =
  Alcotest.(check int) "INV" 2 (Cell.transistor_count (Cell.for_gate Gate.Not ~arity:1));
  Alcotest.(check int) "NAND2" 4 (Cell.transistor_count (Cell.for_gate Gate.Nand ~arity:2));
  Alcotest.(check int) "NAND4" 8 (Cell.transistor_count (Cell.for_gate Gate.Nand ~arity:4));
  Alcotest.(check int) "AND2" 6 (Cell.transistor_count (Cell.for_gate Gate.And ~arity:2));
  Alcotest.(check int) "XOR2" 12 (Cell.transistor_count (Cell.for_gate Gate.Xor ~arity:2));
  Alcotest.(check int) "BUF" 4 (Cell.transistor_count (Cell.for_gate Gate.Buf ~arity:1))

let test_cell_unsupported () =
  Alcotest.(check bool) "wide xor rejected" true
    (try
       ignore (Cell.for_gate Gate.Xor ~arity:3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "input rejected" true
    (try
       ignore (Cell.for_gate Gate.Input ~arity:0);
       false
     with Invalid_argument _ -> true)

(* --- Mapping / flattening --------------------------------------------------------- *)

let test_flatten_c17 () =
  let c = Benchmarks.c17 () in
  let m = Mapping.flatten c in
  (* 6 NAND2 cells, 4 transistors each *)
  Alcotest.(check int) "instances" 6 (Array.length m.Mapping.instances);
  Alcotest.(check int) "transistors" 24 (Mapping.transistor_count m);
  Alcotest.(check int) "gnd" 0 m.Mapping.gnd;
  Alcotest.(check int) "vdd" 1 m.Mapping.vdd

let test_flatten_instance_wiring () =
  let c = Benchmarks.c432s_small () in
  let c = Transform.decompose_for_cells c in
  let m = Mapping.flatten c in
  Array.iter
    (fun (inst : Mapping.instance) ->
      let nd = c.Circuit.nodes.(inst.gate_id) in
      (* instance inputs follow the gate's fanin order *)
      Alcotest.(check int) "arity matches" (Array.length nd.fanin)
        (Array.length inst.input_nodes);
      Array.iteri
        (fun pin src ->
          Alcotest.(check int) "pin wired to driver net"
            m.Mapping.signal_node.(src)
            inst.input_nodes.(pin))
        nd.fanin;
      Alcotest.(check int) "output wired" m.Mapping.signal_node.(inst.gate_id)
        inst.output_node)
    m.Mapping.instances

let test_flatten_transistor_terminals_in_range () =
  let c = Benchmarks.c432s () in
  let c = Transform.decompose_for_cells c in
  let m = Mapping.flatten c in
  Array.iter
    (fun (tr : Mapping.transistor) ->
      List.iter
        (fun node ->
          Alcotest.(check bool) "node in range" true (node >= 0 && node < m.Mapping.node_count))
        [ tr.gate; tr.source; tr.drain ];
      Alcotest.(check bool) "gate is not a rail" true (tr.gate > 1))
    m.Mapping.transistors

let test_flatten_unmappable () =
  let b = Circuit.Builder.create ~title:"wide" in
  for i = 0 to 5 do
    Circuit.Builder.add_input b (Printf.sprintf "i%d" i)
  done;
  Circuit.Builder.add_gate b "o" Gate.Nand (List.init 6 (Printf.sprintf "i%d"));
  Circuit.Builder.add_output b "o";
  let c = Circuit.Builder.finalize b in
  Alcotest.(check bool) "raises Unmappable" true
    (try
       ignore (Mapping.flatten c);
       false
     with Mapping.Unmappable _ -> true)

let test_flatten_unique_internal_nodes () =
  let c = Benchmarks.c432s_small () in
  let c = Transform.decompose_for_cells c in
  let m = Mapping.flatten c in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun (inst : Mapping.instance) ->
      Array.iter
        (fun node ->
          Alcotest.(check bool) "internal node unique" false (Hashtbl.mem seen node);
          Hashtbl.replace seen node ())
        inst.internal_nodes)
    m.Mapping.instances

(* One-input AND/OR/XOR (NAND/NOR/XNOR) are valid gates with no cell: the
   decomposition maps them to buffers (inverters), keeping their names and
   their function. *)
let test_decompose_one_input_gates () =
  let b = Circuit.Builder.create ~title:"unary" in
  Circuit.Builder.add_input b "a";
  let kinds = Gate.[ And; Or; Xor; Nand; Nor; Xnor ] in
  List.iteri
    (fun i kind ->
      let name = Printf.sprintf "g%d" i in
      Circuit.Builder.add_gate b name kind [ "a" ];
      Circuit.Builder.add_output b name)
    kinds;
  let c0 = Circuit.Builder.finalize b in
  Alcotest.(check bool) "not mappable as built" false (Transform.is_cell_mappable c0);
  let c = Transform.decompose_for_cells c0 in
  Alcotest.(check bool) "mappable after decomposition" true (Transform.is_cell_mappable c);
  ignore (Mapping.flatten c);
  List.iteri
    (fun i expected ->
      let nd = c.Circuit.nodes.(Circuit.find c (Printf.sprintf "g%d" i)) in
      Alcotest.(check string) "kind" (Gate.to_string expected) (Gate.to_string nd.kind))
    Gate.[ Buf; Buf; Buf; Not; Not; Not ];
  List.iter
    (fun a ->
      Alcotest.(check (array bool)) "function kept"
        (Dl_logic.Sim2.run_single c0 [| a |])
        (Dl_logic.Sim2.run_single c [| a |]))
    [ false; true ]

(* A full-network switch-style evaluation check through Cell.eval: evaluate
   each instance's cell in topological order and compare against gate-level
   simulation — verifies mapping preserves logic end to end. *)
let test_flatten_behavioural_equivalence () =
  let c0 = Benchmarks.c432s_small () in
  let c = Transform.decompose_for_cells c0 in
  let m = Mapping.flatten c in
  let rng = Dl_util.Rng.create 77 in
  for _ = 1 to 20 do
    let v = Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng) in
    let expected = Dl_logic.Sim2.run_single c v in
    let values = Array.make (Circuit.node_count c) false in
    Array.iteri (fun i pi -> values.(pi) <- v.(i)) c.Circuit.inputs;
    Array.iter
      (fun id ->
        let nd = c.Circuit.nodes.(id) in
        if nd.kind <> Gate.Input then begin
          match Mapping.instance_of_gate m id with
          | None -> Alcotest.fail "missing instance"
          | Some inst ->
              let lookup p =
                let idx = Char.code p.[0] - Char.code 'a' in
                values.(nd.fanin.(idx))
              in
              values.(id) <- Cell.eval inst.cell lookup
        end)
      c.Circuit.topo_order;
    Array.iteri
      (fun id b ->
        if values.(id) <> b then Alcotest.failf "node %s diverges" (Circuit.name c id))
      expected
  done

let () =
  Alcotest.run "dl_cell"
    [
      ( "library",
        [
          Alcotest.test_case "validate all" `Quick test_cells_validate;
          Alcotest.test_case "truth tables" `Quick test_cells_match_gate_functions;
          Alcotest.test_case "complementary" `Quick test_cell_complementary_transistor_counts;
          Alcotest.test_case "known sizes" `Quick test_cell_known_sizes;
          Alcotest.test_case "unsupported rejected" `Quick test_cell_unsupported;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "flatten c17" `Quick test_flatten_c17;
          Alcotest.test_case "instance wiring" `Quick test_flatten_instance_wiring;
          Alcotest.test_case "terminals in range" `Quick test_flatten_transistor_terminals_in_range;
          Alcotest.test_case "unmappable rejected" `Quick test_flatten_unmappable;
          Alcotest.test_case "one-input gates decomposed" `Quick
            test_decompose_one_input_gates;
          Alcotest.test_case "internal nodes unique" `Quick test_flatten_unique_internal_nodes;
          Alcotest.test_case "behavioural equivalence" `Quick test_flatten_behavioural_equivalence;
        ] );
    ]
