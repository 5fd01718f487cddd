open Dl_netlist
module Ternary = Dl_logic.Ternary
module Sim2 = Dl_logic.Sim2
module Propagate = Dl_logic.Propagate
module Mapping = Dl_cell.Mapping

type detection = { voltage : int option; iddq : int option }

type result = {
  faults : Realistic.t array;
  detection : detection array;
  vectors_applied : int;
  region_solves : int;
}

let signal_of_network_node (m : Mapping.network) g =
  let n_signals = Circuit.node_count m.circuit in
  if g >= 2 && g < 2 + n_signals then Some (g - 2) else None

let owners net nodes =
  List.sort_uniq compare
    (List.filter_map (fun g -> Network.owner_instance net g) nodes)

let good_values net vectors =
  let m = Network.mapping net in
  let c = m.Mapping.circuit in
  let n_vectors = Array.length vectors in
  let out = Array.make n_vectors [||] in
  let blocks = (n_vectors + 63) / 64 in
  for blk = 0 to blocks - 1 do
    let base = blk * 64 in
    let count = min 64 (n_vectors - base) in
    let words = Sim2.words_of_patterns c (Array.sub vectors base count) in
    let values = Sim2.run c words in
    for bit = 0 to count - 1 do
      out.(base + bit) <-
        Array.map
          (fun w -> Int64.logand (Int64.shift_right_logical w bit) 1L = 1L)
          values
    done
  done;
  out

let policy_value = function
  | Realistic.Floats_low -> Ternary.V0
  | Realistic.Floats_high -> Ternary.V1
  | Realistic.Floats_unknown -> Ternary.VX

(* --- fault preparation -------------------------------------------------- *)

(* A memo table with the number of live faults whose regions use it. *)
type shared = { table : Memo.t; mutable users : int }

type region = {
  solver : Solver.t;
  shared : shared;
  charges : Ternary.t array;     (* last settled value per charge slot *)
  input_signal : int array;      (* per input slot: circuit node, or -1 *)
  out_pos : int array;           (* reported values that are circuit signals: *)
  out_signal : int array;        (*   their position and circuit node *)
  fanin_signals : int array;     (* circuit nodes read by the region *)
  iddq_candidate : bool;
  inputs : Ternary.t array;      (* per-evaluation buffers *)
  values : Ternary.t array;
  previous : Ternary.t array;
}

type prepared =
  | Region of region
  | Net_open of {
      seeds : [ `Stem of int | `Pin of int * int ] list;
      policy : Realistic.float_policy;
    }

(* Regions of one shape share a table: an intra-cell defect's region is the
   same for every instance of its cell (cell-aware characterization), and
   any two bridges whose compiled regions coincide share too. *)
let prepare net tables (f : Realistic.t) =
  let m = Network.mapping net in
  let region_of instances mods ~iddq_candidate =
    let solver = Solver.make net ~instances ~modifications:mods in
    let shared =
      let shape = Solver.shape solver in
      match Hashtbl.find_opt tables shape with
      | Some s -> s
      | None ->
          let s = { table = Memo.create (); users = 0 } in
          Hashtbl.replace tables shape s;
          s
    in
    shared.users <- shared.users + 1;
    let signal g = Option.value (signal_of_network_node m g) ~default:(-1) in
    let outputs =
      List.filter
        (fun (_, c) -> c >= 0)
        (List.mapi (fun i g -> (i, signal g)) (Solver.observable_nodes solver))
    in
    let fanin_signals =
      List.concat_map
        (fun ii ->
          let inst = m.Mapping.instances.(ii) in
          Array.to_list m.circuit.nodes.(inst.gate_id).fanin)
        instances
      |> List.sort_uniq compare |> Array.of_list
    in
    Region
      {
        solver;
        shared;
        charges = Array.make (Solver.charge_count solver) Ternary.VX;
        input_signal = Array.map signal (Solver.input_nodes solver);
        out_pos = Array.of_list (List.map fst outputs);
        out_signal = Array.of_list (List.map snd outputs);
        fanin_signals;
        iddq_candidate;
        inputs = Array.make (Array.length (Solver.input_nodes solver)) Ternary.VX;
        values = Array.make (Solver.report_count solver) Ternary.VX;
        previous = Array.make (Array.length fanin_signals) Ternary.VX;
      }
  in
  match f.kind with
  | Realistic.Bridge { node_a; node_b } ->
      region_of (owners net [ node_a; node_b ])
        [ Solver.Bridge_nodes { node_a; node_b } ]
        ~iddq_candidate:true
  | Realistic.Transistor_stuck_open ti ->
      let inst = m.Mapping.transistors.(ti).instance in
      region_of [ inst ] [ Solver.Remove_transistor ti ] ~iddq_candidate:false
  | Realistic.Transistor_stuck_on ti ->
      let inst = m.Mapping.transistors.(ti).instance in
      region_of [ inst ] [ Solver.Short_transistor ti ] ~iddq_candidate:true
  | Realistic.Input_open { gate; pin; policy } ->
      Net_open { seeds = [ `Pin (gate, pin) ]; policy }
  | Realistic.Stem_open { node; policy } ->
      Net_open { seeds = [ `Stem node ]; policy }

(* --- main loop ----------------------------------------------------------- *)

(* One vector on a region fault: solve the region, propagate its outputs,
   and repeat while the propagation changes a region input (at most 8
   times).  Leaves the final faulty map in [scratch]; returns the last
   solve's fight flag. *)
let eval_region r scratch good ~solves =
  Propagate.reset scratch;
  let stable = ref false in
  let iters = ref 0 in
  let fight = ref false in
  while (not !stable) && !iters < 8 do
    incr iters;
    for s = 0 to Array.length r.inputs - 1 do
      let cnode = r.input_signal.(s) in
      r.inputs.(s) <-
        (if cnode >= 0 then Propagate.value scratch good cnode else Ternary.VX)
    done;
    incr solves;
    fight :=
      Memo.solve r.shared.table r.solver ~inputs:r.inputs ~charges:r.charges
        ~values:r.values;
    for j = 0 to Array.length r.fanin_signals - 1 do
      r.previous.(j) <- Propagate.value scratch good r.fanin_signals.(j)
    done;
    Propagate.reset scratch;
    for o = 0 to Array.length r.out_pos - 1 do
      Propagate.seed scratch good r.out_signal.(o) r.values.(r.out_pos.(o))
    done;
    Propagate.settle scratch good;
    (* Feedback: iterate only if a region input changed. *)
    stable := true;
    for j = 0 to Array.length r.fanin_signals - 1 do
      if Propagate.value scratch good r.fanin_signals.(j) <> r.previous.(j) then
        stable := false
    done
  done;
  (* Persist settled charges for the next vector. *)
  Array.blit r.values 0 r.charges 0 (Array.length r.charges);
  !fight

let run ?(drop_when = `Both) ?on_voltage_detect net ~faults ~vectors =
  let m = Network.mapping net in
  let c = m.Mapping.circuit in
  let n_faults = Array.length faults in
  let detection = Array.make n_faults { voltage = None; iddq = None } in
  let prepared = Array.map (prepare net (Hashtbl.create 64)) faults in
  let region_solves = ref 0 in
  let good_per_vector = good_values net vectors in
  let n_vectors = Array.length vectors in
  let scratch = Propagate.scratch c in
  let live = Array.make n_faults true in
  let retire fi =
    live.(fi) <- false;
    match prepared.(fi) with
    | Region r ->
        r.shared.users <- r.shared.users - 1;
        if r.shared.users = 0 then Memo.clear r.shared.table
    | Net_open _ -> ()
  in
  let update_live fi =
    let d = detection.(fi) in
    let done_ =
      match drop_when with
      | `Voltage -> d.voltage <> None
      | `Both -> d.voltage <> None && d.iddq <> None
      | `Never -> false
    in
    if done_ then retire fi
  in
  for k = 0 to n_vectors - 1 do
    let good = good_per_vector.(k) in
    for fi = 0 to n_faults - 1 do
      if live.(fi) then begin
        let voltage_hit, iddq_hit =
          match prepared.(fi) with
          | Net_open { seeds; policy } ->
              let pv = policy_value policy in
              Propagate.reset scratch;
              List.iter
                (function
                  | `Stem node -> Propagate.seed scratch good node pv
                  | `Pin (gate, pin) ->
                      (* Re-evaluate the reading gate with the floating pin. *)
                      let nd = c.nodes.(gate) in
                      let ins =
                        Array.map (fun s -> Ternary.of_bool good.(s)) nd.fanin
                      in
                      ins.(pin) <- pv;
                      Propagate.seed scratch good gate (Ternary.eval nd.kind ins))
                seeds;
              Propagate.settle scratch good;
              (Propagate.detects scratch good, policy = Realistic.Floats_unknown)
          | Region r ->
              let fight = eval_region r scratch good ~solves:region_solves in
              (Propagate.detects scratch good, r.iddq_candidate && fight)
        in
        (match on_voltage_detect with
        | Some callback when voltage_hit -> callback ~fault_index:fi ~vector_index:k
        | _ -> ());
        let d = detection.(fi) in
        let d =
          if voltage_hit && d.voltage = None then { d with voltage = Some k } else d
        in
        let d = if iddq_hit && d.iddq = None then { d with iddq = Some k } else d in
        detection.(fi) <- d;
        update_live fi
      end
    done
  done;
  { faults; detection; vectors_applied = n_vectors; region_solves = !region_solves }

(* The engine as first written, kept verbatim as the oracle: per-fault
   charge hash tables, the interpreted solver, and a fresh propagation map
   per evaluation. *)
module Reference = struct
  type prepared =
    | Region of {
        region : Solver.Reference.t;
        charge : (int, Ternary.t) Hashtbl.t;  (* network node -> last value *)
        output_signals : (int * int) list;    (* (network node, circuit node) *)
        input_signals : int list;             (* circuit nodes read by the region *)
        iddq_candidate : bool;
      }
    | Net_open of {
        seeds : [ `Stem of int | `Pin of int * int ] list;
        policy : Realistic.float_policy;
      }

  let prepare net (f : Realistic.t) =
    let m = Network.mapping net in
    let region_of instances mods ~iddq_candidate =
      let region = Solver.Reference.make net ~instances ~modifications:mods in
      let output_signals =
        List.filter_map
          (fun g ->
            match signal_of_network_node m g with
            | Some c -> Some (g, c)
            | None -> None)
          (Solver.Reference.observable_nodes region)
      in
      let input_signals =
        List.concat_map
          (fun ii ->
            let inst = m.Mapping.instances.(ii) in
            Array.to_list m.circuit.nodes.(inst.gate_id).fanin)
          instances
        |> List.sort_uniq compare
      in
      let charge = Hashtbl.create 16 in
      Region { region; charge; output_signals; input_signals; iddq_candidate }
    in
    match f.kind with
    | Realistic.Bridge { node_a; node_b } ->
        region_of (owners net [ node_a; node_b ])
          [ Solver.Bridge_nodes { node_a; node_b } ]
          ~iddq_candidate:true
    | Realistic.Transistor_stuck_open ti ->
        let inst = m.Mapping.transistors.(ti).instance in
        region_of [ inst ] [ Solver.Remove_transistor ti ] ~iddq_candidate:false
    | Realistic.Transistor_stuck_on ti ->
        let inst = m.Mapping.transistors.(ti).instance in
        region_of [ inst ] [ Solver.Short_transistor ti ] ~iddq_candidate:true
    | Realistic.Input_open { gate; pin; policy } ->
        Net_open { seeds = [ `Pin (gate, pin) ]; policy }
    | Realistic.Stem_open { node; policy } ->
        Net_open { seeds = [ `Stem node ]; policy }

  let propagate = Propagate.run
  let po_detects = Propagate.po_detects

  let run ?(drop_when = `Both) ?on_voltage_detect net ~faults ~vectors =
    let m = Network.mapping net in
    let c = m.Mapping.circuit in
    let n_faults = Array.length faults in
    let detection = Array.make n_faults { voltage = None; iddq = None } in
    let prepared = Array.map (prepare net) faults in
    let region_solves = ref 0 in
    let good_per_vector = good_values net vectors in
    let n_vectors = Array.length vectors in
    let live = Array.make n_faults true in
    let update_live fi =
      let d = detection.(fi) in
      let done_ =
        match drop_when with
        | `Voltage -> d.voltage <> None
        | `Both -> d.voltage <> None && d.iddq <> None
        | `Never -> false
      in
      if done_ then live.(fi) <- false
    in
    for k = 0 to n_vectors - 1 do
      let good = good_per_vector.(k) in
      for fi = 0 to n_faults - 1 do
        if live.(fi) then begin
          let voltage_hit = ref false and iddq_hit = ref false in
          (match prepared.(fi) with
          | Net_open { seeds; policy } ->
              let pv = policy_value policy in
              let overrides =
                List.map
                  (function
                    | `Stem node -> (node, pv)
                    | `Pin (gate, pin) ->
                        (* Re-evaluate the reading gate with the floating pin. *)
                        let nd = c.nodes.(gate) in
                        let ins =
                          Array.map (fun s -> Ternary.of_bool good.(s)) nd.fanin
                        in
                        ins.(pin) <- pv;
                        (gate, Ternary.eval nd.kind ins))
                  seeds
              in
              let map = propagate c good overrides in
              if po_detects c good map then voltage_hit := true;
              if policy = Realistic.Floats_unknown then iddq_hit := true
          | Region { region; charge; output_signals; input_signals; iddq_candidate } ->
              let override_map = ref (Hashtbl.create 0) in
              let stable = ref false in
              let iters = ref 0 in
              let last_fight = ref false in
              let final_values = ref [] in
              while (not !stable) && !iters < 8 do
                incr iters;
                let ext g =
                  match signal_of_network_node m g with
                  | Some cnode -> (
                      match Hashtbl.find_opt !override_map cnode with
                      | Some v -> v
                      | None -> Ternary.of_bool good.(cnode))
                  | None -> Ternary.VX
                in
                let charge_of g =
                  match Hashtbl.find_opt charge g with Some v -> v | None -> Ternary.VX
                in
                incr region_solves;
                let outcome = Solver.Reference.solve region ~external_value:ext ~charge:charge_of in
                last_fight := outcome.fight;
                final_values := outcome.values;
                let seeds =
                  List.filter_map
                    (fun (g, cnode) ->
                      match List.assoc_opt g outcome.values with
                      | Some v -> Some (cnode, v)
                      | None -> None)
                    output_signals
                in
                let map = propagate c good seeds in
                (* Feedback: iterate only if a region input changed. *)
                let input_sig tbl =
                  List.map (fun s -> Hashtbl.find_opt tbl s) input_signals
                in
                if input_sig map = input_sig !override_map then stable := true;
                override_map := map
              done;
              if po_detects c good !override_map then voltage_hit := true;
              if iddq_candidate && !last_fight then iddq_hit := true;
              (* Persist settled charges for the next vector. *)
              List.iter (fun (g, v) -> Hashtbl.replace charge g v) !final_values);
          (match on_voltage_detect with
          | Some callback when !voltage_hit -> callback ~fault_index:fi ~vector_index:k
          | _ -> ());
          let d = detection.(fi) in
          let d =
            if !voltage_hit && d.voltage = None then { d with voltage = Some k } else d
          in
          let d = if !iddq_hit && d.iddq = None then { d with iddq = Some k } else d in
          detection.(fi) <- d;
          update_live fi
        end
      done
    done;
    { faults; detection; vectors_applied = n_vectors; region_solves = !region_solves }
end

(* --- coverage projections ------------------------------------------------ *)

let weights_of r = Array.map (fun (f : Realistic.t) -> f.weight) r.faults

let weighted_coverage r =
  Dl_fault.Coverage.make ~weights:(weights_of r)
    (Array.map (fun d -> d.voltage) r.detection)

let unweighted_coverage r =
  Dl_fault.Coverage.make (Array.map (fun d -> d.voltage) r.detection)

let earliest a b =
  match (a, b) with
  | Some x, Some y -> Some (min x y)
  | Some x, None | None, Some x -> Some x
  | None, None -> None

let iddq_weighted_coverage r =
  Dl_fault.Coverage.make ~weights:(weights_of r)
    (Array.map (fun d -> earliest d.voltage d.iddq) r.detection)


let signature net ~fault ~vectors =
  let fails = Array.make (Array.length vectors) false in
  let on_voltage_detect ~fault_index:_ ~vector_index = fails.(vector_index) <- true in
  let (_ : result) =
    run ~drop_when:`Never ~on_voltage_detect net ~faults:[| fault |] ~vectors
  in
  fails
