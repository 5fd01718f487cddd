open Dl_logic
module Mapping = Dl_cell.Mapping
module Cell = Dl_cell.Cell

type modification =
  | Remove_transistor of int
  | Short_transistor of int
  | Bridge_nodes of { node_a : int; node_b : int }
  | Resistive_bridge of { node_a : int; node_b : int; resistance : float }

(* Relative series resistances of the strength model.  The NMOS/PMOS ratio
   reflects electron/hole mobility, and deliberately breaks ties so that a
   hard bridge between opposing drivers resolves like the classical
   wired-AND CMOS bridging model (pull-down usually wins); a bridge is a
   hard short (zero resistance). *)
let r_nmos = 1.0
let r_pmos = 2.5
let r_bridge = 0.0

(* External pad drivers are much stronger than cell pulls but not perfectly
   matched to each other: when two bridged inputs fight, the (arbitrarily,
   deterministically) stronger pad wins, as on silicon.  Both strengths stay
   far below every cell-path resistance. *)
let r_driver node = 0.2 +. (0.001 *. float_of_int (node mod 97))
let infinite = infinity

type outcome = { values : (int * Ternary.t) list; fight : bool }

(* The solver as first written: interpreted straight from the edge list,
   re-reading [external_value] and scanning every edge per Dijkstra step.
   Kept verbatim as the oracle for the compiled kernel below. *)
module Reference = struct
  type gating = Always_on | Gated of int * Cell.channel

  type edge = { endpoint_a : int; endpoint_b : int; resistance : float; gating : gating }

  type t = {
    network : Network.t;
    globals : int array;          (* local -> global node id (floats < 0 are synthetic) *)
    local_of : (int, int) Hashtbl.t;
    edges : edge array;
    gnd : int;                    (* local ids *)
    vdd : int;
    pi_nodes : (int * int) list;  (* (local, global) nodes with external pad drivers *)
    resolved : int list;          (* local ids whose values the region determines *)
  }

  let nodes t = List.map (fun l -> t.globals.(l)) t.resolved

  let observable_nodes t =
    List.map (fun l -> t.globals.(l)) t.resolved
    @ List.map (fun (_, g) -> g) t.pi_nodes

  let make (net : Network.t) ~instances ~modifications =
    let m = Network.mapping net in
    let removed = Hashtbl.create 4 in
    let shorted = Hashtbl.create 4 in
    List.iter
      (function
        | Remove_transistor ti -> Hashtbl.replace removed ti ()
        | Short_transistor ti -> Hashtbl.replace shorted ti ()
        | Bridge_nodes _ | Resistive_bridge _ -> ())
      modifications;
    let local_of = Hashtbl.create 32 in
    let globals = ref [] in
    let count = ref 0 in
    let intern global =
      match Hashtbl.find_opt local_of global with
      | Some l -> l
      | None ->
          let l = !count in
          incr count;
          Hashtbl.replace local_of global l;
          globals := global :: !globals;
          l
    in
    let gnd = intern m.Mapping.gnd in
    let vdd = intern m.Mapping.vdd in
    let resolved = ref [] in
    List.iter
      (fun ii ->
        let inst = m.Mapping.instances.(ii) in
        resolved := intern inst.output_node :: !resolved;
        Array.iter (fun nd -> resolved := intern nd :: !resolved) inst.internal_nodes)
      instances;
    (* Channel edges from the instances' transistors. *)
    let edges = ref [] in
    List.iter
      (fun ii ->
        let inst = m.Mapping.instances.(ii) in
        let n_ts = List.length inst.cell.Cell.transistors in
        for k = 0 to n_ts - 1 do
          let ti = inst.first_transistor + k in
          if not (Hashtbl.mem removed ti) then begin
            let tr = m.Mapping.transistors.(ti) in
            let a = intern tr.source and b = intern tr.drain in
            let gating, resistance =
              if Hashtbl.mem shorted ti then (Always_on, r_nmos)
              else
                ( Gated (tr.gate, tr.channel),
                  match tr.channel with Cell.Nmos -> r_nmos | Cell.Pmos -> r_pmos )
            in
            edges := { endpoint_a = a; endpoint_b = b; resistance; gating } :: !edges
          end
        done)
      instances;
    let pi_nodes = ref [] in
    let add_bridge node_a node_b resistance =
      let a = intern node_a and b = intern node_b in
      edges :=
        { endpoint_a = a; endpoint_b = b; resistance; gating = Always_on } :: !edges;
      List.iter
        (fun (g, l) ->
          if Network.is_primary_input net g then pi_nodes := (l, g) :: !pi_nodes
          else resolved := l :: !resolved)
        [ (node_a, a); (node_b, b) ]
    in
    List.iter
      (function
        | Bridge_nodes { node_a; node_b } -> add_bridge node_a node_b r_bridge
        | Resistive_bridge { node_a; node_b; resistance } ->
            if resistance < 0.0 then
              invalid_arg "Solver: bridge resistance must be non-negative";
            add_bridge node_a node_b resistance
        | Remove_transistor _ | Short_transistor _ -> ())
      modifications;
    (* De-duplicate resolved list, drop rails. *)
    let seen = Hashtbl.create 16 in
    let resolved =
      List.filter
        (fun l ->
          if l = gnd || l = vdd || Hashtbl.mem seen l then false
          else begin
            Hashtbl.replace seen l ();
            true
          end)
        (List.rev !resolved)
    in
    let globals_arr = Array.make !count (-1) in
    List.iteri
      (fun i g ->
        (* globals list is reversed relative to allocation order. *)
        globals_arr.(!count - 1 - i) <- g)
      !globals;
    {
      network = net;
      globals = globals_arr;
      local_of;
      edges = Array.of_list (List.rev !edges);
      gnd;
      vdd;
      pi_nodes = !pi_nodes;
      resolved;
    }

  type conduction = On | Off | Maybe

  let solve t ~external_value ~charge =
    let n = Array.length t.globals in
    let values = Array.make n Ternary.VX in
    values.(t.gnd) <- Ternary.V0;
    values.(t.vdd) <- Ternary.V1;
    let pi_value = List.map (fun (l, g) -> (l, external_value g)) t.pi_nodes in
    List.iter (fun (l, v) -> values.(l) <- v) pi_value;
    let solved_locals = t.resolved @ List.map fst t.pi_nodes in
    let gate_value gnode =
      match Hashtbl.find_opt t.local_of gnode with
      | Some l when List.mem l solved_locals -> values.(l)
      | Some l when l = t.gnd -> Ternary.V0
      | Some l when l = t.vdd -> Ternary.V1
      | _ -> external_value gnode
    in
    let conduction e =
      match e.gating with
      | Always_on -> On
      | Gated (gnode, channel) -> (
          match (gate_value gnode, channel) with
          | Ternary.V1, Cell.Nmos | Ternary.V0, Cell.Pmos -> On
          | Ternary.V0, Cell.Nmos | Ternary.V1, Cell.Pmos -> Off
          | Ternary.VX, _ -> Maybe)
    in
    (* Single-source shortest path from a rail through edges whose conduction
       is in [accept]; O(V^2) Dijkstra is ample for these tiny graphs. *)
    let distances source accept =
      let dist = Array.make n infinite in
      dist.(source) <- 0.0;
      (* Pad drivers: a PI node with a matching value extends the rail. *)
      List.iter
        (fun (l, v) ->
          let matches =
            match (v, source = t.vdd) with
            | Ternary.V1, true | Ternary.V0, false -> true
            | Ternary.VX, _ -> accept Maybe
            | _ -> false
          in
          let r = r_driver t.globals.(l) in
          if matches && r < dist.(l) then dist.(l) <- r)
        pi_value;
      let visited = Array.make n false in
      let rec loop () =
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if (not visited.(i)) && dist.(i) < infinite then
            if !best < 0 || dist.(i) < dist.(!best) then best := i
        done;
        if !best >= 0 then begin
          let u = !best in
          visited.(u) <- true;
          (* Rails are sources, never conduits: a path entering the opposite
             rail must not continue out of it. *)
          let blocked = (u = t.gnd || u = t.vdd) && u <> source in
          if not blocked then
          Array.iter
            (fun e ->
              if accept (conduction e) then begin
                let relax a b =
                  if a = u && dist.(u) +. e.resistance < dist.(b) then
                    dist.(b) <- dist.(u) +. e.resistance
                in
                relax e.endpoint_a e.endpoint_b;
                relax e.endpoint_b e.endpoint_a
              end)
            t.edges;
          loop ()
        end
      in
      loop ();
      dist
    in
    let debug = Sys.getenv_opt "DL_SOLVER_DEBUG" <> None in
    let fight = ref false in
    let stable = ref false in
    let rounds = ref 0 in
    let max_rounds = 4 * (n + 2) in
    while (not !stable) && !rounds < max_rounds do
      incr rounds;
      let def_dn = distances t.gnd (fun c -> c = On) in
      let def_up = distances t.vdd (fun c -> c = On) in
      let pos_dn = distances t.gnd (fun c -> c <> Off) in
      let pos_up = distances t.vdd (fun c -> c <> Off) in
      if debug then begin
        Printf.eprintf "round %d:\n" !rounds;
        List.iter (fun l ->
          Printf.eprintf "  node g%d l%d du=%.2f dd=%.2f pu=%.2f pd=%.2f val=%c\n"
            t.globals.(l) l def_up.(l) def_dn.(l) pos_up.(l) pos_dn.(l)
            (Ternary.to_char values.(l))) t.resolved;
        Array.iteri (fun ei e ->
          Printf.eprintf "  edge %d l%d-l%d r=%.2f cond=%s\n" ei e.endpoint_a e.endpoint_b e.resistance
            (match conduction e with On -> "on" | Off -> "off" | Maybe -> "maybe")) t.edges
      end;
      stable := true;
      List.iter
        (fun l ->
          let du = def_up.(l) and dd = def_dn.(l) in
          let pu = pos_up.(l) and pd = pos_dn.(l) in
          let v =
            if du < infinite && dd < infinite then begin
              fight := true;
              (* Stronger (lower-resistance) side wins the fight. *)
              if du < dd then Ternary.V1
              else if dd < du then Ternary.V0
              else Ternary.VX
            end
            else if du < infinite then (if pd < infinite then Ternary.VX else Ternary.V1)
            else if dd < infinite then (if pu < infinite then Ternary.VX else Ternary.V0)
            else if pu < infinite || pd < infinite then Ternary.VX
            else charge t.globals.(l)
          in
          if v <> values.(l) then begin
            values.(l) <- v;
            stable := false
          end)
        solved_locals;
      (* A pad driver opposed by a definite rail path is also a fight. *)
      List.iter
        (fun (l, v) ->
          match v with
          | Ternary.V1 -> if def_dn.(l) < infinite then fight := true
          | Ternary.V0 -> if def_up.(l) < infinite then fight := true
          | Ternary.VX -> ())
        pi_value
    done;
    let report =
      List.map (fun l -> (t.globals.(l), values.(l))) t.resolved
      @ List.map (fun (l, _) -> (t.globals.(l), values.(l))) t.pi_nodes
    in
    { values = report; fight = !fight }
end

(* --- compiled kernel ------------------------------------------------------ *)

(* Diagnostics switch, read once per process. *)
let debug = Sys.getenv_opt "DL_SOLVER_DEBUG" <> None

type conduction = On | Off | Maybe

let conduct v channel =
  match (v, channel) with
  | Ternary.V1, Cell.Nmos | Ternary.V0, Cell.Pmos -> On
  | Ternary.V0, Cell.Nmos | Ternary.V1, Cell.Pmos -> Off
  | Ternary.VX, _ -> Maybe

(* Where an edge's conduction comes from. *)
type gate =
  | Fixed of conduction            (* always on, or gated by a rail *)
  | Local of int * Cell.channel    (* gated by a node the region solves *)
  | Input of int * Cell.channel    (* gated by an external input slot *)

type t = {
  n : int;                   (* local nodes *)
  gnd : int;
  vdd : int;
  globals : int array;       (* local -> global node id *)
  edge_a : int array;
  edge_b : int array;
  edge_r : float array;
  edge_gate : gate array;
  adj_start : int array;     (* per-node adjacency: [adj_start.(u)] .. [adj_start.(u+1)-1] *)
  adj_edge : int array;
  adj_other : int array;
  pi_local : int array;      (* pad-driven nodes, with their input slot and driver *)
  pi_slot : int array;
  pi_r : float array;
  solved : int array;        (* resolved locals, then pad-driven locals: report order *)
  n_resolved : int;
  inputs : int array;        (* global node per external input slot *)
}

let compile (r : Reference.t) =
  let n = Array.length r.globals in
  let is_solved = Array.make n false in
  let solved = Array.of_list (r.resolved @ List.map fst r.pi_nodes) in
  Array.iter (fun l -> is_solved.(l) <- true) solved;
  (* External input slots: pad drivers first, then the gate terminals the
     region does not solve itself, each global once, in first-read order. *)
  let slot_of = Hashtbl.create 16 in
  let inputs = ref [] in
  let slot g =
    match Hashtbl.find_opt slot_of g with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slot_of in
        Hashtbl.replace slot_of g s;
        inputs := g :: !inputs;
        s
  in
  let pi_slot = Array.of_list (List.map (fun (_, g) -> slot g) r.pi_nodes) in
  let edge_gate =
    Array.map
      (fun (e : Reference.edge) ->
        match e.gating with
        | Reference.Always_on -> Fixed On
        | Reference.Gated (g, ch) -> (
            match Hashtbl.find_opt r.local_of g with
            | Some l when is_solved.(l) -> Local (l, ch)
            | Some l when l = r.gnd -> Fixed (conduct Ternary.V0 ch)
            | Some l when l = r.vdd -> Fixed (conduct Ternary.V1 ch)
            | _ -> Input (slot g, ch)))
      r.edges
  in
  let edge_a = Array.map (fun (e : Reference.edge) -> e.endpoint_a) r.edges in
  let edge_b = Array.map (fun (e : Reference.edge) -> e.endpoint_b) r.edges in
  let degree = Array.make (n + 1) 0 in
  Array.iteri
    (fun e a ->
      degree.(a + 1) <- degree.(a + 1) + 1;
      if edge_b.(e) <> a then degree.(edge_b.(e) + 1) <- degree.(edge_b.(e) + 1) + 1)
    edge_a;
  for u = 1 to n do
    degree.(u) <- degree.(u) + degree.(u - 1)
  done;
  let adj_start = degree in
  let fill = Array.sub adj_start 0 n in
  let adj_edge = Array.make adj_start.(n) 0 in
  let adj_other = Array.make adj_start.(n) 0 in
  let add u e other =
    adj_edge.(fill.(u)) <- e;
    adj_other.(fill.(u)) <- other;
    fill.(u) <- fill.(u) + 1
  in
  Array.iteri
    (fun e a ->
      let b = edge_b.(e) in
      add a e b;
      if b <> a then add b e a)
    edge_a;
  {
    n;
    gnd = r.gnd;
    vdd = r.vdd;
    globals = r.globals;
    edge_a;
    edge_b;
    edge_r = Array.map (fun (e : Reference.edge) -> e.resistance) r.edges;
    edge_gate;
    adj_start;
    adj_edge;
    adj_other;
    pi_local = Array.of_list (List.map fst r.pi_nodes);
    pi_slot;
    pi_r = Array.of_list (List.map (fun (_, g) -> r_driver g) r.pi_nodes);
    solved;
    n_resolved = List.length r.resolved;
    inputs = Array.of_list (List.rev !inputs);
  }

let make net ~instances ~modifications =
  compile (Reference.make net ~instances ~modifications)

let nodes t = List.init t.n_resolved (fun i -> t.globals.(t.solved.(i)))
let observable_nodes t = List.init (Array.length t.solved) (fun i -> t.globals.(t.solved.(i)))
let input_nodes t = t.inputs
let charge_count t = t.n_resolved
let report_count t = Array.length t.solved

(* Everything [solve_slots] reads, so equal shapes compute equal functions
   of (inputs, charges).  Marshalling is injective on these plain values. *)
let shape t =
  Marshal.to_string
    ( t.n, t.gnd, t.vdd, t.n_resolved, Array.length t.inputs,
      (t.edge_a, t.edge_b, t.edge_r, t.edge_gate),
      (t.pi_local, t.pi_slot, t.pi_r, t.solved) )
    [ Marshal.No_sharing ]

(* The same relaxation as [Reference.solve], on the compiled arrays: edge
   conduction is evaluated once per round, and each Dijkstra step scans
   only the settled node's own edges.  Shortest-path distances do not
   depend on the order edges are relaxed in, so the values are the
   reference's. *)
let solve_slots t ~inputs ~charges ~values =
  let n = t.n in
  let v = Array.make n Ternary.VX in
  v.(t.gnd) <- Ternary.V0;
  v.(t.vdd) <- Ternary.V1;
  let n_pi = Array.length t.pi_local in
  let pi_value = Array.init n_pi (fun i -> inputs.(t.pi_slot.(i))) in
  for i = 0 to n_pi - 1 do
    v.(t.pi_local.(i)) <- pi_value.(i)
  done;
  let n_edges = Array.length t.edge_r in
  let cond = Array.make n_edges Off in
  let visited = Array.make n false in
  (* Rail distances into [dist] through edges that are on (or, with
     [maybe], not off). *)
  let distances source ~maybe dist =
    Array.fill dist 0 n infinite;
    Array.fill visited 0 n false;
    dist.(source) <- 0.0;
    (* Pad drivers: a PI node with a matching value extends the rail. *)
    for i = 0 to n_pi - 1 do
      let matches =
        match (pi_value.(i), source = t.vdd) with
        | Ternary.V1, true | Ternary.V0, false -> true
        | Ternary.VX, _ -> maybe
        | _ -> false
      in
      let l = t.pi_local.(i) in
      if matches && t.pi_r.(i) < dist.(l) then dist.(l) <- t.pi_r.(i)
    done;
    let continue = ref true in
    while !continue do
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if (not visited.(i)) && dist.(i) < infinite then
          if !best < 0 || dist.(i) < dist.(!best) then best := i
      done;
      let u = !best in
      if u < 0 then continue := false
      else begin
        visited.(u) <- true;
        (* Rails are sources, never conduits. *)
        if not ((u = t.gnd || u = t.vdd) && u <> source) then
          for k = t.adj_start.(u) to t.adj_start.(u + 1) - 1 do
            let e = t.adj_edge.(k) in
            let accept =
              match cond.(e) with On -> true | Maybe -> maybe | Off -> false
            in
            if accept then begin
              let b = t.adj_other.(k) in
              let d = dist.(u) +. t.edge_r.(e) in
              if d < dist.(b) then dist.(b) <- d
            end
          done
      end
    done
  in
  let def_dn = Array.make n infinite and def_up = Array.make n infinite in
  let pos_dn = Array.make n infinite and pos_up = Array.make n infinite in
  let fight = ref false in
  let stable = ref false in
  let rounds = ref 0 in
  let max_rounds = 4 * (n + 2) in
  let n_solved = Array.length t.solved in
  while (not !stable) && !rounds < max_rounds do
    incr rounds;
    for e = 0 to n_edges - 1 do
      cond.(e) <-
        (match t.edge_gate.(e) with
        | Fixed c -> c
        | Local (l, ch) -> conduct v.(l) ch
        | Input (s, ch) -> conduct inputs.(s) ch)
    done;
    distances t.gnd ~maybe:false def_dn;
    distances t.vdd ~maybe:false def_up;
    distances t.gnd ~maybe:true pos_dn;
    distances t.vdd ~maybe:true pos_up;
    if debug then begin
      Printf.eprintf "round %d:\n" !rounds;
      for i = 0 to t.n_resolved - 1 do
        let l = t.solved.(i) in
        Printf.eprintf "  node g%d l%d du=%.2f dd=%.2f pu=%.2f pd=%.2f val=%c\n"
          t.globals.(l) l def_up.(l) def_dn.(l) pos_up.(l) pos_dn.(l)
          (Ternary.to_char v.(l))
      done;
      Array.iteri
        (fun e c ->
          Printf.eprintf "  edge %d l%d-l%d r=%.2f cond=%s\n" e t.edge_a.(e)
            t.edge_b.(e) t.edge_r.(e)
            (match c with On -> "on" | Off -> "off" | Maybe -> "maybe"))
        cond
    end;
    stable := true;
    for i = 0 to n_solved - 1 do
      let l = t.solved.(i) in
      let du = def_up.(l) and dd = def_dn.(l) in
      let pu = pos_up.(l) and pd = pos_dn.(l) in
      let x =
        if du < infinite && dd < infinite then begin
          fight := true;
          (* Stronger (lower-resistance) side wins the fight. *)
          if du < dd then Ternary.V1
          else if dd < du then Ternary.V0
          else Ternary.VX
        end
        else if du < infinite then (if pd < infinite then Ternary.VX else Ternary.V1)
        else if dd < infinite then (if pu < infinite then Ternary.VX else Ternary.V0)
        else if pu < infinite || pd < infinite then Ternary.VX
        else if i < t.n_resolved then charges.(i)
        else
          (* Unreachable: a pad-driven node always has a path from its own
             driver in one of the passes. *)
          Ternary.VX
      in
      if x <> v.(l) then begin
        v.(l) <- x;
        stable := false
      end
    done;
    (* A pad driver opposed by a definite rail path is also a fight. *)
    for i = 0 to n_pi - 1 do
      let l = t.pi_local.(i) in
      match pi_value.(i) with
      | Ternary.V1 -> if def_dn.(l) < infinite then fight := true
      | Ternary.V0 -> if def_up.(l) < infinite then fight := true
      | Ternary.VX -> ()
    done
  done;
  for i = 0 to n_solved - 1 do
    values.(i) <- v.(t.solved.(i))
  done;
  !fight

let solve t ~external_value ~charge =
  let inputs = Array.map external_value t.inputs in
  let charges =
    Array.init t.n_resolved (fun i -> charge t.globals.(t.solved.(i)))
  in
  let values = Array.make (Array.length t.solved) Ternary.VX in
  let fight = solve_slots t ~inputs ~charges ~values in
  {
    values = List.mapi (fun i g -> (g, values.(i))) (observable_nodes t);
    fight;
  }
