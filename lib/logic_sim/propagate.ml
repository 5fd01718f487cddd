open Dl_netlist

(* A faulty value is stored as an int code: [absent] means the node is not
   in the map (it carries its fault-free value). *)
let absent = -1

let code = function Ternary.V0 -> 0 | Ternary.V1 -> 1 | Ternary.VX -> 2
let of_code = function 0 -> Ternary.V0 | 1 -> Ternary.V1 | _ -> Ternary.VX

type scratch = {
  circuit : Circuit.t;
  faulty : int array;        (* node -> [absent] or the code of its faulty value *)
  entered : int array;       (* nodes with a faulty value, in insertion order *)
  mutable n_entered : int;
  queued : bool array;
  level_start : int array;   (* per-level bucket offsets into [bucket] *)
  level_fill : int array;
  bucket : int array;
  pins : Ternary.t array array;  (* fanin buffer per arity *)
}

let scratch (c : Circuit.t) =
  let n = Circuit.node_count c in
  let depth = Circuit.depth c in
  (* A node is queued at most once per run (only lower-level nodes push
     it), so each level's bucket needs room for that level's nodes only. *)
  let level_start = Array.make (depth + 2) 0 in
  Array.iter (fun l -> level_start.(l + 1) <- level_start.(l + 1) + 1) c.levels;
  for l = 1 to depth + 1 do
    level_start.(l) <- level_start.(l) + level_start.(l - 1)
  done;
  let max_arity =
    Array.fold_left
      (fun acc (nd : Circuit.node) -> max acc (Array.length nd.fanin))
      0 c.nodes
  in
  {
    circuit = c;
    faulty = Array.make n absent;
    entered = Array.make n 0;
    n_entered = 0;
    queued = Array.make n false;
    level_start;
    level_fill = Array.make (depth + 1) 0;
    bucket = Array.make n 0;
    pins = Array.init (max_arity + 1) (fun a -> Array.make a Ternary.VX);
  }

let reset s =
  for i = 0 to s.n_entered - 1 do
    s.faulty.(s.entered.(i)) <- absent
  done;
  s.n_entered <- 0

let value s good id =
  let f = s.faulty.(id) in
  if f = absent then Ternary.of_bool good.(id) else of_code f

let enter s id v =
  if s.faulty.(id) = absent then begin
    s.entered.(s.n_entered) <- id;
    s.n_entered <- s.n_entered + 1
  end;
  s.faulty.(id) <- code v

let push s id =
  if not s.queued.(id) then begin
    s.queued.(id) <- true;
    let l = s.circuit.levels.(id) in
    s.bucket.(s.level_start.(l) + s.level_fill.(l)) <- id;
    s.level_fill.(l) <- s.level_fill.(l) + 1
  end

let seed s good id v =
  if not (Ternary.equal v (Ternary.of_bool good.(id))) then begin
    enter s id v;
    Array.iter (push s) s.circuit.fanouts.(id)
  end

(* Evaluate the queued fanout cone level by level, in push order. *)
let settle s good =
  let c = s.circuit in
  for level = 0 to Array.length s.level_fill - 1 do
    let base = s.level_start.(level) in
    for i = 0 to s.level_fill.(level) - 1 do
      let id = s.bucket.(base + i) in
      s.queued.(id) <- false;
      let nd = c.nodes.(id) in
      if nd.kind <> Gate.Input && s.faulty.(id) = absent then begin
        let ins = s.pins.(Array.length nd.fanin) in
        for p = 0 to Array.length ins - 1 do
          ins.(p) <- value s good nd.fanin.(p)
        done;
        let v = Ternary.eval nd.kind ins in
        if not (Ternary.equal v (Ternary.of_bool good.(id))) then begin
          enter s id v;
          Array.iter (push s) c.fanouts.(id)
        end
      end
    done;
    s.level_fill.(level) <- 0
  done

let detects s good =
  Array.exists
    (fun o ->
      match s.faulty.(o) with
      | 0 -> good.(o)
      | 1 -> not good.(o)
      | _ -> false)
    s.circuit.outputs

(* Evaluate the fanout cone of the seed overrides against the good machine;
   returns the sparse faulty-value map. *)
let run (c : Circuit.t) good seeds =
  let s = scratch c in
  List.iter (fun (id, v) -> seed s good id v) seeds;
  settle s good;
  let map : (int, Ternary.t) Hashtbl.t = Hashtbl.create 32 in
  for i = 0 to s.n_entered - 1 do
    let id = s.entered.(i) in
    Hashtbl.replace map id (of_code s.faulty.(id))
  done;
  map

let po_detects (c : Circuit.t) good map =
  Array.exists
    (fun o ->
      match Hashtbl.find_opt map o with
      | Some Ternary.V0 -> good.(o)
      | Some Ternary.V1 -> not good.(o)
      | Some Ternary.VX | None -> false)
    c.outputs
