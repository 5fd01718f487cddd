module Ternary = Dl_logic.Ternary
module Int_tbl = Hashtbl.Make (Int)
module String_tbl = Hashtbl.Make (String)

type t = { short : int Int_tbl.t; long : string String_tbl.t }

let create () = { short = Int_tbl.create 16; long = String_tbl.create 1 }

let clear t =
  Int_tbl.reset t.short;
  String_tbl.reset t.long

let code = function Ternary.V0 -> 0 | Ternary.V1 -> 1 | Ternary.VX -> 2
let of_code = function 0 -> Ternary.V0 | 1 -> Ternary.V1 | _ -> Ternary.VX

(* Two bits per ternary: 31 fit in a 63-bit int with the sign bit clear. *)
let int_slots = 31

let pack_int inputs charges =
  let key = ref 0 in
  for i = 0 to Array.length inputs - 1 do
    key := (!key lsl 2) lor code inputs.(i)
  done;
  for i = 0 to Array.length charges - 1 do
    key := (!key lsl 2) lor code charges.(i)
  done;
  !key

(* Reported values above the fight bit. *)
let pack_outcome values fight =
  let p = ref (Bool.to_int fight) in
  for i = Array.length values - 1 downto 0 do
    p := (!p lsl 2) lor code values.(i)
  done;
  !p

let unpack_outcome p values =
  let p = ref p in
  for i = 0 to Array.length values - 1 do
    values.(i) <- of_code (!p land 3);
    p := !p lsr 2
  done;
  !p land 1 = 1

let pack_bytes parts =
  let n = List.fold_left (fun acc a -> acc + Array.length a) 0 parts in
  let b = Bytes.make ((n + 3) / 4) '\000' in
  let pos = ref 0 in
  List.iter
    (Array.iter (fun v ->
         let byte = !pos / 4 and shift = 2 * (!pos mod 4) in
         Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lor (code v lsl shift));
         incr pos))
    parts;
  Bytes.unsafe_to_string b

let solve t region ~inputs ~charges ~values =
  let n_values = Array.length values in
  if Array.length inputs + Array.length charges <= int_slots
     && n_values < int_slots
  then begin
    let key = pack_int inputs charges in
    match Int_tbl.find t.short key with
    | packed -> unpack_outcome packed values
    | exception Not_found ->
        let fight = Solver.solve_slots region ~inputs ~charges ~values in
        Int_tbl.add t.short key (pack_outcome values fight);
        fight
  end
  else begin
    let key = pack_bytes [ inputs; charges ] in
    match String_tbl.find t.long key with
    | packed ->
        for i = 0 to n_values - 1 do
          let byte = Char.code packed.[i / 4] in
          values.(i) <- of_code ((byte lsr (2 * (i mod 4))) land 3)
        done;
        Char.code packed.[String.length packed - 1] = 1
    | exception Not_found ->
        let fight = Solver.solve_slots region ~inputs ~charges ~values in
        String_tbl.add t.long key
          (pack_bytes [ values ] ^ String.make 1 (Char.chr (Bool.to_int fight)));
        fight
  end
