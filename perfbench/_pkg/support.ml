(* Measurement plumbing shared by every workload: clocks, calibration,
   the in-memory span/counter trace, pinned-value checks, and the result
   line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- machine calibration ------------------------------------------------ *)

(* A fixed task that runs no library code and allocates like the library
   does: a 40k-entry hash table, a sort of 60k floats, and a 50k-element
   list filtered into another, about 4 MiB in all.  Its time follows the
   machine's pace for allocation- and memory-heavy code, which on the
   reference machine drifts by up to 1.5 times from minute to minute.  (A
   loop over a 256-KiB buffer, which stays in the core's own cache, moved
   far less than the workloads did.)  Returns the time in seconds. *)
let calibrate () =
  let t0 = now () in
  let rng = Random.State.make [| 42 |] in
  let h = Hashtbl.create 1024 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (Random.State.int rng 1_000_000) (float_of_int i, [ i ])
  done;
  let a = Array.init 60_000 (fun _ -> Random.State.float rng 1.0) in
  Array.sort compare a;
  let l = List.init 50_000 (fun i -> (float_of_int i *. a.(i mod 60_000), i)) in
  let kept =
    List.fold_left (fun acc (f, i) -> if i land 1 = 0 then f :: acc else acc) [] l
  in
  ignore (Sys.opaque_identity (h, kept));
  now () -. t0

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- trace: spans and counters, kept in memory --------------------------- *)

module Trace = struct
  type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

  let enabled = ref false
  let spans : span list ref = ref []
  let next_id = ref 1
  let stack = ref [ 0 ]
  let counters : (string, float) Hashtbl.t = Hashtbl.create 32

  (* [span name f] times [f] as a child of the innermost open span.  With
     tracing off it is a plain call, so the untraced run pays nothing. *)
  let span name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = List.hd !stack in
      stack := id :: !stack;
      let t0 = now () in
      let finish () =
        spans := { id; parent; name; t0; t1 = now () } :: !spans;
        stack := List.tl !stack
      in
      Fun.protect ~finally:finish f
    end

  let count name v =
    if !enabled then
      Hashtbl.replace counters name
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

  let total name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
      0.0 !spans

  let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \
           \"end\": %.6f}\n"
          s.id s.parent s.name s.t0 s.t1)
      (List.rev !spans);
    close_out oc
end

(* --- correctness bookkeeping --------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let problems = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr problems;
      prerr_endline ("perfbench: CHECK FAILED: " ^ msg))
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* One operation of the workload: counted as attempted, and as failed when
   any check raised inside [f] reported a problem. *)
let operation f =
  incr attempted;
  let before = !problems in
  let r = f () in
  if !problems > before then incr failed;
  r

(* Pinned values: lines "<workload> <seed|*> <key> <value>" in pins.txt,
   recorded at the commit that defined the benchmark.  A key pinned under
   "*" must be present (its input does not depend on the seed); a key
   pinned under a number is checked only for that seed, and every seed is
   additionally checked against an independent oracle by its workload. *)
module Pins = struct
  let table : (string * string * string, string) Hashtbl.t = Hashtbl.create 64
  let workload = ref ""
  let seed = ref 0

  let load path =
    let ic = open_in path in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           Scanf.sscanf line "%s %s %s %s@\n" (fun w s k v ->
               Hashtbl.replace table (w, s, k) v)
       done
     with End_of_file -> ());
    close_in ic

  (* Seed-independent value: must match its pin. *)
  let fixed key value =
    match Hashtbl.find_opt table (!workload, "*", key) with
    | Some v -> check (v = value) "%s %s = %s, pinned %s" !workload key value v
    | None -> fail "%s %s = %s has no pin" !workload key value

  (* Seed-dependent value: checked when this seed was pinned. *)
  let seeded key value =
    let scope = string_of_int !seed in
    match Hashtbl.find_opt table (!workload, scope, key) with
    | Some v ->
        check (v = value) "%s seed %s %s = %s, pinned %s" !workload scope key
          value v
    | None -> ()
end

let hex f = Printf.sprintf "%h" f
let digest s = Digest.to_hex (Digest.string s)

let digest_options (a : int option array) =
  let b = Buffer.create (Array.length a * 4) in
  Array.iter
    (function
      | None -> Buffer.add_string b "-;"
      | Some i -> Buffer.add_string b (string_of_int i ^ ";"))
    a;
  digest (Buffer.contents b)

(* --- the result line ----------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Human-readable lines first, then one JSON object as the last line of
   standard output. *)
let report metrics =
  List.iter
    (fun m -> Printf.printf "metric %-28s %.6g %s\n" m.name m.value m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           let v =
             if Float.is_integer m.value && Float.abs m.value < 1e15 then
               Printf.sprintf "%.0f" m.value
             else Printf.sprintf "%.17g" m.value
           in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name v m.unit_)
         metrics)
  in
  (* A check outside any one operation (a pinned digest over all of them)
     fails the run as a whole: it counts as one failed operation. *)
  let failed = if !problems > 0 then max 1 !failed else !failed in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = 0) (max 1 !attempted) failed body

(* --- scratch directories inside the work root ---------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let fresh_counter = ref 0

(* An empty directory under [root], removed first if a previous run left it. *)
let fresh_dir root tag =
  incr fresh_counter;
  let d = Filename.concat root (Printf.sprintf "%s-%d" tag !fresh_counter) in
  rm_rf d;
  mkdir_p d;
  d
