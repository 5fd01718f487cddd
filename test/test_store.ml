(* Artifact store: binary framing, codec envelopes, content-addressed
   store, incremental stage graph, and the cached experiment pipeline.

   The properties that matter operationally: every codec is an exact
   round-trip (floats bit-for-bit, circuits structurally equal), any
   single-byte corruption of an envelope is detected (cache miss, never a
   misread or a crash), a stale format version is a miss, and stage keys
   move exactly when the inputs they fingerprint move. *)

open Dl_netlist
module B = Dl_util.Binary
module Codec = Dl_store.Codec
module Artifact = Dl_store.Artifact
module Store = Dl_store.Store
module Stage = Dl_store.Stage

let small_profile =
  [ (Gate.Nand, 8); (Gate.Nor, 4); (Gate.And, 3); (Gate.Or, 3);
    (Gate.Not, 4); (Gate.Xor, 3) ]

let random_circuit seed =
  Generator.random ~seed ~inputs:6 ~outputs:3 ~profile:small_profile ()

(* A scratch store root per test, cleaned up eagerly. *)
let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlstore_test_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- binary framing ------------------------------------------------------- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint round-trips" ~count:500
    QCheck.(int_bound max_int)
    (fun n ->
      let buf = Buffer.create 16 in
      B.write_varint buf n;
      B.read_varint (B.cursor (Buffer.to_bytes buf)) = n)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"zigzag int round-trips" ~count:500 QCheck.int
    (fun n ->
      let buf = Buffer.create 16 in
      B.write_int buf n;
      B.read_int (B.cursor (Buffer.to_bytes buf)) = n)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"float round-trips bit-for-bit" ~count:500 QCheck.float
    (fun x ->
      let buf = Buffer.create 16 in
      B.write_float buf x;
      let y = B.read_float (B.cursor (Buffer.to_bytes buf)) in
      Int64.bits_of_float x = Int64.bits_of_float y)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string round-trips" ~count:300 QCheck.string
    (fun s ->
      let buf = Buffer.create 16 in
      B.write_string buf s;
      B.read_string (B.cursor (Buffer.to_bytes buf)) = s)

let prop_packed_bools_roundtrip =
  QCheck.Test.make ~name:"packed bool arrays round-trip" ~count:300
    QCheck.(array bool)
    (fun a ->
      let buf = Buffer.create 16 in
      B.write_bools_packed buf a;
      B.read_bools_packed (B.cursor (Buffer.to_bytes buf)) = a)

let test_float_special_values () =
  List.iter
    (fun x ->
      let buf = Buffer.create 16 in
      B.write_float buf x;
      let y = B.read_float (B.cursor (Buffer.to_bytes buf)) in
      Alcotest.(check int64) "same bits" (Int64.bits_of_float x)
        (Int64.bits_of_float y))
    [ nan; infinity; neg_infinity; -0.0; 0.0; epsilon_float; max_float ]

let test_crc32_known_vector () =
  (* The standard CRC-32 (IEEE 802.3) check value. *)
  Alcotest.(check int32) "crc32(\"123456789\")" 0xCBF43926l
    (B.crc32_string "123456789")

let test_truncation_is_corrupt () =
  let buf = Buffer.create 16 in
  B.write_string buf "hello";
  let data = Buffer.to_bytes buf in
  for len = 0 to Bytes.length data - 1 do
    let truncated = Bytes.sub data 0 len in
    match B.read_string (B.cursor truncated) with
    | _ -> Alcotest.fail "truncated read succeeded"
    | exception B.Corrupt _ -> ()
  done

(* --- codec envelopes ------------------------------------------------------ *)

let test_envelope_roundtrip () =
  let c = Benchmarks.c17 () in
  let data = Codec.to_bytes Artifact.circuit c in
  (match Codec.inspect data with
  | Ok (kind, version) ->
      Alcotest.(check string) "kind" "circuit" kind;
      Alcotest.(check int) "version" Artifact.circuit.Codec.version version
  | Error e -> Alcotest.fail (Codec.error_to_string e));
  match Codec.of_bytes Artifact.circuit data with
  | Ok c' -> Alcotest.(check bool) "structurally equal" true (c = c')
  | Error e -> Alcotest.fail (Codec.error_to_string e)

let test_every_byte_flip_detected () =
  let c = Benchmarks.c17 () in
  let data = Codec.to_bytes Artifact.circuit c in
  for i = 0 to Bytes.length data - 1 do
    let corrupted = Bytes.copy data in
    Bytes.set corrupted i (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x40));
    match Codec.of_bytes Artifact.circuit corrupted with
    | Ok _ -> Alcotest.failf "byte flip at %d went undetected" i
    | Error _ -> ()
  done

let test_version_bump_is_stale () =
  let c = Benchmarks.c17 () in
  let bumped = { Artifact.circuit with Codec.version = Artifact.circuit.Codec.version + 1 } in
  let data = Codec.to_bytes bumped c in
  match Codec.of_bytes Artifact.circuit data with
  | Error (Codec.Stale_version { expected; found }) ->
      Alcotest.(check int) "expected" Artifact.circuit.Codec.version expected;
      Alcotest.(check int) "found" (expected + 1) found
  | Ok _ -> Alcotest.fail "stale version decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_kind_mismatch () =
  let data = Codec.to_bytes Artifact.patterns [| [| true; false |] |] in
  match Codec.of_bytes Artifact.circuit data with
  | Error (Codec.Kind_mismatch { expected = "circuit"; found = "patterns" }) -> ()
  | Ok _ -> Alcotest.fail "wrong kind decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_garbage_is_bad_magic () =
  match Codec.of_bytes Artifact.circuit (Bytes.of_string "not an artifact") with
  | Error Codec.Bad_magic -> ()
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

(* --- artifact codecs ------------------------------------------------------ *)

let roundtrip codec v =
  match Codec.of_bytes codec (Codec.to_bytes codec v) with
  | Ok v' -> v' = v
  | Error _ -> false

let prop_circuit_roundtrip =
  QCheck.Test.make ~name:"random circuits round-trip structurally equal"
    ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed -> roundtrip Artifact.circuit (random_circuit seed))

let test_builtin_circuits_roundtrip () =
  List.iter
    (fun (name, build) ->
      Alcotest.(check bool) name true (roundtrip Artifact.circuit (build ())))
    Benchmarks.all

let prop_stuck_faults_roundtrip =
  QCheck.Test.make ~name:"stuck-at universes round-trip" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let c = random_circuit seed in
      roundtrip Artifact.stuck_faults (Dl_fault.Stuck_at.universe c)
      && roundtrip Artifact.stuck_faults
           (Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c)))

let prop_patterns_roundtrip =
  QCheck.Test.make ~name:"pattern sets round-trip" ~count:100
    QCheck.(pair small_nat (int_range 0 24))
    (fun (n, width) ->
      let rng = Dl_util.Rng.create (n + (width * 1000)) in
      let vs =
        Array.init n (fun _ -> Array.init width (fun _ -> Dl_util.Rng.bool rng))
      in
      roundtrip Artifact.patterns vs)

let prop_detections_roundtrip =
  QCheck.Test.make ~name:"detection results round-trip (v2, with stats)"
    ~count:100
    QCheck.(
      pair
        (triple (array (option small_nat)) small_nat small_nat)
        (triple small_nat small_nat small_nat))
    (fun ((first_detection, vectors_applied, gate_evaluations), (a, b, c)) ->
      let sim_stats =
        {
          Dl_fault.Fault_sim.Stats.gate_evaluations = a;
          events = b;
          faults_inferred = c;
          faults_simulated = a + b;
          stem_simulations = b + c;
          faults_dropped = a + c;
        }
      in
      roundtrip Artifact.detections
        { Artifact.first_detection; vectors_applied; gate_evaluations;
          sim_stats })

let test_ifa_swift_roundtrip () =
  (* Real extraction + swift output: every kind/policy/class constructor a
     pipeline produces goes through the wire format. *)
  let c = Transform.decompose_for_cells (Benchmarks.c432s_small ()) in
  let m = Dl_cell.Mapping.flatten c in
  let l = Dl_layout.Layout.synthesize m in
  let e = Dl_extract.Ifa.extract l in
  let ifa =
    { Artifact.faults = e.faults; gross_weight = e.gross_weight;
      summaries = e.summaries }
  in
  Alcotest.(check bool) "ifa" true (roundtrip Artifact.ifa ifa);
  let network = Dl_switch.Network.build m in
  let rng = Dl_util.Rng.create 11 in
  let vectors =
    Array.init 16 (fun _ ->
        Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))
  in
  let r = Dl_switch.Swift.run network ~faults:e.faults ~vectors in
  let swift =
    { Artifact.detection = r.detection; vectors_applied = r.vectors_applied;
      region_solves = r.region_solves }
  in
  Alcotest.(check bool) "swift" true (roundtrip Artifact.swift swift)

let prop_summary_roundtrip =
  QCheck.Test.make ~name:"summaries round-trip" ~count:100
    QCheck.(pair string (pair (pair float float) (pair float bool)))
    (fun (text, ((fit_r, fit_theta_max), (fit_rmse, fit_rmse_log10))) ->
      let v =
        { Artifact.text; fit_r; fit_theta_max; fit_rmse; fit_rmse_log10;
          scale_factor = fit_r *. 2.0 }
      in
      match Codec.of_bytes Artifact.summary (Codec.to_bytes Artifact.summary v) with
      | Error _ -> false
      | Ok v' ->
          (* NaN-safe: compare float fields by bits. *)
          let bits = Int64.bits_of_float in
          v'.Artifact.text = v.Artifact.text
          && bits v'.Artifact.fit_r = bits v.Artifact.fit_r
          && bits v'.Artifact.fit_theta_max = bits v.Artifact.fit_theta_max
          && bits v'.Artifact.fit_rmse = bits v.Artifact.fit_rmse
          && v'.Artifact.fit_rmse_log10 = v.Artifact.fit_rmse_log10
          && bits v'.Artifact.scale_factor = bits v.Artifact.scale_factor)

(* --- statistical-stage artifacts ------------------------------------------ *)

let sample_wafer_mc () =
  let band i =
    { Artifact.k = (i + 1) * 16; coverage = 0.2 *. float_of_int (i + 1);
      dl_point = 0.01 /. float_of_int (i + 1); dl_q05 = 0.001; dl_q50 = 0.005;
      dl_q95 = 0.02; passed = 900 - i; defective_passed = 9 - i;
      wafer_dls = Array.init (3 + i) (fun j -> 0.002 *. float_of_int j) }
  in
  { Artifact.dies = 1000; dies_per_wafer = 256; wafers_per_lot = 4;
    wafers = 4; lots = 1; alpha_wafer = Float.infinity;
    alpha_lot = 2.5; defective = 250;
    bands = Array.init 3 band }

let sample_bootstrap_fit () =
  { Artifact.fit_points = 100; point_r = 1.5; point_theta_max = 0.9;
    point_rmse = 0.01; point_rmse_log10 = false; alpha_point = 12.5;
    r_samples = Array.init 20 (fun i -> 1.4 +. (0.01 *. float_of_int i));
    theta_max_samples = Array.init 20 (fun i -> 0.88 +. (0.001 *. float_of_int i));
    alpha_samples = Array.init 20 (fun i -> 10.0 +. float_of_int i) }

let test_wafer_mc_roundtrip () =
  (* Exact round-trip, including the infinite (no-clustering) alpha. *)
  Alcotest.(check bool) "wafer-mc" true
    (roundtrip Artifact.wafer_mc (sample_wafer_mc ()))

let test_bootstrap_fit_roundtrip () =
  Alcotest.(check bool) "bootstrap-fit" true
    (roundtrip Artifact.bootstrap_fit (sample_bootstrap_fit ()))

let test_wafer_mc_every_byte_flip_detected () =
  let data = Codec.to_bytes Artifact.wafer_mc (sample_wafer_mc ()) in
  for i = 0 to Bytes.length data - 1 do
    let corrupted = Bytes.copy data in
    Bytes.set corrupted i
      (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x40));
    match Codec.of_bytes Artifact.wafer_mc corrupted with
    | Ok _ -> Alcotest.failf "byte flip at %d went undetected" i
    | Error _ -> ()
  done

let test_bootstrap_fit_every_byte_flip_detected () =
  let data = Codec.to_bytes Artifact.bootstrap_fit (sample_bootstrap_fit ()) in
  for i = 0 to Bytes.length data - 1 do
    let corrupted = Bytes.copy data in
    Bytes.set corrupted i
      (Char.chr (Char.code (Bytes.get corrupted i) lxor 0x40));
    match Codec.of_bytes Artifact.bootstrap_fit corrupted with
    | Ok _ -> Alcotest.failf "byte flip at %d went undetected" i
    | Error _ -> ()
  done

let stale_version_rejected (type a) (codec : a Codec.t) (v : a) =
  let bumped = { codec with Codec.version = codec.Codec.version + 1 } in
  match Codec.of_bytes codec (Codec.to_bytes bumped v) with
  | Error (Codec.Stale_version { expected; found }) ->
      expected = codec.Codec.version && found = expected + 1
  | _ -> false

let test_statistical_version_bump_is_stale () =
  Alcotest.(check bool) "wafer-mc stale" true
    (stale_version_rejected Artifact.wafer_mc (sample_wafer_mc ()));
  Alcotest.(check bool) "bootstrap-fit stale" true
    (stale_version_rejected Artifact.bootstrap_fit (sample_bootstrap_fit ()))

let test_bootstrap_fit_length_mismatch_is_malformed () =
  (* The three sample arrays are parallel (one entry per replicate); a
     mismatched encoding must not decode. *)
  let v = sample_bootstrap_fit () in
  let bad = { v with Artifact.theta_max_samples = Array.make 3 0.9 } in
  match Codec.of_bytes Artifact.bootstrap_fit (Codec.to_bytes Artifact.bootstrap_fit bad) with
  | Error (Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "length-mismatched samples decoded"
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)

let test_current_versions_cover_statistical_stages () =
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " registered") true
        (List.mem_assoc kind Artifact.current_versions))
    [ "wafer-mc"; "bootstrap-fit" ]

(* --- store ---------------------------------------------------------------- *)

let test_store_put_load () =
  with_store_dir (fun dir ->
      let s = Store.open_ dir in
      let c = Benchmarks.c17 () in
      let data = Codec.to_bytes Artifact.circuit c in
      let key = Codec.content_key Artifact.circuit c in
      Alcotest.(check bool) "absent before put" false (Store.mem s key);
      Store.put s ~key ~kind:"circuit" ~version:1 data;
      Alcotest.(check bool) "present after put" true (Store.mem s key);
      (match Store.load s key with
      | Some loaded -> Alcotest.(check bool) "same bytes" true (loaded = data)
      | None -> Alcotest.fail "load failed");
      let stats = Store.stats s in
      Alcotest.(check int) "one object" 1 stats.objects;
      Store.remove s key;
      Alcotest.(check bool) "absent after remove" false (Store.mem s key);
      Store.put s ~key ~kind:"circuit" ~version:1 data;
      Store.clear s;
      Alcotest.(check int) "empty after clear" 0 (Store.stats s).objects)

let test_store_verify_detects_corruption () =
  with_store_dir (fun dir ->
      let s = Store.open_ dir in
      let c = Benchmarks.c17 () in
      let key = Codec.content_key Artifact.circuit c in
      Store.put s ~key ~kind:"circuit" ~version:1
        (Codec.to_bytes Artifact.circuit c);
      Alcotest.(check (list (pair string string))) "clean store" []
        (Store.verify s).corrupt;
      (* Flip one byte in the middle of the object file. *)
      let path = Store.object_path s key in
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      let data = Bytes.of_string data in
      Bytes.set data (len / 2) (Char.chr (Char.code (Bytes.get data (len / 2)) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      let report = Store.verify s in
      Alcotest.(check int) "one corrupt" 1 (List.length report.corrupt);
      Alcotest.(check string) "the corrupted key" key
        (fst (List.hd report.corrupt)))

let test_store_gc_drops_stale_and_corrupt () =
  with_store_dir (fun dir ->
      let s = Store.open_ dir in
      let c = Benchmarks.c17 () in
      (* One live artifact, one with a stale format version, one corrupt. *)
      Store.put s ~key:(String.make 32 'a') ~kind:"circuit" ~version:1
        (Codec.to_bytes Artifact.circuit c);
      let stale_codec =
        { Artifact.circuit with Codec.version = Artifact.circuit.Codec.version + 1 }
      in
      Store.put s ~key:(String.make 32 'b') ~kind:"circuit"
        ~version:stale_codec.Codec.version
        (Codec.to_bytes stale_codec c);
      Store.put s ~key:(String.make 32 'c') ~kind:"circuit" ~version:1
        (Bytes.of_string "garbage, not an envelope");
      let r = Store.gc ~current:[ ("circuit", 1) ] s in
      Alcotest.(check int) "kept" 1 r.kept;
      Alcotest.(check int) "stale dropped" 1 r.removed_stale;
      Alcotest.(check int) "corrupt dropped" 1 r.removed_corrupt;
      Alcotest.(check bool) "live survives" true (Store.mem s (String.make 32 'a'));
      (* Size-capped eviction: oldest goes first (valid envelopes, so only
         the size cap can remove them). *)
      Store.clear s;
      let vs = Array.init 100 (fun _ -> Array.make 80 true) in
      let payload = Codec.to_bytes Artifact.patterns vs in
      let version = Artifact.patterns.Codec.version in
      Store.put s ~key:(String.make 32 'd') ~kind:"patterns" ~version payload;
      Store.put s ~key:(String.make 32 'e') ~kind:"patterns" ~version payload;
      let cap = Bytes.length payload * 3 / 2 in
      let r = Store.gc ~current:[ ("patterns", version) ] ~max_bytes:cap s in
      Alcotest.(check int) "evicted one" 1 r.removed_evicted;
      Alcotest.(check bool) "oldest evicted" false
        (Store.mem s (String.make 32 'd'));
      Alcotest.(check bool) "newest kept" true (Store.mem s (String.make 32 'e')))

(* --- stage graph ---------------------------------------------------------- *)

let test_stage_hit_miss () =
  with_store_dir (fun dir ->
      let store = Store.open_ dir in
      let computes = ref 0 in
      let f () = incr computes; Benchmarks.c17 () in
      let g = Stage.create ~store () in
      let v1, k1 = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      let v2, k2 = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      Alcotest.(check int) "computed once" 1 !computes;
      Alcotest.(check bool) "same key" true (k1 = k2);
      Alcotest.(check bool) "same value" true (v1 = v2);
      (match Stage.reports g with
      | [ a; b ] ->
          Alcotest.(check bool) "miss then hit" true
            (a.Stage.outcome = Stage.Miss && b.Stage.outcome = Stage.Hit)
      | _ -> Alcotest.fail "expected two reports");
      (* Corrupt the stored artifact: next run recomputes and repairs. *)
      let path = Store.object_path store k1 in
      let oc = open_out_bin path in
      output_string oc "junk";
      close_out oc;
      let v3, _ = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      Alcotest.(check int) "recomputed" 2 !computes;
      Alcotest.(check bool) "same value after repair" true (v3 = v1);
      let v4, _ = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      Alcotest.(check int) "repaired artifact hits" 2 !computes;
      ignore v4)

let test_stage_version_bump_is_miss () =
  with_store_dir (fun dir ->
      let store = Store.open_ dir in
      let computes = ref 0 in
      let f () = incr computes; Benchmarks.c17 () in
      let g = Stage.create ~store () in
      let _ = Stage.run g ~stage:"s" ~codec:Artifact.circuit ~inputs:[] f in
      let bumped =
        { Artifact.circuit with Codec.version = Artifact.circuit.Codec.version + 1 }
      in
      (* The bumped codec derives a different stage key, so an old-format
         artifact can never even be looked up under the new key... *)
      let k_old = Stage.key ~stage:"s" ~codec:Artifact.circuit ~config:[] ~inputs:[] in
      let k_new = Stage.key ~stage:"s" ~codec:bumped ~config:[] ~inputs:[] in
      Alcotest.(check bool) "version changes the key" false (k_old = k_new);
      let _ = Stage.run g ~stage:"s" ~codec:bumped ~inputs:[] f in
      Alcotest.(check int) "bumped version recomputes" 2 !computes;
      (* ...and even a same-key stale envelope decodes to a miss. *)
      (match Store.load store k_old with
      | Some old_data -> Store.put store ~key:k_new ~kind:"circuit" ~version:1 old_data
      | None -> Alcotest.fail "old artifact missing");
      Store.clear store |> ignore;
      Store.put store ~key:k_new ~kind:"circuit"
        ~version:Artifact.circuit.Codec.version
        (Codec.to_bytes Artifact.circuit (Benchmarks.c17 ()));
      let g2 = Stage.create ~store () in
      let _ = Stage.run g2 ~stage:"s" ~codec:bumped ~inputs:[] f in
      Alcotest.(check int) "stale envelope recomputes" 3 !computes)

let test_stage_key_sensitivity () =
  let base ~stage ~config ~inputs =
    Stage.key ~stage ~codec:Artifact.circuit ~config ~inputs
  in
  let k = base ~stage:"s" ~config:[ ("a", "1") ] ~inputs:[ "i1" ] in
  Alcotest.(check bool) "stage name" false
    (k = base ~stage:"t" ~config:[ ("a", "1") ] ~inputs:[ "i1" ]);
  Alcotest.(check bool) "config value" false
    (k = base ~stage:"s" ~config:[ ("a", "2") ] ~inputs:[ "i1" ]);
  Alcotest.(check bool) "input key" false
    (k = base ~stage:"s" ~config:[ ("a", "1") ] ~inputs:[ "i2" ]);
  Alcotest.(check bool) "deterministic" true
    (k = base ~stage:"s" ~config:[ ("a", "1") ] ~inputs:[ "i1" ])

(* --- cached experiment pipeline ------------------------------------------- *)

module Experiment = Dl_core.Experiment

let outcome (e : Experiment.t) stage =
  (List.find (fun (r : Stage.report) -> r.stage = stage) e.stage_reports).outcome

let stage_key (e : Experiment.t) stage =
  (List.find (fun (r : Stage.report) -> r.stage = stage) e.stage_reports).key

let all_stages =
  [ "mapping"; "atpg"; "fault-universe"; "fault-sim"; "layout-ifa"; "swift";
    "projection" ]

let test_experiment_cold_warm_and_invalidation () =
  with_store_dir (fun dir ->
      let circuit = Benchmarks.c432s_small () in
      let run ?(seed = 7) ?(target_yield = 0.75) ?(collapse_faults = true)
          ?(domains = 1) () =
        Experiment.run
          (Experiment.config ~seed ~max_random_vectors:64 ~target_yield
             ~domains ~collapse_faults ~cache_dir:dir circuit)
      in
      let cold = run () in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " cold miss") true
            (outcome cold s = Stage.Miss))
        all_stages;
      let warm = run () in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " warm hit") true
            (outcome warm s = Stage.Hit))
        all_stages;
      Alcotest.(check string) "warm summary byte-identical" cold.summary
        warm.summary;
      Alcotest.(check bool) "warm fit identical" true (cold.fit = warm.fit);
      Alcotest.(check bool) "warm curves identical" true
        (cold.t_curve = warm.t_curve && cold.theta_curve = warm.theta_curve
        && cold.gamma_curve = warm.gamma_curve);
      (* domains is excluded from every key: still a full hit. *)
      let par = run ~domains:2 () in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " domain-count hit") true
            (outcome par s = Stage.Hit))
        all_stages;
      (* target_yield only re-runs the projection. *)
      let yld = run ~target_yield:0.9 () in
      List.iter
        (fun s ->
          let expected = if s = "projection" then Stage.Miss else Stage.Hit in
          Alcotest.(check bool) (s ^ " yield-change outcome") true
            (outcome yld s = expected))
        all_stages;
      Alcotest.(check bool) "projection key moved" false
        (stage_key yld "projection" = stage_key cold "projection");
      (* A new seed re-runs ATPG and everything fed by its vectors, but not
         the mapping or the layout extraction. *)
      let seeded = run ~seed:8 () in
      List.iter
        (fun (s, expected) ->
          Alcotest.(check bool) (s ^ " seed-change outcome") true
            (outcome seeded s = expected))
        [ ("mapping", Stage.Hit); ("atpg", Stage.Miss);
          ("fault-universe", Stage.Miss); ("fault-sim", Stage.Miss);
          ("layout-ifa", Stage.Hit); ("swift", Stage.Miss);
          ("projection", Stage.Miss) ];
      (* Collapsing is a property of the simulated universe only. *)
      let uncollapsed = run ~collapse_faults:false () in
      List.iter
        (fun (s, expected) ->
          Alcotest.(check bool) (s ^ " collapse-change outcome") true
            (outcome uncollapsed s = expected))
        [ ("mapping", Stage.Hit); ("atpg", Stage.Hit);
          ("fault-universe", Stage.Miss); ("fault-sim", Stage.Miss);
          ("layout-ifa", Stage.Hit); ("swift", Stage.Hit);
          ("projection", Stage.Miss) ])

let test_experiment_uncached_matches_cached () =
  with_store_dir (fun dir ->
      let circuit = Benchmarks.c432s_small () in
      let cached =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:64 ~domains:1
             ~cache_dir:dir circuit)
      in
      let warm =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:64 ~domains:1
             ~cache_dir:dir circuit)
      in
      let plain =
        Experiment.run
          (Experiment.config ~seed:7 ~max_random_vectors:64 ~domains:1 circuit)
      in
      List.iter
        (fun s ->
          Alcotest.(check bool) (s ^ " uncached outcome") true
            (outcome plain s = Stage.Uncached))
        all_stages;
      Alcotest.(check string) "uncached = cold summary" plain.summary
        cached.summary;
      Alcotest.(check string) "uncached = warm summary" plain.summary
        warm.summary;
      Alcotest.(check bool) "same stage keys with and without a store" true
        (List.for_all
           (fun s -> stage_key plain s = stage_key cached s)
           all_stages))

let test_statistical_stage_key_sensitivity () =
  (* The MC / bootstrap knobs must fingerprint ONLY their own stages: the
     simulation artifacts of a tuned re-run stay warm.  stage_keys derives
     every key without executing anything. *)
  let circuit = Benchmarks.c17 () in
  let keys ?mc ?bootstrap ?(target_yield = 0.75) ?(seed = 7) () =
    Experiment.stage_keys
      (Experiment.config ~seed ~max_random_vectors:64 ~target_yield ?mc
         ?bootstrap circuit)
  in
  let key stage l = List.assoc stage l in
  let base = keys () in
  Alcotest.(check int) "base pipeline has 7 stages" 7 (List.length base);
  let mc1 = keys ~mc:(Experiment.mc ~dies:1000 ()) () in
  let mc2 = keys ~mc:(Experiment.mc ~dies:2000 ()) () in
  let mc3 = keys ~mc:(Experiment.mc ~dies:1000 ~alpha_wafer:2.0 ()) () in
  let boot1 = keys ~bootstrap:100 () in
  let boot2 = keys ~bootstrap:200 () in
  let both = keys ~mc:(Experiment.mc ~dies:1000 ()) ~bootstrap:100 () in
  Alcotest.(check int) "mc adds one stage" 8 (List.length mc1);
  Alcotest.(check int) "mc + bootstrap adds two" 9 (List.length both);
  Alcotest.(check bool) "enabling mc moves no base key" true
    (List.for_all (fun (s, k) -> key s mc1 = k) base);
  Alcotest.(check bool) "enabling bootstrap moves no base key" true
    (List.for_all (fun (s, k) -> key s boot1 = k) base);
  Alcotest.(check bool) "mc-dies moves the wafer-mc key" false
    (key "wafer-mc" mc1 = key "wafer-mc" mc2);
  Alcotest.(check bool) "alpha moves the wafer-mc key" false
    (key "wafer-mc" mc1 = key "wafer-mc" mc3);
  Alcotest.(check bool) "mc-dies moves nothing else" true
    (List.for_all (fun (s, k) -> s = "wafer-mc" || key s mc2 = k) mc1);
  Alcotest.(check bool) "replicate count moves the bootstrap-fit key" false
    (key "bootstrap-fit" boot1 = key "bootstrap-fit" boot2);
  Alcotest.(check bool) "replicate count moves nothing else" true
    (List.for_all (fun (s, k) -> s = "bootstrap-fit" || key s boot2 = k) boot1);
  Alcotest.(check bool) "mc knobs never touch the bootstrap-fit key" true
    (key "bootstrap-fit" both = key "bootstrap-fit" boot1);
  (* Both statistical stages depend on the projection inputs: yield and
     seed changes reach them. *)
  let yld = keys ~mc:(Experiment.mc ~dies:1000 ()) ~bootstrap:100
      ~target_yield:0.9 () in
  Alcotest.(check bool) "target yield moves wafer-mc" false
    (key "wafer-mc" both = key "wafer-mc" yld);
  Alcotest.(check bool) "target yield moves bootstrap-fit" false
    (key "bootstrap-fit" both = key "bootstrap-fit" yld);
  let seeded = keys ~mc:(Experiment.mc ~dies:1000 ()) ~bootstrap:100 ~seed:8 () in
  Alcotest.(check bool) "seed moves wafer-mc (via its inputs)" false
    (key "wafer-mc" both = key "wafer-mc" seeded);
  Alcotest.(check bool) "seed moves bootstrap-fit (via its inputs)" false
    (key "bootstrap-fit" both = key "bootstrap-fit" seeded)

(* [run_stage] executes exactly the transitive closure of the requested
   stage, in execution order, the requested stage last.  The expected
   closures are written out by hand from the paper's flow, independently
   of the stage table.  One store is shared, so later requests see the
   artifacts of earlier ones as hits. *)
let test_run_stage_closures () =
  let base = [ "mapping"; "atpg"; "fault-universe"; "fault-sim";
               "layout-ifa"; "swift" ] in
  let expected =
    [
      ("mapping", [ "mapping" ]);
      ("atpg", [ "mapping"; "atpg" ]);
      ("fault-universe", [ "mapping"; "atpg"; "fault-universe" ]);
      ("fault-sim", [ "mapping"; "atpg"; "fault-universe"; "fault-sim" ]);
      ("layout-ifa", [ "mapping"; "layout-ifa" ]);
      ("swift", [ "mapping"; "atpg"; "layout-ifa"; "swift" ]);
      ("projection", base @ [ "projection" ]);
      ("wafer-mc", [ "mapping"; "atpg"; "layout-ifa"; "swift"; "wafer-mc" ]);
      ("bootstrap-fit", base @ [ "bootstrap-fit" ]);
      ("ndet-sim", [ "mapping"; "atpg"; "fault-universe"; "ndet-sim" ]);
      ("ndet-atpg", [ "mapping"; "atpg"; "fault-universe"; "ndet-atpg" ]);
    ]
  in
  with_store_dir (fun dir ->
      let cfg =
        Experiment.config ~seed:7 ~max_random_vectors:32 ~domains:1
          ~mc:(Experiment.mc ~dies:300 ())
          ~bootstrap:10 ~ndet:2 ~cache_dir:dir (Benchmarks.c17 ())
      in
      let keys = Experiment.stage_keys cfg in
      Alcotest.(check (list string)) "every stage has an expected closure"
        (List.map fst keys) (List.map fst expected);
      List.iter
        (fun (stage, closure) ->
          let reports = Experiment.run_stage cfg ~stage in
          Alcotest.(check (list (pair string string)))
            (stage ^ ": exactly its closure, in order, with planned keys")
            (List.map (fun s -> (s, List.assoc s keys)) closure)
            (List.map (fun (r : Stage.report) -> (r.stage, r.key)) reports))
        expected);
  let plain = Experiment.config (Benchmarks.c17 ()) in
  List.iter
    (fun (stage, msg) ->
      Alcotest.check_raises stage (Invalid_argument msg) (fun () ->
          ignore (Experiment.run_stage plain ~stage)))
    [
      ("wafer-mc", "Experiment.run_stage: the config disables stage \"wafer-mc\"");
      ("nonesuch", "Experiment.run_stage: unknown stage \"nonesuch\"");
    ]

(* [Experiment.config] rejects every bad outside value up front, before
   any stage is keyed or computed. *)
let test_config_rejects_bad_values () =
  let c = Benchmarks.c17 () in
  List.iter
    (fun (what, msg, make) ->
      Alcotest.check_raises what (Invalid_argument msg) (fun () ->
          ignore (make ())))
    [
      ( "negative vector budget",
        "Experiment.config: max_random_vectors must be >= 0",
        fun () -> Experiment.config ~max_random_vectors:(-1) c );
      ( "zero rows",
        "Experiment.config: rows must be >= 1",
        fun () -> Experiment.config ~rows:0 c );
      ( "pruning ratio above 1",
        "Experiment.config: min_weight_ratio must be in [0, 1]",
        fun () -> Experiment.config ~min_weight_ratio:2.0 c );
      ( "negative pruning ratio",
        "Experiment.config: min_weight_ratio must be in [0, 1]",
        fun () -> Experiment.config ~min_weight_ratio:(-0.1) c );
      ( "NaN pruning ratio",
        "Experiment.config: min_weight_ratio must be in [0, 1]",
        fun () -> Experiment.config ~min_weight_ratio:Float.nan c );
    ];
  (* the bounds themselves are valid *)
  ignore (Experiment.config ~max_random_vectors:0 ~rows:1 c);
  ignore (Experiment.config ~min_weight_ratio:0.0 c);
  ignore (Experiment.config ~min_weight_ratio:1.0 c)

(* Every stage key is pinned in [stage_keys.expected]: a key that moves
   orphans every cached artifact filed under it, so a refactor of the
   stage graph must reproduce the pinned keys byte for byte.  On a
   mismatch the keys this build derives are written to
   [stage_keys.actual] next to the test binary for diffing. *)
let pinned_key_configs () =
  let default =
    List.map
      (fun (name, make) -> (name, "default", Experiment.config (make ())))
      Benchmarks.all
  in
  let variants name make =
    [
      ( name,
        "optional",
        Experiment.config
          ~mc:(Experiment.mc ~dies:1000 ())
          ~bootstrap:50 ~ndet:4 (make ()) );
      (name, "uncollapsed", Experiment.config ~collapse_faults:false (make ()));
      ( name,
        "layout",
        Experiment.config ~rows:3 ~min_weight_ratio:0.01 (make ()) );
    ]
  in
  default
  @ variants "c17" Benchmarks.c17
  @ variants "c432s_small" Benchmarks.c432s_small

let test_pinned_stage_keys () =
  let actual =
    List.concat_map
      (fun (name, variant, cfg) ->
        List.map
          (fun (stage, key) -> String.concat " " [ name; variant; stage; key ])
          (Experiment.stage_keys cfg))
      (pinned_key_configs ())
  in
  let expected =
    In_channel.with_open_text "stage_keys.expected" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if actual <> expected then
    Out_channel.with_open_text "stage_keys.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
  Alcotest.(check (list string)) "stage keys equal the pinned keys" expected
    actual

let () =
  Random.self_init ();
  Alcotest.run "store"
    [
      ( "binary",
        List.map QCheck_alcotest.to_alcotest
          [ prop_varint_roundtrip; prop_int_roundtrip; prop_float_roundtrip;
            prop_string_roundtrip; prop_packed_bools_roundtrip ]
        @ [
            Alcotest.test_case "float special values" `Quick
              test_float_special_values;
            Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
            Alcotest.test_case "truncation raises Corrupt" `Quick
              test_truncation_is_corrupt;
          ] );
      ( "codec",
        [
          Alcotest.test_case "envelope round-trip + inspect" `Quick
            test_envelope_roundtrip;
          Alcotest.test_case "every single-byte flip detected" `Quick
            test_every_byte_flip_detected;
          Alcotest.test_case "version bump is stale" `Quick
            test_version_bump_is_stale;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "garbage is bad magic" `Quick
            test_garbage_is_bad_magic;
        ] );
      ( "artifacts",
        List.map QCheck_alcotest.to_alcotest
          [ prop_circuit_roundtrip; prop_stuck_faults_roundtrip;
            prop_patterns_roundtrip; prop_detections_roundtrip;
            prop_summary_roundtrip ]
        @ [
            Alcotest.test_case "built-in circuits round-trip" `Quick
              test_builtin_circuits_roundtrip;
            Alcotest.test_case "ifa + swift artifacts round-trip" `Quick
              test_ifa_swift_roundtrip;
            Alcotest.test_case "wafer-mc round-trip" `Quick
              test_wafer_mc_roundtrip;
            Alcotest.test_case "bootstrap-fit round-trip" `Quick
              test_bootstrap_fit_roundtrip;
            Alcotest.test_case "wafer-mc every byte flip detected" `Quick
              test_wafer_mc_every_byte_flip_detected;
            Alcotest.test_case "bootstrap-fit every byte flip detected" `Quick
              test_bootstrap_fit_every_byte_flip_detected;
            Alcotest.test_case "statistical version bumps are stale" `Quick
              test_statistical_version_bump_is_stale;
            Alcotest.test_case "bootstrap-fit sample mismatch rejected" `Quick
              test_bootstrap_fit_length_mismatch_is_malformed;
            Alcotest.test_case "current_versions covers new kinds" `Quick
              test_current_versions_cover_statistical_stages;
          ] );
      ( "store",
        [
          Alcotest.test_case "put/load/remove/clear" `Quick test_store_put_load;
          Alcotest.test_case "verify detects corruption" `Quick
            test_store_verify_detects_corruption;
          Alcotest.test_case "gc drops stale and corrupt" `Quick
            test_store_gc_drops_stale_and_corrupt;
        ] );
      ( "stage",
        [
          Alcotest.test_case "hit, miss, corruption repair" `Quick
            test_stage_hit_miss;
          Alcotest.test_case "version bump is a miss" `Quick
            test_stage_version_bump_is_miss;
          Alcotest.test_case "key sensitivity" `Quick test_stage_key_sensitivity;
          Alcotest.test_case "statistical stage-key sensitivity" `Quick
            test_statistical_stage_key_sensitivity;
          Alcotest.test_case "pinned stage keys" `Quick test_pinned_stage_keys;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "cold/warm + key invalidation" `Slow
            test_experiment_cold_warm_and_invalidation;
          Alcotest.test_case "uncached matches cached" `Slow
            test_experiment_uncached_matches_cached;
          Alcotest.test_case "run_stage runs exactly each closure" `Quick
            test_run_stage_closures;
          Alcotest.test_case "config rejects bad values" `Quick
            test_config_rejects_bad_values;
        ] );
    ]
