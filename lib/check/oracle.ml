(* The oracle registry: every engine pair (or higher-level invariant) the
   harness knows how to cross-check.  Case checks run once per generated
   {!Testcase}; sweep checks are self-contained (numeric sweeps, or the
   cached-pipeline differential) and run once per harness invocation. *)

open Dl_netlist
module Sim2 = Dl_logic.Sim2
module Sim3 = Dl_logic.Sim3
module Ternary = Dl_logic.Ternary
module Event_sim = Dl_logic.Event_sim
module Propagate = Dl_logic.Propagate
module Fault_sim = Dl_fault.Fault_sim
module Experiment = Dl_core.Experiment
module Stage = Dl_store.Stage

type kind =
  | Case of (Testcase.t -> string option)
  | Sweep of (seed:int -> string option)

type t = { name : string; doc : string; kind : kind }

let failf fmt = Printf.ksprintf (fun s -> Some s) fmt

(* --- sim2-flat: reference word simulator vs flat CSR kernel ------------- *)

let sim2_flat (case : Testcase.t) =
  let c = case.Testcase.circuit in
  let n = Array.length case.vectors in
  if n = 0 then None
  else begin
    let k = Kernel.of_circuit c in
    let buf = Kernel.create_words k in
    let n_blocks = (n + 63) / 64 in
    let rec block b =
      if b >= n_blocks then None
      else begin
        let base = b * 64 in
        let count = min 64 (n - base) in
        let words =
          Sim2.words_of_patterns c (Array.sub case.vectors base count)
        in
        let reference = Sim2.run c words in
        Sim2.load_patterns k buf case.vectors ~base ~count;
        Sim2.run_flat k buf;
        let mask =
          if count = 64 then -1L else Int64.sub (Int64.shift_left 1L count) 1L
        in
        let rec node id =
          if id >= Circuit.node_count c then block (b + 1)
          else
            let r = Int64.logand reference.(id) mask in
            let f = Int64.logand buf.{id} mask in
            if r <> f then
              failf
                "Sim2.run vs run_flat: node %s block %d (vectors %d..%d): \
                 %Lx vs %Lx"
                (Circuit.name c id) b base
                (base + count - 1)
                r f
            else node (id + 1)
        in
        node 0
      end
    in
    block 0
  end

(* --- fault-sim: kernel vs reference vs parallel, both drop modes -------- *)

let fault_sim_agreement (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; _ } = case in
  let run_engine f =
    let events = ref [] in
    let on_detect ~fault_index ~vector_index =
      events := (fault_index, vector_index) :: !events
    in
    let r = f ~on_detect in
    (r, List.rev !events)
  in
  let engines drop =
    [
      ( "kernel",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.run ~drop_detected:drop ~on_detect c ~faults ~vectors)
      );
      ( "reference",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.Reference.run ~drop_detected:drop ~on_detect c ~faults
                ~vectors) );
      ( "parallel-2",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.run_parallel ~domains:2 ~drop_detected:drop ~on_detect
                c ~faults ~vectors) );
      ( "reference-parallel-3",
        fun () ->
          run_engine (fun ~on_detect ->
              Fault_sim.Reference.run_parallel ~domains:3 ~drop_detected:drop
                ~on_detect c ~faults ~vectors) );
    ]
  in
  let check_mode drop =
    match engines drop with
    | [] -> None
    | (base_name, base_run) :: rest ->
        let base_r, base_ev = base_run () in
        let rec compare_engines = function
          | [] -> None
          | (name, run) :: rest -> (
              let r, ev = run () in
              let mismatch =
                Array.to_list
                  (Array.mapi
                     (fun i d ->
                       if d <> base_r.Fault_sim.first_detection.(i) then Some i
                       else None)
                     r.Fault_sim.first_detection)
                |> List.find_opt Option.is_some |> Option.join
              in
              match mismatch with
              | Some i ->
                  failf
                    "%s vs %s (drop=%b): fault %s first-detected at %s vs %s"
                    base_name name drop
                    (Dl_fault.Stuck_at.to_string c faults.(i))
                    (match base_r.Fault_sim.first_detection.(i) with
                    | Some d -> string_of_int d
                    | None -> "never")
                    (match r.Fault_sim.first_detection.(i) with
                    | Some d -> string_of_int d
                    | None -> "never")
              | None ->
                  if r.Fault_sim.gate_evaluations
                     <> base_r.Fault_sim.gate_evaluations
                  then
                    failf "%s vs %s (drop=%b): gate_evaluations %d vs %d"
                      base_name name drop base_r.Fault_sim.gate_evaluations
                      r.Fault_sim.gate_evaluations
                  else if ev <> base_ev then
                    failf
                      "%s vs %s (drop=%b): on_detect event streams differ \
                       (%d vs %d events)"
                      base_name name drop (List.length base_ev)
                      (List.length ev)
                  else compare_engines rest)
        in
        compare_engines rest
  in
  (* A pool wider than the fault universe (clamped at spawn time): run
     a small fault subset against a deliberately oversized request. *)
  let check_wide_pool () =
    if Array.length faults = 0 then None
    else begin
      let sub = Array.sub faults 0 (min 3 (Array.length faults)) in
      let serial = Fault_sim.run ~drop_detected:false c ~faults:sub ~vectors in
      let wide =
        Fault_sim.run_parallel
          ~domains:(Array.length sub + 5)
          ~drop_detected:false c ~faults:sub ~vectors
      in
      if wide.Fault_sim.first_detection <> serial.Fault_sim.first_detection
      then
        failf
          "run_parallel with pool wider than the %d-fault subset disagrees \
           with run"
          (Array.length sub)
      else None
    end
  in
  match check_mode true with
  | Some _ as f -> f
  | None -> (
      match check_mode false with
      | Some _ as f -> f
      | None -> check_wide_pool ())

(* --- ppsfp-{event,pruned,wide}: PR 7 engine variants vs Reference ------- *)

(* Pin one engine variant bit-identical to [Fault_sim.Reference]: first
   detections and [on_detect] event streams, both drop modes, serial and
   parallel (2 and 3 domains).  [Event] additionally pins
   [gate_evaluations]: its scheduling decisions must match the reference
   exactly, not just its results.  The inference engines ([Pruned],
   [Wide]) are exempt — not evaluating gates is their entire point. *)
let ppsfp_variant engine (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; _ } = case in
  let vname = Fault_sim.engine_to_string engine in
  let pin_evals = engine = Fault_sim.Event || engine = Fault_sim.Flat in
  let collect f =
    let events = ref [] in
    let on_detect ~fault_index ~vector_index =
      events := (fault_index, vector_index) :: !events
    in
    let r = f ~on_detect in
    (r, List.rev !events)
  in
  let check_mode drop =
    let ref_r, ref_ev =
      collect (fun ~on_detect ->
          Fault_sim.Reference.run ~drop_detected:drop ~on_detect c ~faults
            ~vectors)
    in
    let candidates =
      [
        ( vname,
          fun ~on_detect ->
            Fault_sim.run_with ~engine ~drop_detected:drop ~on_detect c
              ~faults ~vectors );
        ( vname ^ "-parallel-2",
          fun ~on_detect ->
            Fault_sim.run_parallel_with ~engine ~domains:2 ~drop_detected:drop
              ~on_detect c ~faults ~vectors );
        ( vname ^ "-parallel-3",
          fun ~on_detect ->
            Fault_sim.run_parallel_with ~engine ~domains:3 ~drop_detected:drop
              ~on_detect c ~faults ~vectors );
      ]
    in
    let rec compare_candidates = function
      | [] -> None
      | (name, run) :: rest -> (
          let r, ev = collect run in
          let mismatch = ref None in
          Array.iteri
            (fun i d ->
              if !mismatch = None && d <> ref_r.Fault_sim.first_detection.(i)
              then mismatch := Some i)
            r.Fault_sim.first_detection;
          match !mismatch with
          | Some i ->
              failf
                "reference vs %s (drop=%b): fault %s first-detected at %s vs \
                 %s"
                name drop
                (Dl_fault.Stuck_at.to_string c faults.(i))
                (match ref_r.Fault_sim.first_detection.(i) with
                | Some d -> string_of_int d
                | None -> "never")
                (match r.Fault_sim.first_detection.(i) with
                | Some d -> string_of_int d
                | None -> "never")
          | None ->
              if ev <> ref_ev then
                failf
                  "reference vs %s (drop=%b): on_detect event streams differ \
                   (%d vs %d events)"
                  name drop (List.length ref_ev) (List.length ev)
              else if
                pin_evals
                && r.Fault_sim.gate_evaluations
                   <> ref_r.Fault_sim.gate_evaluations
              then
                failf "reference vs %s (drop=%b): gate_evaluations %d vs %d"
                  name drop ref_r.Fault_sim.gate_evaluations
                  r.Fault_sim.gate_evaluations
              else compare_candidates rest)
    in
    compare_candidates candidates
  in
  match check_mode true with Some _ as f -> f | None -> check_mode false

(* --- event-propagate: selective trace vs cone propagation vs Sim2 ------- *)

let event_propagate (case : Testcase.t) =
  let c = case.Testcase.circuit in
  let n_nodes = Circuit.node_count c in
  if Array.length case.vectors = 0 then None
  else begin
    let es = Event_sim.create c in
    let prev = ref (Event_sim.node_values es) in
    let prev_inputs = ref (Array.make (Circuit.input_count c) false) in
    let rec step vi =
      if vi >= Array.length case.vectors then None
      else begin
        let v = case.vectors.(vi) in
        let seeds =
          Array.to_list
            (Array.mapi
               (fun i id ->
                 if v.(i) <> !prev_inputs.(i) then
                   Some (id, Ternary.of_bool v.(i))
                 else None)
               c.inputs)
          |> List.filter_map Fun.id
        in
        let diff = Propagate.run c !prev seeds in
        ignore (Event_sim.set_inputs es v);
        let full = Sim2.run_single c v in
        let rec node id =
          if id >= n_nodes then begin
            prev := Event_sim.node_values es;
            prev_inputs := Array.copy v;
            step (vi + 1)
          end
          else if Event_sim.value es id <> full.(id) then
            failf "Event_sim vs Sim2: vector %d node %s: %b vs %b" vi
              (Circuit.name c id) (Event_sim.value es id) full.(id)
          else
            let expected =
              match Hashtbl.find_opt diff id with
              | Some t -> Ternary.to_bool t
              | None -> Some !prev.(id)
            in
            match expected with
            | None ->
                failf "Propagate produced X at node %s on binary inputs \
                       (vector %d)"
                  (Circuit.name c id) vi
            | Some b ->
                if b <> full.(id) then
                  failf "Propagate vs Sim2: vector %d node %s: %b vs %b" vi
                    (Circuit.name c id) b full.(id)
                else node (id + 1)
        in
        node 0
      end
    in
    step 0
  end

(* --- sim3-binary: ternary simulator restricted to binary inputs --------- *)

let sim3_binary (case : Testcase.t) =
  let c = case.Testcase.circuit in
  let n_nodes = Circuit.node_count c in
  let rec step vi =
    if vi >= Array.length case.vectors then None
    else begin
      let v = case.vectors.(vi) in
      let tern = Sim3.run c (Array.map Ternary.of_bool v) in
      let bin = Sim2.run_single c v in
      let rec node id =
        if id >= n_nodes then step (vi + 1)
        else if not (Ternary.equal tern.(id) (Ternary.of_bool bin.(id))) then
          failf "Sim3 vs Sim2 on binary inputs: vector %d node %s: %c vs %b"
            vi (Circuit.name c id)
            (Ternary.to_char tern.(id))
            bin.(id)
        else node (id + 1)
      in
      node 0
    end
  in
  step 0

(* --- experiment-cache: cached vs uncached pipeline ---------------------- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let experiment_cache ~seed =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlcheck-cache-%d-%d" (Unix.getpid ()) (abs seed))
  in
  Fun.protect
    ~finally:(fun () -> try remove_tree dir with Sys_error _ -> ())
    (fun () ->
      let circuit = Benchmarks.c432s_small () in
      let cfg cache_dir =
        Experiment.config ~seed:(7 + (abs seed land 7)) ~max_random_vectors:64
          ~domains:1 ?cache_dir circuit
      in
      let plain = Experiment.run (cfg None) in
      let cold = Experiment.run (cfg (Some dir)) in
      let warm = Experiment.run (cfg (Some dir)) in
      let outcomes (e : Experiment.t) want =
        List.for_all
          (fun (r : Stage.report) -> r.outcome = want)
          e.stage_reports
      in
      if plain.summary <> cold.summary then
        failf "uncached vs cold cached Experiment.run: summaries differ"
      else if cold.summary <> warm.summary then
        failf "cold vs warm cached Experiment.run: summaries differ"
      else if plain.fit <> cold.fit || cold.fit <> warm.fit then
        failf "cached vs uncached Experiment.run: fitted (R, θmax) differ"
      else if
        plain.t_curve <> cold.t_curve
        || cold.t_curve <> warm.t_curve
        || cold.theta_curve <> warm.theta_curve
        || cold.gamma_curve <> warm.gamma_curve
      then failf "cached vs uncached Experiment.run: coverage curves differ"
      else if not (outcomes cold Stage.Miss) then
        failf "cold cached run: expected every stage to Miss"
      else if not (outcomes warm Stage.Hit) then
        failf "warm cached run: expected every stage to Hit"
      else None)

(* --- serve-loopback: served answer vs direct Experiment.run ------------- *)

(* Differential oracle for the serving layer: a job answered over the
   Unix-socket loopback must be bit-identical to a direct in-process
   [Experiment.run] of the same config, and the immediate resubmission of
   the same job must coalesce (no second execution). *)
let serve_loopback ~seed =
  let socket =
    Dl_serve.Transport.Unix_socket
      (Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "dlcheck-serve-%d-%d.sock" (Unix.getpid ()) (abs seed)))
  in
  let cfg =
    Dl_serve.Server.config ~workers:1 ~domains_per_worker:1 ~listen:socket ()
  in
  let server = Dl_serve.Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Dl_serve.Server.stop server)
    (fun () ->
      let job_seed = 7 + (abs seed land 7) in
      let spec =
        Dl_serve.Protocol.job_spec ~seed:job_seed ~max_random_vectors:64
          (Dl_serve.Protocol.Builtin "c432s_small")
      in
      Dl_serve.Client.with_client socket @@ fun client ->
      let first = Dl_serve.Client.submit client spec in
      let direct =
        Experiment.run
          (Experiment.config ~seed:job_seed ~max_random_vectors:64 ~domains:1
             (Benchmarks.c432s_small ()))
      in
      let expect =
        Dl_serve.Protocol.payload_of_experiment
          ~key:(Experiment.request_key direct.cfg) direct
      in
      match first with
      | Dl_serve.Protocol.Result served ->
          (* stage hit/miss bookkeeping may legitimately differ between a
             cacheless served run and the direct run; everything the paper
             derives from the experiment must not *)
          let strip (p : Dl_serve.Protocol.result_payload) =
            { p with stage_hits = 0; stage_misses = 0 }
          in
          if strip served.payload <> strip expect then
            failf "served c432s_small answer differs from direct Experiment.run"
          else (
            match Dl_serve.Client.submit client spec with
            | Dl_serve.Protocol.Result again ->
                if not again.coalesced then
                  failf "identical resubmission was executed, not coalesced"
                else if strip again.payload <> strip expect then
                  failf "coalesced answer differs from the first"
                else None
            | other ->
                failf "resubmission: unexpected reply %s"
                  (match other with
                  | Dl_serve.Protocol.Rejected _ -> "Rejected"
                  | Dl_serve.Protocol.Expired -> "Expired"
                  | Dl_serve.Protocol.Server_error m -> "Server_error: " ^ m
                  | _ -> "Pong/Stats"))
      | Dl_serve.Protocol.Server_error m -> failf "server error: %s" m
      | _ -> failf "submit: unexpected reply kind")

(* Differential oracle for the cluster: a job relayed by the coordinator
   through a TCP worker fleet must be bit-identical to a direct
   in-process Experiment.run, and resubmitting the same job directly to
   the worker that did NOT execute it must be served entirely from the
   distributed store (fetch-through; no stage recomputed). *)
let serve_cluster ~seed =
  let module P = Dl_serve.Protocol in
  let module T = Dl_serve.Transport in
  let module W = Dl_cluster.Worker in
  let tmp tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "dlcheck-cluster-%d-%d-%s" (Unix.getpid ()) (abs seed)
           tag)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let dir1 = tmp "w1" and dir2 = tmp "w2" in
  let loopback = T.Tcp ("127.0.0.1", 0) in
  let w1 =
    W.start ~workers:1 ~domains_per_worker:1 ~cache_dir:dir1 ~listen:loopback
      ()
  in
  let w2 =
    W.start ~workers:1 ~domains_per_worker:1 ~cache_dir:dir2 ~listen:loopback
      ()
  in
  let fleet = [ W.bound w1; W.bound w2 ] in
  List.iter (fun w -> W.set_peers w fleet) [ w1; w2 ];
  let coord =
    Dl_cluster.Coord.start
      (Dl_cluster.Coord.config ~probe_period_s:0.2 ~listen:loopback
         ~workers:fleet ())
  in
  Fun.protect
    ~finally:(fun () ->
      Dl_cluster.Coord.stop coord;
      List.iter W.stop [ w1; w2 ];
      List.iter (fun d -> try remove_tree d with Sys_error _ -> ())
        [ dir1; dir2 ])
    (fun () ->
      let job_seed = 7 + (abs seed land 7) in
      let spec =
        P.job_spec ~seed:job_seed ~max_random_vectors:64
          (P.Builtin "c432s_small")
      in
      let direct =
        Experiment.run
          (Experiment.config ~seed:job_seed ~max_random_vectors:64 ~domains:1
             (Benchmarks.c432s_small ()))
      in
      let expect =
        Dl_serve.Protocol.payload_of_experiment
          ~key:(Experiment.request_key direct.cfg) direct
      in
      let strip (p : P.result_payload) =
        { p with P.stage_hits = 0; stage_misses = 0 }
      in
      let submit_to endpoint =
        Dl_serve.Client.with_client endpoint (fun c ->
            Dl_serve.Client.submit c spec)
      in
      match submit_to (Dl_cluster.Coord.bound coord) with
      | P.Result served when strip served.P.payload <> strip expect ->
          failf "cluster answer differs from direct Experiment.run"
      | P.Result _ -> (
          (* The coordinator hashed the job to one worker; the other one
             has none of its artifacts locally and must assemble the same
             answer purely from peer fetches. *)
          let resubmits =
            List.map
              (fun w ->
                match submit_to (W.bound w) with
                | P.Result served -> Ok served
                | P.Server_error m -> Error ("server error: " ^ m)
                | P.Rejected _ -> Error "rejected"
                | _ -> Error "unexpected reply kind")
              [ w1; w2 ]
          in
          match
            List.find_map (function Error e -> Some e | Ok _ -> None)
              resubmits
          with
          | Some e -> failf "direct resubmission: %s" e
          | None -> (
              let served =
                List.filter_map
                  (function Ok (s : P.served) -> Some s | Error _ -> None)
                  resubmits
              in
              match
                List.filter (fun (s : P.served) -> not s.P.coalesced) served
              with
              | [] ->
                  failf
                    "no worker executed the resubmission (both claim to \
                     have run the original)"
              | fresh ->
                  List.fold_left
                    (fun acc (s : P.served) ->
                      if acc <> None then acc
                      else if strip s.P.payload <> strip expect then
                        failf "cross-worker answer differs from direct run"
                      else if s.P.payload.P.stage_misses <> 0 then
                        failf
                          "cross-worker resubmission recomputed %d stage(s) \
                           instead of hitting the distributed store"
                          s.P.payload.P.stage_misses
                      else acc)
                    None fresh))
      | P.Server_error m -> failf "cluster submit: server error: %s" m
      | _ -> failf "cluster submit: unexpected reply kind")

(* --- mc-poisson-limit: Wafer_mc at infinite alphas vs closed form ------- *)

module Seeds = Dl_util.Seeds
module Rng = Dl_util.Rng
module Weighted = Dl_core.Weighted
module Clustered = Dl_core.Clustered
module Wafer_mc = Dl_core.Wafer_mc
module Bootstrap = Dl_core.Bootstrap

(* A synthetic weighted fault universe with known coverage labels: [n]
   faults, weights scaled so the Poisson yield is exactly [target_yield],
   first detections uniform over the vector budget with a fixed
   never-detected fraction.  Returns the scaled weights, the firsts and
   the [(k, theta(k))] grid the MC bands are evaluated on. *)
let synthetic_universe rng ~n ~n_vectors ~target_yield ~points =
  let raw = Array.init n (fun _ -> Rng.float_in rng 0.2 1.0) in
  let weights, _scale = Weighted.scale_to_yield ~weights:raw ~target_yield in
  let firsts =
    Array.init n (fun _ ->
        if Rng.bernoulli rng 0.15 then None else Some (Rng.int rng n_vectors))
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let theta_at k =
    let detected = ref 0.0 in
    Array.iteri
      (fun j first ->
        match first with
        | Some v when v < k -> detected := !detected +. weights.(j)
        | _ -> ())
      firsts;
    !detected /. total
  in
  let grid =
    Array.init points (fun i ->
        let k = (i + 1) * n_vectors / points in
        (k, theta_at k))
  in
  (weights, firsts, grid)

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let stddev a =
  let m = mean a in
  let s = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
  sqrt (s /. float_of_int (max 1 (Array.length a - 1)))

(* Standard error of the pooled DL estimate from the per-wafer spread —
   valid for clustered runs too, where dies within a wafer are correlated
   and the plain binomial error underestimates. *)
let band_tolerance (b : Wafer_mc.band) =
  let wafers = Array.length b.wafer_dls in
  if wafers < 2 then 0.05
  else (5.0 *. stddev b.wafer_dls /. sqrt (float_of_int wafers)) +. 1e-4

let mc_poisson_limit ~seed =
  let target_yield = 0.75 in
  let n_vectors = 512 in
  let seeds = Seeds.scope (Seeds.create (9000 + abs seed)) "mc-poisson" in
  let rng = Seeds.stream seeds "universe" in
  let weights, firsts, grid =
    synthetic_universe rng ~n:300 ~n_vectors ~target_yield ~points:6
  in
  let m =
    Wafer_mc.simulate
      ~seeds:(Seeds.scope seeds "sim")
      ~dies:40_000 ~weights ~firsts ~points:grid ()
  in
  let y = Wafer_mc.observed_yield m in
  if abs_float (y -. target_yield) > 0.011 then
    failf "mc-poisson-limit: observed yield %.4f vs Poisson %.4f" y
      target_yield
  else
    Array.fold_left
      (fun acc (b : Wafer_mc.band) ->
        if acc <> None then acc
        else
          let closed =
            Weighted.defect_level ~yield:target_yield ~theta:b.coverage
          in
          let tol = band_tolerance b in
          if abs_float (b.dl_point -. closed) > tol then
            failf
              "mc-poisson-limit: k=%d theta=%.4f: MC DL %.5f vs closed form \
               %.5f (tol %.5f)"
              b.k b.coverage b.dl_point closed tol
          else if not (b.dl_q05 <= b.dl_q50 && b.dl_q50 <= b.dl_q95) then
            failf "mc-poisson-limit: k=%d: quantiles not ordered" b.k
          else acc)
      None m.bands

(* --- mc-clustered-consistency: single-level MC vs negative binomial ----- *)

let mc_clustered_consistency ~seed =
  let target_yield = 0.75 in
  let n_vectors = 512 in
  let seeds = Seeds.scope (Seeds.create (9100 + abs seed)) "mc-clustered" in
  let rng = Seeds.stream seeds "universe" in
  let weights, firsts, grid =
    synthetic_universe rng ~n:300 ~n_vectors ~target_yield ~points:4
  in
  let lambda = Array.fold_left ( +. ) 0.0 weights in
  let rec alphas = function
    | [] -> None
    | alpha :: rest -> (
        (* Single clustering level: wafer severities gamma(alpha)/alpha,
           lots Poisson — the per-die marginal is the negative binomial
           with mean [lambda] and clustering [alpha]. *)
        let m =
          Wafer_mc.simulate ~alpha_wafer:alpha
            ~seeds:(Seeds.scope seeds (Printf.sprintf "sim-a%g" alpha))
            ~dies:40_000 ~weights ~firsts ~points:grid ()
        in
        let yield_nb = (1.0 +. (lambda /. alpha)) ** -.alpha in
        let y = Wafer_mc.observed_yield m in
        let y_tol =
          (* wafer-correlated pass/fail: use the per-wafer spread of the
             defective fraction via the widest band's sample count *)
          5.0 *. sqrt (yield_nb *. (1.0 -. yield_nb) /. float_of_int m.wafers)
        in
        if abs_float (y -. yield_nb) > y_tol then
          failf
            "mc-clustered-consistency: alpha=%g observed yield %.4f vs NB \
             %.4f (tol %.4f)"
            alpha y yield_nb y_tol
        else
          let err =
            Array.fold_left
              (fun acc (b : Wafer_mc.band) ->
                if acc <> None then acc
                else
                  let closed =
                    Clustered.defect_level ~yield:yield_nb ~alpha
                      ~coverage:b.coverage
                  in
                  let tol = band_tolerance b in
                  if abs_float (b.dl_point -. closed) > tol then
                    failf
                      "mc-clustered-consistency: alpha=%g k=%d theta=%.4f: \
                       MC DL %.5f vs clustered closed form %.5f (tol %.5f)"
                      alpha b.k b.coverage b.dl_point closed tol
                  else acc)
              None m.bands
          in
          if err <> None then err else alphas rest)
  in
  alphas [ 0.5; 2.0; 10.0 ]

(* --- bootstrap-coverage: CI coverage on synthetic eq. 9 truth ----------- *)

(* Draw fault populations whose expected coverage curves follow eq. 9
   exactly — T(k) = k/n uniform stuck firsts, realistic firsts by inverting
   theta(T) = theta_max (1 - (1-T)^R) — then check that the 90% bootstrap
   intervals cover the truth in most trials.  With 12 trials at nominal
   0.9 coverage, P[fewer than 7 hits] < 1e-4 even allowing for small-sample
   undercoverage, so the bound is robust yet discriminating. *)
let bootstrap_coverage ~seed =
  let r_true = 1.5 and tmax_true = 0.9 in
  let n_vectors = 1024 and n_faults = 300 in
  let trials = 12 and replicates = 60 in
  let seeds = Seeds.scope (Seeds.create (9200 + abs seed)) "bootstrap-cov" in
  let run_trial i =
    let rng = Seeds.stream seeds (Printf.sprintf "trial-%d" i) in
    let t_firsts =
      Array.init n_faults (fun _ -> Some (Rng.int rng n_vectors))
    in
    let theta_firsts =
      Array.init n_faults (fun _ ->
          let u = Rng.float rng 1.0 in
          if u >= tmax_true then None
          else
            let t = 1.0 -. ((1.0 -. (u /. tmax_true)) ** (1.0 /. r_true)) in
            Some
              (min (n_vectors - 1)
                 (int_of_float (t *. float_of_int n_vectors))))
    in
    let theta_weights = Array.make n_faults 1.0 in
    let b =
      Bootstrap.run ~fit_points:40
        ~seeds:(Seeds.scope seeds (Printf.sprintf "boot-%d" i))
        ~replicates ~yield:0.75 ~t_firsts ~theta_firsts ~theta_weights
        ~n_vectors ()
    in
    (Bootstrap.contains b.r r_true, Bootstrap.contains b.theta_max tmax_true)
  in
  let r_hits = ref 0 and tmax_hits = ref 0 in
  for i = 0 to trials - 1 do
    let r_in, tmax_in = run_trial i in
    if r_in then incr r_hits;
    if tmax_in then incr tmax_hits
  done;
  if !r_hits < 7 then
    failf "bootstrap-coverage: R=%.2f covered in only %d/%d trials" r_true
      !r_hits trials
  else if !tmax_hits < 7 then
    failf "bootstrap-coverage: thetamax=%.2f covered in only %d/%d trials"
      tmax_true !tmax_hits trials
  else None

(* --- ndet-1detect: multi-detect at quota 1 vs the dropping engines ------ *)

module Dl_n = Dl_core.Dl_n
module Ndet_profile = Dl_ndet.Profile

(* The drop-invariance lemma made checkable: at [drop_after:1] the chunked
   multi-detect driver must be bit-identical to [drop_detected:true] on
   every engine — same firsts, and the n = 1 coverage curve equal (as a
   value) to the one the single-detection flow builds. *)
let ndet_one_detect (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; _ } = case in
  if Array.length vectors = 0 || Array.length faults = 0 then None
  else
    let rec engines = function
      | [] -> None
      | engine :: rest ->
          let single =
            Fault_sim.run_with ~engine ~drop_detected:true c ~faults ~vectors
          in
          let nd = Fault_sim.run_ndet ~engine ~drop_after:1 c ~faults ~vectors in
          let firsts = Fault_sim.ndet_first_detection nd in
          let rec fault i =
            if i >= Array.length faults then
              if
                Ndet_profile.coverage nd ~n:1
                <> Dl_fault.Coverage.make single.first_detection
              then
                failf "ndet-1detect [%s]: n=1 coverage curve differs"
                  (Fault_sim.engine_to_string engine)
              else engines rest
            else if firsts.(i) <> single.first_detection.(i) then
              failf
                "ndet-1detect [%s]: fault %d first detection %s vs %s"
                (Fault_sim.engine_to_string engine)
                i
                (match firsts.(i) with
                 | None -> "never" | Some v -> string_of_int v)
                (match single.first_detection.(i) with
                 | None -> "never" | Some v -> string_of_int v)
            else if nd.counts.(i) <> (if firsts.(i) = None then 0 else 1) then
              failf "ndet-1detect [%s]: fault %d count %d inconsistent"
                (Fault_sim.engine_to_string engine)
                i nd.counts.(i)
            else fault (i + 1)
          in
          fault 0
    in
    engines Fault_sim.engines

(* --- ndet-monotone: count and coverage monotonicity across quotas ------- *)

(* Detection of one fault is independent of which other faults are still
   live, so a lower quota is a pure truncation of a higher one: counts at
   quota 2 must equal [min counts4 2], the first two detection indices must
   agree, indices must be strictly increasing in k, and the T_n curves
   pointwise non-increasing in n. *)
let ndet_monotone (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; _ } = case in
  let n_vectors = Array.length vectors in
  if n_vectors = 0 || Array.length faults = 0 then None
  else
    let nd2 = Fault_sim.run_ndet ~drop_after:2 c ~faults ~vectors in
    let nd4 = Fault_sim.run_ndet ~drop_after:4 c ~faults ~vectors in
    let rec fault i =
      if i >= Array.length faults then None
      else if nd2.counts.(i) <> min nd4.counts.(i) 2 then
        failf "ndet-monotone: fault %d counts %d@2 vs %d@4" i nd2.counts.(i)
          nd4.counts.(i)
      else
        let rec kth k prev =
          if k > 4 then fault (i + 1)
          else
            let at4 = (Fault_sim.ndet_kth_detection nd4 ~k).(i) in
            (if k <= 2 then
               let at2 = (Fault_sim.ndet_kth_detection nd2 ~k).(i) in
               if at2 <> at4 then
                 failf "ndet-monotone: fault %d k=%d index differs across \
                        quotas" i k
               else None
             else None)
            |> function
            | Some _ as err -> err
            | None -> (
                match (prev, at4) with
                | Some p, Some v when v <= p ->
                    failf
                      "ndet-monotone: fault %d detection indices not \
                       increasing (k=%d: %d after %d)"
                      i k v p
                | Some _, None | None, None -> kth (k + 1) prev
                | _, _ -> kth (k + 1) at4)
        in
        kth 1 None
    in
    match fault 0 with
    | Some _ as err -> err
    | None ->
        let curves =
          Array.map (fun n -> Ndet_profile.coverage nd4 ~n) [| 1; 2; 3; 4 |]
        in
        let ks = Dl_fault.Coverage.log_spaced ~max:n_vectors ~points:12 in
        Array.fold_left
          (fun acc k ->
            if acc <> None then acc
            else
              let rec level j =
                if j >= Array.length curves - 1 then None
                else
                  let hi = Dl_fault.Coverage.at curves.(j) k
                  and lo = Dl_fault.Coverage.at curves.(j + 1) k in
                  if lo > hi +. 1e-12 then
                    failf
                      "ndet-monotone: T_%d(%d) = %.6f exceeds T_%d(%d) = %.6f"
                      (j + 2) k lo (j + 1) k hi
                  else level (j + 1)
              in
              level 0)
          None ks

(* --- ndet-dl-monotone: DL(n) table non-increasing at the shared target -- *)

(* [Dl_n.analyze] is curve-agnostic in its theta argument, so a synthetic
   weighted stand-in built from the profile's own firsts exercises the
   whole table construction cheaply: dl_at_target must be non-increasing
   and k_at_target non-decreasing in n, every row reaching t_star. *)
let ndet_dl_monotone (case : Testcase.t) =
  let { Testcase.circuit = c; vectors; faults; seed } = case in
  let n_vectors = Array.length vectors in
  if n_vectors = 0 || Array.length faults = 0 then None
  else
    let nd = Fault_sim.run_ndet ~drop_after:4 c ~faults ~vectors in
    let rng = Rng.create (0x9DE7 + abs seed) in
    let weights =
      Array.init (Array.length faults) (fun _ -> Rng.float_in rng 0.1 1.0)
    in
    let theta_curve =
      Dl_fault.Coverage.make ~weights (Fault_sim.ndet_first_detection nd)
    in
    let table =
      Dl_n.analyze ~ns:[| 1; 2; 4 |] ~fit_points:24 ~profile:nd ~theta_curve
        ~yield:0.75 ~n_vectors ()
    in
    let rows = table.Dl_n.rows in
    let rec row j =
      if j >= Array.length rows then None
      else
        let r = rows.(j) in
        if r.Dl_n.final_t < table.Dl_n.t_star -. 1e-12 then
          failf "ndet-dl-monotone: row n=%d final T %.6f below t* %.6f"
            r.Dl_n.n r.Dl_n.final_t table.Dl_n.t_star
        else if
          j > 0 && r.Dl_n.dl_at_target > rows.(j - 1).Dl_n.dl_at_target +. 1e-12
        then
          failf
            "ndet-dl-monotone: DL@T* increased from %.6f (n=%d) to %.6f \
             (n=%d)"
            rows.(j - 1).Dl_n.dl_at_target
            rows.(j - 1).Dl_n.n r.Dl_n.dl_at_target r.Dl_n.n
        else if j > 0 && r.Dl_n.k_at_target < rows.(j - 1).Dl_n.k_at_target
        then
          failf
            "ndet-dl-monotone: k@T* decreased from %d (n=%d) to %d (n=%d)"
            rows.(j - 1).Dl_n.k_at_target
            rows.(j - 1).Dl_n.n r.Dl_n.k_at_target r.Dl_n.n
        else row (j + 1)
    in
    row 0

(* --- swift-reference / swift-open-stuck: switch-level simulation ------- *)

module Realistic = Dl_switch.Realistic
module Swift = Dl_switch.Swift
module Solver = Dl_switch.Solver
module Mapping = Dl_cell.Mapping
module Stuck_at = Dl_fault.Stuck_at

(* The case's circuit mapped to cells, with the vectors reordered to the
   mapped circuit's primary inputs (matched by name). *)
let switch_setup (case : Testcase.t) =
  let c0 = case.Testcase.circuit in
  let c = Transform.decompose_for_cells c0 in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace pos (Circuit.name c0 id) i) c0.inputs;
  let order =
    Array.map (fun id -> Hashtbl.find pos (Circuit.name c id)) c.Circuit.inputs
  in
  let vectors =
    Array.map (fun v -> Array.map (fun i -> v.(i)) order) case.vectors
  in
  let m = Mapping.flatten c in
  (c, m, Dl_switch.Network.build m, vectors)

(* Charge retention needs held and alternating inputs: append, for the
   first vector pairs (a, b), the sequence a b b a. *)
let with_retention vectors =
  let n = Array.length vectors in
  let extra =
    List.concat
      (List.init (max 0 (min 6 (n - 1))) (fun i ->
           let a = vectors.(i) and b = vectors.(i + 1) in
           [ a; b; b; a ]))
  in
  Array.append vectors (Array.of_list extra)

(* A seeded sample of every realistic fault kind on the mapped circuit:
   stuck-open and stuck-on transistors, bridges between arbitrary network
   nodes (cell outputs, internal nodes, primary inputs, rails), and input
   and stem opens under every float policy. *)
let realistic_sample ~seed (c : Circuit.t) (m : Mapping.network) =
  let rng = Dl_util.Rng.create seed in
  let fault kind = { Realistic.kind; weight = 1.0; label = "" } in
  let sample n k f =
    if n = 0 then [] else List.init k (fun _ -> f (Dl_util.Rng.int rng n))
  in
  let n_tr = Array.length m.Mapping.transistors in
  let gates =
    Array.of_list
      (List.filter (fun id -> c.Circuit.nodes.(id).kind <> Gate.Input)
         (List.init (Circuit.node_count c) Fun.id))
  in
  let policies = Realistic.[ Floats_low; Floats_high; Floats_unknown ] in
  let bridge () =
    let rec pick () =
      let a = Dl_util.Rng.int rng m.Mapping.node_count in
      let b = Dl_util.Rng.int rng m.Mapping.node_count in
      let rail g = g = m.Mapping.gnd || g = m.Mapping.vdd in
      if a = b || (rail a && rail b) then pick () else (a, b)
    in
    let node_a, node_b = pick () in
    Realistic.Bridge { node_a; node_b }
  in
  let opens =
    sample (Array.length gates) 3 (fun i ->
        let gate = gates.(i) in
        let pin =
          Dl_util.Rng.int rng (Array.length c.Circuit.nodes.(gate).fanin)
        in
        List.map
          (fun policy -> Realistic.Input_open { gate; pin; policy })
          policies)
    @ sample (Circuit.node_count c) 2 (fun node ->
          List.map (fun policy -> Realistic.Stem_open { node; policy }) policies)
  in
  Array.of_list
    (List.map fault
       (sample n_tr 8 (fun ti -> Realistic.Transistor_stuck_open ti)
       @ sample n_tr 8 (fun ti -> Realistic.Transistor_stuck_on ti)
       @ List.init 12 (fun _ -> bridge ())
       @ List.concat opens))

let voltage_events run =
  let events = ref [] in
  let on_voltage_detect ~fault_index ~vector_index =
    events := (fault_index, vector_index) :: !events
  in
  let (r : Swift.result) = run ~on_voltage_detect in
  (r, List.rev !events)

(* One region over the first cells of the circuit, as many as it takes
   for the memo key to outgrow an int (31 slots), with a stuck-open device
   in the first cell.  Each vector is solved twice through a memo table (a
   miss, then a hit) and once by the reference solver, with settled
   charges carried from vector to vector. *)
let wide_region ~seed (m : Mapping.network) net vectors =
  let n_inst = Array.length m.Mapping.instances in
  if n_inst = 0 then None
  else begin
    let first = m.Mapping.instances.(0) in
    let ti =
      first.Mapping.first_transistor
      + Dl_util.Rng.int (Dl_util.Rng.create seed)
          (Dl_cell.Cell.transistor_count first.Mapping.cell)
    in
    let modifications = [ Solver.Remove_transistor ti ] in
    let rec grow k =
      let instances = List.init k Fun.id in
      let region = Solver.make net ~instances ~modifications in
      let slots =
        Array.length (Solver.input_nodes region) + Solver.charge_count region
      in
      if k >= n_inst || slots > 31 then (instances, region)
      else grow (k + 1)
    in
    let instances, region = grow 1 in
    let reference = Solver.Reference.make net ~instances ~modifications in
    let memo = Dl_switch.Memo.create () in
    let input_nodes = Solver.input_nodes region in
    let charged = Array.of_list (Solver.nodes region) in
    let charge = Hashtbl.create 64 in
    let values = Array.make (Solver.report_count region) Ternary.VX in
    let pi_value v =
      let by_node = Hashtbl.create 16 in
      Array.iteri
        (fun i id -> Hashtbl.replace by_node m.Mapping.signal_node.(id) v.(i))
        m.Mapping.circuit.Circuit.inputs;
      fun g ->
        match Hashtbl.find_opt by_node g with
        | Some b -> Ternary.of_bool b
        | None -> Ternary.VX
    in
    let charge_of g =
      Option.value (Hashtbl.find_opt charge g) ~default:Ternary.VX
    in
    let rec step k =
      if k >= min 8 (Array.length vectors) then None
      else begin
        let ext = pi_value vectors.(k) in
        let inputs = Array.map ext input_nodes in
        let charges = Array.map charge_of charged in
        let expected =
          Solver.Reference.solve reference ~external_value:ext ~charge:charge_of
        in
        let agree () =
          let fight =
            Dl_switch.Memo.solve memo region ~inputs ~charges ~values
          in
          fight = expected.Solver.fight
          && List.for_all2 (fun (_, v) w -> v = w) expected.Solver.values
               (Array.to_list values)
        in
        if not (agree () && agree ()) then
          failf
            "swift-reference: %d-cell region (%d input + %d charge slots, \
             transistor %d open): memoized solve differs from \
             Solver.Reference on vector %d"
            (List.length instances) (Array.length inputs)
            (Array.length charges) ti k
        else begin
          List.iter
            (fun (g, v) -> Hashtbl.replace charge g v)
            expected.Solver.values;
          step (k + 1)
        end
      end
    in
    step 0
  end

let swift_reference (case : Testcase.t) =
  let c, m, net, vectors = switch_setup case in
  let vectors = with_retention vectors in
  let faults = realistic_sample ~seed:case.Testcase.seed c m in
  let describe fi = Realistic.describe faults.(fi) in
  let rec modes = function
    | [] -> None
    | (name, drop_when) :: rest -> (
        let fresh, fresh_events =
          voltage_events (fun ~on_voltage_detect ->
              Swift.run ~drop_when ~on_voltage_detect net ~faults ~vectors)
        in
        let reference, reference_events =
          voltage_events (fun ~on_voltage_detect ->
              Swift.Reference.run ~drop_when ~on_voltage_detect net ~faults
                ~vectors)
        in
        let first_diff =
          let rec scan i =
            if i >= Array.length faults then None
            else if fresh.detection.(i) <> reference.detection.(i) then Some i
            else scan (i + 1)
          in
          scan 0
        in
        match first_diff with
        | Some fi ->
            failf "swift-reference (%s): fault %d (%s): detection differs" name
              fi (describe fi)
        | None when fresh.region_solves <> reference.region_solves ->
            failf "swift-reference (%s): region_solves %d vs reference %d" name
              fresh.region_solves reference.region_solves
        | None when fresh_events <> reference_events ->
            failf "swift-reference (%s): voltage-detection event streams differ"
              name
        | None when drop_when = `Never -> (
            (* Every fault's signature against the reference's events. *)
            let rec signatures fi =
              if fi >= Array.length faults then None
              else begin
                let expected = Array.make (Array.length vectors) false in
                List.iter
                  (fun (f, k) -> if f = fi then expected.(k) <- true)
                  reference_events;
                let fails = Swift.signature net ~fault:faults.(fi) ~vectors in
                if fails <> expected then
                  failf "swift-reference: fault %d (%s): signature differs" fi
                    (describe fi)
                else signatures (fi + 1)
              end
            in
            match signatures 0 with None -> modes rest | failure -> failure)
        | None -> modes rest)
  in
  match modes [ ("voltage", `Voltage); ("both", `Both); ("never", `Never) ] with
  | Some _ as failure -> failure
  | None -> wide_region ~seed:case.Testcase.seed m net vectors

(* An input or stem open with a definite float policy is a stuck-at on that
   branch or stem: its per-vector voltage detections must be PPSFP's. *)
let swift_open_stuck (case : Testcase.t) =
  let c, _, net, vectors = switch_setup case in
  let pairs =
    List.concat_map
      (fun (policy, polarity) ->
        List.concat_map
          (fun (nd : Circuit.node) ->
            let stem =
              ( Realistic.Stem_open { node = nd.id; policy },
                Stuck_at.{ site = Stem nd.id; polarity } )
            in
            stem
            :: List.init (Array.length nd.fanin) (fun pin ->
                   ( Realistic.Input_open { gate = nd.id; pin; policy },
                     Stuck_at.{ site = Branch { gate = nd.id; pin }; polarity }
                   )))
          (Array.to_list c.Circuit.nodes))
      [ (Realistic.Floats_low, Stuck_at.Sa0);
        (Realistic.Floats_high, Stuck_at.Sa1) ]
  in
  let stuck = Array.of_list (List.map snd pairs) in
  let detected =
    Array.map (fun _ -> Array.make (Array.length vectors) false) stuck
  in
  let on_detect ~fault_index ~vector_index =
    detected.(fault_index).(vector_index) <- true
  in
  ignore
    (Fault_sim.run ~drop_detected:false ~on_detect c ~faults:stuck ~vectors);
  let rec check i = function
    | [] -> None
    | (kind, sa) :: rest ->
        let fault = { Realistic.kind; weight = 1.0; label = "" } in
        if Swift.signature net ~fault ~vectors <> detected.(i) then
          failf "swift-open-stuck: %s vs PPSFP %s: per-vector detections differ"
            (Realistic.describe fault) (Stuck_at.to_string c sa)
        else check (i + 1) rest
  in
  check 0 pairs

(* --- registry ----------------------------------------------------------- *)

let all =
  [
    { name = "sim2-flat";
      doc = "Sim2.run vs flat-kernel run_flat, every node word, tail blocks";
      kind = Case sim2_flat };
    { name = "fault-sim";
      doc =
        "PPSFP kernel vs reference vs parallel (incl. pool wider than the \
         universe), both drop modes, detection event streams";
      kind = Case fault_sim_agreement };
    { name = "ppsfp-event";
      doc =
        "event-driven incremental PPSFP vs reference: detections, event \
         streams and gate_evaluations, both drop modes, serial + parallel";
      kind = Case (ppsfp_variant Fault_sim.Event) };
    { name = "ppsfp-pruned";
      doc =
        "FFR-inference PPSFP vs reference: detections and event streams, \
         both drop modes, serial + parallel";
      kind = Case (ppsfp_variant Fault_sim.Pruned) };
    { name = "ppsfp-wide";
      doc =
        "256-bit-block PPSFP vs reference: detections and event streams, \
         both drop modes, serial + parallel";
      kind = Case (ppsfp_variant Fault_sim.Wide) };
    { name = "event-propagate";
      doc = "Event_sim selective trace vs Propagate cone vs Sim2, per vector";
      kind = Case event_propagate };
    { name = "sim3-binary";
      doc = "Sim3 equals Sim2 on fully-binary inputs, every node";
      kind = Case sim3_binary };
    { name = "swift-reference";
      doc =
        "memoized compiled swift vs Swift.Reference: detections, \
         region_solves, event streams and signatures under every drop \
         rule; a multi-cell region (key wider than an int) vs \
         Solver.Reference";
      kind = Case swift_reference };
    { name = "swift-open-stuck";
      doc =
        "input/stem opens floating low/high detect per vector exactly \
         as the matching stuck-at under PPSFP";
      kind = Case swift_open_stuck };
    { name = "coverage-monotone";
      doc = "T(k) monotone in k; prefix simulation reproduces the record";
      kind = Case Metamorphic.coverage_monotone };
    { name = "collapse-classes";
      doc = "members of a collapsing class share their first detection";
      kind = Case Metamorphic.collapse_agreement };
    { name = "eq11-wb";
      doc = "eq.11 reduces to Williams-Brown at R=1, thetamax=1";
      kind = Sweep (fun ~seed -> Metamorphic.wb_reduction ~seed ()) };
    { name = "eq9-theta";
      doc = "eq.9 envelope: bounds, monotonicity, endpoints";
      kind = Sweep (fun ~seed -> Metamorphic.theta_envelope ~seed ()) };
    { name = "eq11-dl";
      doc = "eq.11 DL(T) nonincreasing; endpoints 1-Y and residual";
      kind = Sweep (fun ~seed -> Metamorphic.dl_monotone ~seed ()) };
    { name = "yield-weights";
      doc = "weighted yield vs Poisson model; scale_to_yield; w/p roundtrip";
      kind = Sweep (fun ~seed -> Metamorphic.yield_consistency ~seed ()) };
    { name = "required-coverage";
      doc = "required-coverage inversions round-trip (eq.1 and eq.11)";
      kind =
        Sweep (fun ~seed -> Metamorphic.required_coverage_roundtrip ~seed ())
    };
    { name = "experiment-cache";
      doc = "cached vs uncached Experiment.run identical; warm run all-hit";
      kind = Sweep experiment_cache };
    { name = "serve-loopback";
      doc =
        "served answer bit-identical to direct Experiment.run; identical \
         resubmission coalesces";
      kind = Sweep serve_loopback };
    { name = "serve-cluster";
      doc =
        "coordinator + TCP worker fleet bit-identical to direct \
         Experiment.run; cross-worker resubmission served from the \
         distributed store";
      kind = Sweep serve_cluster };
    { name = "mc-poisson-limit";
      doc =
        "Wafer_mc at infinite alphas recovers the Poisson closed form \
         (eq. 3) within sampling error; quantiles ordered";
      kind = Sweep mc_poisson_limit };
    { name = "mc-clustered-consistency";
      doc =
        "single-level clustered Wafer_mc matches the negative-binomial \
         closed form for alpha in {0.5, 2, 10}";
      kind = Sweep mc_clustered_consistency };
    { name = "bootstrap-coverage";
      doc =
        "90% bootstrap CIs on (R, thetamax) cover synthetic eq. 9 truth \
         in >= 7/12 trials";
      kind = Sweep bootstrap_coverage };
    { name = "ndet-1detect";
      doc =
        "run_ndet at quota 1 bit-identical to drop_detected on every \
         engine; n=1 coverage curve equal to the single-detection one";
      kind = Case ndet_one_detect };
    { name = "ndet-monotone";
      doc =
        "quota-2 counts/indices a truncation of quota-4; per-fault \
         detection indices increasing; T_n pointwise non-increasing in n";
      kind = Case ndet_monotone };
    { name = "ndet-dl-monotone";
      doc =
        "Dl_n table on a synthetic weighted theta: DL@T* non-increasing \
         and k@T* non-decreasing in n, every row reaching t*";
      kind = Case ndet_dl_monotone };
  ]

let find name = List.find_opt (fun o -> o.name = name) all
let names () = List.map (fun o -> o.name) all
