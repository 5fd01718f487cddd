(* dlproj — command-line front end for the defect-level projection flow.

   Subcommands:
     info       circuit statistics (netlist, mapping, testability)
     atpg       generate a test set and report coverage
     extract    synthesize layout + inductive fault analysis
     project    closed-form DL projections from (Y, T, R, θmax)
     pipeline   the full paper experiment on a benchmark
     ndet       n-detection test generation and per-n coverage profile
     benchmarks list built-in benchmark circuits
     cache      artifact-store maintenance (stats, verify, gc)
     check      differential/metamorphic self-checks + mutation self-test
     bench-io   read/write ISCAS-85 .bench files
     serve      projection daemon on a Unix-domain socket or TCP endpoint
     submit     send one projection job to a running daemon
     ping       liveness / stats / shutdown RPCs against a daemon
     bench-serve  open-loop load generation against a running daemon
     coord      consistent-hash coordinator in front of a worker fleet
*)

open Cmdliner
module Circuit = Dl_netlist.Circuit
module Table = Dl_util.Table

let version = "1.1.0"

let die fmt = Printf.ksprintf (fun s ->
    Printf.eprintf "dlproj: error: %s\n" s;
    exit 1)
    fmt

let load_circuit spec =
  match Dl_netlist.Benchmarks.by_name spec with
  | Some c -> c
  | None ->
      if Sys.file_exists spec then begin
        if Filename.check_suffix spec ".v" then Dl_netlist.Verilog.parse_file spec
        else Dl_netlist.Bench_format.parse_file spec
      end
      else
        die "%S is neither a built-in benchmark nor a netlist file; built-ins:\n%s"
          spec
          (String.concat "\n"
             (List.map (fun (name, _) -> "  " ^ name) Dl_netlist.Benchmarks.all))

(* An output path must be diagnosable before the (possibly expensive) run
   that produces it, not as a backtrace from open_out afterwards. *)
let check_writable_parent = function
  | None -> ()
  | Some path ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        die "cannot write %s: directory %s does not exist" path dir

let circuit_arg =
  let doc =
    "Circuit: a built-in benchmark name (c17, c432s, c432s_small, add8, ...) or \
     a path to an ISCAS-85 .bench file."
  in
  Arg.(value & pos 0 string "c432s" & info [] ~docv:"CIRCUIT" ~doc)

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for fault simulation (0 = one per \
                 recommended core). Results are identical at any setting.")

let resolve_jobs jobs =
  if jobs <= 0 then Dl_util.Parallel.default_domains () else jobs

(* ------------------------------------------------------------------ info *)

let info_cmd =
  let run spec =
    let c = load_circuit spec in
    Format.printf "%a@." Circuit.pp_summary c;
    let mapped = Dl_netlist.Transform.decompose_for_cells c in
    if Circuit.node_count mapped <> Circuit.node_count c then
      Format.printf "after cell decomposition: %a@." Circuit.pp_summary mapped;
    let m = Dl_cell.Mapping.flatten mapped in
    Format.printf "%a@." Dl_cell.Mapping.pp_summary m;
    let scoap = Dl_atpg.Scoap.compute mapped in
    print_endline "hardest fault sites (SCOAP detect cost):";
    List.iter
      (fun (id, stuck, cost) ->
        Printf.printf "  %s SA%d cost %d\n" (Circuit.name mapped id)
          (if stuck then 1 else 0)
          cost)
      (Dl_atpg.Scoap.hardest_faults scoap 5);
    let timing = Dl_logic.Timing.analyze mapped in
    Printf.printf "critical path: %.2f delay units over %d stages\n"
      (Dl_logic.Timing.critical_path_delay timing)
      (List.length (Dl_logic.Timing.critical_path timing));
    let cop = Dl_atpg.Cop.compute mapped in
    let resistant = Dl_atpg.Cop.random_pattern_resistant cop mapped ~threshold:0.005 in
    Printf.printf "random-pattern-resistant stem faults (COP p < 0.5%%): %d\n"
      (List.length resistant)
  in
  Cmd.v (Cmd.info "info" ~version ~doc:"Circuit statistics and testability profile.")
    Term.(const run $ circuit_arg)

(* ------------------------------------------------------------------ atpg *)

let atpg_cmd =
  let run spec seed max_random =
    let c = Dl_netlist.Transform.decompose_for_cells (load_circuit spec) in
    let r, faults = Dl_atpg.Atpg.full_flow ~seed ~max_random c in
    Printf.printf
      "%d collapsed faults, coverage %.2f%%\n\
       vectors: %d random + %d deterministic\n\
       random-detected %d, untestable %d, aborted %d\n"
      (Array.length faults) (100.0 *. r.coverage) r.stats.random_vectors
      r.stats.deterministic_vectors r.stats.random_detected r.stats.untestable
      r.stats.aborted;
    Array.iter
      (fun f -> Printf.printf "  redundant: %s\n" (Dl_fault.Stuck_at.to_string c f))
      r.untestable_faults
  in
  let max_random =
    Arg.(value & opt int 4096 & info [ "max-random" ] ~docv:"N"
           ~doc:"Random-phase vector budget.")
  in
  Cmd.v (Cmd.info "atpg" ~version ~doc:"Generate a stuck-at test set (random + PODEM).")
    Term.(const run $ circuit_arg $ seed_arg $ max_random)

(* --------------------------------------------------------------- extract *)

let extract_cmd =
  let run spec histogram =
    let c = Dl_netlist.Transform.decompose_for_cells (load_circuit spec) in
    let m = Dl_cell.Mapping.flatten c in
    let l = Dl_layout.Layout.synthesize m in
    Format.printf "%a@." Dl_layout.Layout.pp_stats l;
    let e = Dl_extract.Ifa.extract l in
    Format.printf "%a" Dl_extract.Ifa.pp_summary e;
    if histogram then begin
      print_endline "fault-weight histogram:";
      print_string (Dl_util.Histogram.render (Dl_extract.Ifa.weight_histogram e))
    end
  in
  let histogram =
    Arg.(value & flag & info [ "histogram" ] ~doc:"Print the fault-weight histogram.")
  in
  Cmd.v
    (Cmd.info "extract" ~version
       ~doc:"Synthesize a standard-cell layout and run inductive fault analysis.")
    Term.(const run $ circuit_arg $ histogram)

(* --------------------------------------------------------------- project *)

let project_cmd =
  let run yield coverage r theta_max target_ppm =
    let params = { Dl_core.Projection.r; theta_max } in
    let t = Table.create [ ("model", Table.Left); ("DL", Table.Right) ] in
    Table.add_row t
      [ "Williams-Brown";
        Table.fmt_ppm (Dl_core.Williams_brown.defect_level ~yield ~coverage) ];
    Table.add_row t
      [ Printf.sprintf "eq.11 (R=%.2f, θmax=%.2f)" r theta_max;
        Table.fmt_ppm (Dl_core.Projection.defect_level ~yield ~params ~coverage) ];
    Table.add_row t
      [ "residual (T=1)";
        Table.fmt_ppm (Dl_core.Projection.residual_defect_level ~yield ~theta_max) ];
    Table.print t;
    match target_ppm with
    | None -> ()
    | Some ppm -> (
        let target_dl = ppm /. 1e6 in
        match Dl_core.Projection.required_coverage ~yield ~params ~target_dl with
        | Some t ->
            Printf.printf "coverage required for %.1f ppm: %s (WB: %s)\n" ppm
              (Table.fmt_pct t)
              (Table.fmt_pct
                 (Dl_core.Williams_brown.required_coverage ~yield ~target_dl))
        | None ->
            Printf.printf
              "%.1f ppm is below the residual defect level: unreachable with this \
               detection technique\n"
              ppm)
  in
  let yield_arg =
    Arg.(value & opt float 0.75 & info [ "yield"; "y" ] ~docv:"Y" ~doc:"Process yield.")
  in
  let coverage_arg =
    Arg.(value & opt float 0.95 & info [ "coverage"; "t" ] ~docv:"T"
           ~doc:"Stuck-at fault coverage.")
  in
  let r_arg =
    Arg.(value & opt float 1.9 & info [ "ratio"; "R" ] ~docv:"R" ~doc:"Susceptibility ratio (eq. 10).")
  in
  let theta_arg =
    Arg.(value & opt float 0.96 & info [ "theta-max" ] ~docv:"θ"
           ~doc:"Maximum realistic coverage of the detection technique.")
  in
  let target_arg =
    Arg.(value & opt (some float) None & info [ "target-ppm" ] ~docv:"PPM"
           ~doc:"Also solve for the coverage that reaches this DL target.")
  in
  Cmd.v (Cmd.info "project" ~version ~doc:"Closed-form defect-level projections (eq. 11).")
    Term.(const run $ yield_arg $ coverage_arg $ r_arg $ theta_arg $ target_arg)

(* -------------------------------------------------------------- pipeline *)

(* JSON fragments for the optional statistical stages, spliced into the
   served-response object (where null means "stage not run" and an
   infinite alpha renders as null = unclustered). *)
let json_float_or_null v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let wafer_mc_json (m : Dl_core.Wafer_mc.t) =
  let bands =
    m.bands
    |> Array.map (fun (b : Dl_core.Wafer_mc.band) ->
           Printf.sprintf
             "{\"k\": %d, \"theta\": %s, \"dl\": %s, \"q05\": %s, \"q50\": \
              %s, \"q95\": %s}"
             b.k
             (json_float_or_null b.coverage)
             (json_float_or_null b.dl_point)
             (json_float_or_null b.dl_q05)
             (json_float_or_null b.dl_q50)
             (json_float_or_null b.dl_q95))
    |> Array.to_list |> String.concat ", "
  in
  Printf.sprintf
    "{\"dies\": %d, \"wafers\": %d, \"lots\": %d, \"alpha_wafer\": %s, \
     \"alpha_lot\": %s, \"observed_yield\": %s, \"bands\": [%s]}"
    m.dies m.wafers m.lots
    (json_float_or_null m.alpha_wafer)
    (json_float_or_null m.alpha_lot)
    (json_float_or_null (Dl_core.Wafer_mc.observed_yield m))
    bands

let bootstrap_json (b : Dl_core.Bootstrap.t) =
  let ci (c : Dl_core.Bootstrap.ci) =
    Printf.sprintf "{\"lo\": %s, \"median\": %s, \"hi\": %s}"
      (json_float_or_null c.lo)
      (json_float_or_null c.median)
      (json_float_or_null c.hi)
  in
  Printf.sprintf
    "{\"replicates\": %d, \"r\": {\"point\": %s, \"ci\": %s}, \"theta_max\": \
     {\"point\": %s, \"ci\": %s}, \"alpha\": {\"point\": %s, \"ci\": %s}}"
    b.replicates
    (json_float_or_null b.point.Dl_core.Projection.params.r)
    (ci b.r)
    (json_float_or_null b.point.Dl_core.Projection.params.theta_max)
    (ci b.theta_max)
    (json_float_or_null b.alpha_point)
    (ci b.alpha)

let ndet_json (nd : Dl_core.Experiment.ndet_result) =
  let rows =
    nd.dl_n.rows
    |> Array.map (fun (r : Dl_core.Dl_n.row) ->
           Printf.sprintf
             "{\"n\": %d, \"final_t\": %s, \"r\": %s, \"theta_max\": %s, \
              \"residual_dl\": %s, \"k_at_target\": %d, \"dl_at_target\": %s}"
             r.n
             (json_float_or_null r.final_t)
             (json_float_or_null r.fit.Dl_core.Projection.params.r)
             (json_float_or_null r.fit.Dl_core.Projection.params.theta_max)
             (json_float_or_null r.residual_dl)
             r.k_at_target
             (json_float_or_null r.dl_at_target))
    |> Array.to_list |> String.concat ", "
  in
  Printf.sprintf
    "{\"n\": %d, \"t_star\": %s, \"rows\": [%s], \"gen_vectors\": %d, \
     \"gen_random\": %d, \"gen_topup\": %d, \"gen_under_quota\": %d}"
    nd.ndet_n
    (json_float_or_null nd.dl_n.t_star)
    rows nd.gen_stats.final_vectors nd.gen_stats.random_vectors
    nd.gen_stats.topup_vectors nd.gen_stats.under_quota

(* The served-response JSON is a single flat object; extend it in place
   rather than wrapping, so consumers of the core schema keep working. *)
let splice_json base extras =
  if extras = [] then base
  else
    String.sub base 0 (String.length base - 1)
    ^ ", " ^ String.concat ", " extras ^ "}"

let pipeline_cmd =
  let run spec seed jobs max_random target_yield points no_collapse engine
      sim_stats mc_dies mc_alpha_wafer mc_alpha_lot bootstrap ndet report
      cache json =
    let c = load_circuit spec in
    check_writable_parent report;
    let sim_engine =
      match Dl_fault.Fault_sim.engine_of_string engine with
      | Some e -> e
      | None ->
          die "unknown engine %S (known: %s)" engine
            (String.concat ", "
               (List.map Dl_fault.Fault_sim.engine_to_string
                  Dl_fault.Fault_sim.engines))
    in
    let mc =
      if mc_dies = 0 then None
      else if mc_dies < 0 then die "--mc-dies must be positive"
      else
        match
          Dl_core.Experiment.mc ~alpha_wafer:mc_alpha_wafer
            ~alpha_lot:mc_alpha_lot ~dies:mc_dies ()
        with
        | m -> Some m
        | exception Invalid_argument msg -> die "%s" msg
    in
    let bootstrap =
      match bootstrap with
      | 0 -> None
      | k when k < 0 -> die "--bootstrap must be positive"
      | k -> Some k
    in
    let ndet =
      match ndet with
      | 0 -> None
      | k when k < 0 -> die "--ndet must be positive"
      | k -> Some k
    in
    let cfg =
      match
        Dl_core.Experiment.config ~seed ~max_random_vectors:max_random
          ~target_yield ~domains:(resolve_jobs jobs)
          ~collapse_faults:(not no_collapse) ~sim_engine ?cache_dir:cache ?mc
          ?bootstrap ?ndet c
      with
      | cfg -> cfg
      | exception Invalid_argument msg -> die "%s" msg
    in
    let t0 = Unix.gettimeofday () in
    let e = Dl_core.Experiment.run cfg in
    if sim_stats then
      (* stderr so --json stdout stays a single machine-readable object *)
      Format.eprintf "fault-sim [%s]: %a@."
        (Dl_fault.Fault_sim.engine_to_string sim_engine)
        Dl_fault.Fault_sim.Stats.pp e.sim_stats;
    if json then begin
      (* Same schema and encoding path as a served answer, so scripts can
         consume local and remote runs identically. *)
      let served =
        {
          Dl_serve.Protocol.payload =
            Dl_serve.Protocol.payload_of_experiment
              ~key:(Dl_core.Experiment.request_key cfg) e;
          coalesced = false;
          service_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
        }
      in
      let extras =
        List.filter_map Fun.id
          [
            Option.map
              (fun m -> "\"wafer_mc\": " ^ wafer_mc_json m)
              e.wafer_mc;
            Option.map
              (fun b -> "\"bootstrap\": " ^ bootstrap_json b)
              e.bootstrap_fit;
            Option.map (fun nd -> "\"ndet\": " ^ ndet_json nd) e.ndet;
          ]
      in
      print_endline (splice_json (Dl_serve.Protocol.served_to_json served) extras);
      Option.iter
        (fun path ->
          Dl_core.Report.write_file path e;
          Printf.eprintf "report written to %s\n" path)
        report
    end
    else begin
    if cache <> None then begin
      print_endline "stage graph (artifact cache):";
      Format.printf "%a@." Dl_store.Stage.pp_reports e.stage_reports
    end;
    Format.printf "%a@.@." Dl_core.Experiment.pp_summary e;
    let ks = Dl_core.Experiment.sample_ks e ~points in
    let t = Table.create
        [ ("k", Table.Right); ("T(k)", Table.Right); ("Θ(k)", Table.Right);
          ("Γ(k)", Table.Right); ("DL(Θ(k))", Table.Right) ]
    in
    Array.iter
      (fun (k, tk, th, g) ->
        Table.add_row t
          [ string_of_int k; Table.fmt_pct tk; Table.fmt_pct th; Table.fmt_pct g;
            Table.fmt_ppm (Dl_core.Experiment.defect_level_at e k) ])
      (Dl_core.Experiment.coverage_rows e ~ks);
    Table.print t;
    let fit = e.fit in
    Printf.printf "\nfitted eq. 11: R = %.2f, θmax = %.3f (rmse %.4f, %s)\n"
      fit.params.r fit.params.theta_max fit.rmse
      (Dl_core.Projection.rmse_unit fit.rmse_scale);
    Option.iter
      (fun (m : Dl_core.Wafer_mc.t) ->
        let alpha_str a =
          if Float.is_finite a then Printf.sprintf "%g" a else "∞"
        in
        Printf.printf
          "\nMonte-Carlo wafer simulation: %d dies (%d wafers × %d, %d \
           lots), α_wafer %s, α_lot %s, observed yield %.4f\n"
          m.dies m.wafers m.dies_per_wafer m.lots (alpha_str m.alpha_wafer)
          (alpha_str m.alpha_lot)
          (Dl_core.Wafer_mc.observed_yield m);
        let t = Table.create
            [ ("k", Table.Right); ("Θ(k)", Table.Right);
              ("DL point", Table.Right); ("DL 5%", Table.Right);
              ("DL 50%", Table.Right); ("DL 95%", Table.Right) ]
        in
        Array.iter
          (fun (b : Dl_core.Wafer_mc.band) ->
            Table.add_row t
              [ string_of_int b.k; Table.fmt_pct b.coverage;
                Table.fmt_ppm b.dl_point; Table.fmt_ppm b.dl_q05;
                Table.fmt_ppm b.dl_q50; Table.fmt_ppm b.dl_q95 ])
          m.bands;
        Table.print t)
      e.wafer_mc;
    Option.iter
      (fun (b : Dl_core.Bootstrap.t) ->
        Printf.printf
          "\nbootstrap (%d replicates, 5–95%% percentile CIs):\n"
          b.replicates;
        Printf.printf "  R    = %.3f  CI [%.3f, %.3f]\n"
          b.point.Dl_core.Projection.params.r b.r.Dl_core.Bootstrap.lo
          b.r.hi;
        Printf.printf "  θmax = %.4f  CI [%.4f, %.4f]\n"
          b.point.Dl_core.Projection.params.theta_max
          b.theta_max.Dl_core.Bootstrap.lo b.theta_max.hi;
        Printf.printf "  α    = %.3g  CI [%.3g, %.3g]\n" b.alpha_point
          b.alpha.Dl_core.Bootstrap.lo b.alpha.hi)
      e.bootstrap_fit;
    Option.iter
      (fun (nd : Dl_core.Experiment.ndet_result) ->
        Printf.printf
          "\nDL(n) table (quota %d, shared coverage target T* = %s):\n"
          nd.ndet_n
          (Table.fmt_pct nd.dl_n.t_star);
        let t = Table.create
            [ ("n", Table.Right); ("final T(n)", Table.Right);
              ("R", Table.Right); ("θmax", Table.Right);
              ("residual DL", Table.Right); ("k@T*", Table.Right);
              ("DL@T*", Table.Right) ]
        in
        Array.iter
          (fun (r : Dl_core.Dl_n.row) ->
            Table.add_row t
              [ string_of_int r.n; Table.fmt_pct r.final_t;
                Printf.sprintf "%.2f" r.fit.Dl_core.Projection.params.r;
                Printf.sprintf "%.4f" r.fit.Dl_core.Projection.params.theta_max;
                Table.fmt_ppm r.residual_dl; string_of_int r.k_at_target;
                Table.fmt_ppm r.dl_at_target ])
          nd.dl_n.rows;
        Table.print t;
        Printf.printf
          "n-detection test set (n = %d): %d vectors (%d random + %d top-up \
           before compaction), %d faults under quota\n"
          nd.ndet_n nd.gen_stats.final_vectors nd.gen_stats.random_vectors
          nd.gen_stats.topup_vectors nd.gen_stats.under_quota)
      e.ndet;
    match report with
    | None -> ()
    | Some path ->
        Dl_core.Report.write_file path e;
        Printf.printf "report written to %s\n" path
    end
  in
  let max_random =
    Arg.(value & opt int 2048 & info [ "max-random" ] ~docv:"N"
           ~doc:"Random-phase vector budget.")
  in
  let target_yield =
    Arg.(value & opt float 0.75 & info [ "yield" ] ~docv:"Y"
           ~doc:"Yield the extracted weights are scaled to.")
  in
  let points =
    Arg.(value & opt int 12 & info [ "points" ] ~docv:"N" ~doc:"Table rows.")
  in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write a markdown report of the run.")
  in
  let no_collapse =
    Arg.(value & flag & info [ "no-collapse" ]
           ~doc:"Simulate the full uncollapsed stuck-at universe \
                 (paper-faithful coverage definition: every line fault \
                 counts individually) instead of one representative per \
                 equivalence class.")
  in
  let cache =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
           ~doc:"Persist per-stage artifacts in a content-addressed store \
                 under $(docv) and reuse any whose inputs and config are \
                 unchanged (a warm re-run recomputes nothing; a yield change \
                 recomputes only the projection stage).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print one machine-readable JSON object (the server's \
                 response schema) instead of the tables.")
  in
  let engine =
    Arg.(value & opt string "wide"
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"PPSFP engine variant for the gate-level fault simulation \
                   (reference, flat, event, pruned, wide).  Detection \
                   results are engine-independent; speed and the \
                   $(b,--sim-stats) counters are not.")
  in
  let sim_stats =
    Arg.(value & flag & info [ "sim-stats" ]
           ~doc:"Print the fault-sim engine counters (gate evaluations, \
                 events, inferred/simulated/dropped faults, stem \
                 simulations) on stderr.")
  in
  let mc_dies =
    Arg.(value & opt int 0 & info [ "mc-dies" ] ~docv:"N"
           ~doc:"Run the Monte-Carlo wafer/lot simulation over $(docv) dies \
                 and print 5/50/95 % DL(T) bands (0 = off).  Draws are \
                 replayable functions of $(b,--seed); results cache as the \
                 wafer-mc stage.")
  in
  let mc_alpha_wafer =
    Arg.(value & opt float infinity & info [ "mc-alpha-wafer" ] ~docv:"A"
           ~doc:"Wafer-level clustering parameter (gamma shape) for \
                 $(b,--mc-dies); $(docv) = inf (default) disables \
                 wafer-level clustering.")
  in
  let mc_alpha_lot =
    Arg.(value & opt float infinity & info [ "mc-alpha-lot" ] ~docv:"A"
           ~doc:"Lot-level clustering parameter for $(b,--mc-dies); \
                 $(docv) = inf (default) disables lot-level clustering.")
  in
  let bootstrap =
    Arg.(value & opt int 0 & info [ "bootstrap" ] ~docv:"K"
           ~doc:"Bootstrap the (R, θmax) and clustering-α fits over $(docv) \
                 case-resampled replicates and print percentile confidence \
                 intervals (0 = off).  Caches as the bootstrap-fit stage.")
  in
  let ndet =
    Arg.(value & opt int 0 & info [ "ndet" ] ~docv:"N"
           ~doc:"Profile n-detection up to quota $(docv) and print the DL(n) \
                 table (each fault required to be detected n times before \
                 it counts), plus generate a registered n-detection test set \
                 (0 = off).  Caches as the ndet-sim / ndet-atpg stages.")
  in
  Cmd.v
    (Cmd.info "pipeline" ~version
       ~doc:"Full experiment: layout, IFA, ATPG, gate+switch fault simulation, \
             DL projection and (R, θmax) fit, with optional Monte-Carlo DL \
             bands, bootstrap confidence intervals and DL(n) n-detection \
             curves.")
    Term.(const run $ circuit_arg $ seed_arg $ jobs_arg $ max_random $ target_yield
          $ points $ no_collapse $ engine $ sim_stats $ mc_dies
          $ mc_alpha_wafer $ mc_alpha_lot $ bootstrap $ ndet $ report $ cache
          $ json)

(* ------------------------------------------------------------------ ndet *)

let ndet_cmd =
  let run spec seed jobs n max_random engine =
    if n < 1 then die "-n must be >= 1";
    let sim_engine =
      match Dl_fault.Fault_sim.engine_of_string engine with
      | Some e -> e
      | None ->
          die "unknown engine %S (known: %s)" engine
            (String.concat ", "
               (List.map Dl_fault.Fault_sim.engine_to_string
                  Dl_fault.Fault_sim.engines))
    in
    let c = Dl_netlist.Transform.decompose_for_cells (load_circuit spec) in
    let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
    let r =
      Dl_ndet.Atpg_n.run ~seed ~max_random ~engine:sim_engine ~n c ~faults
    in
    let s = r.stats in
    Printf.printf
      "%d collapsed faults, quota n = %d\n\
       vectors: %d kept after compaction (%d random + %d top-up generated)\n\
       untestable %d, aborted %d, under quota %d\n"
      s.total_faults s.n s.final_vectors s.random_vectors s.topup_vectors
      s.untestable s.aborted s.under_quota;
    (* Per-n coverage of the kept set, over the testable universe (the
       PODEM-proved-redundant classes can never meet any quota). *)
    let testable =
      Array.of_list
        (Array.to_list faults
         |> List.filter (fun f ->
                not (Array.exists (fun u -> u = f) r.untestable_faults)))
    in
    if Array.length r.vectors = 0 then
      print_endline "empty test set: nothing to profile"
    else begin
      let profile =
        Dl_fault.Fault_sim.run_ndet ~engine:sim_engine
          ~domains:(resolve_jobs jobs) ~drop_after:n c ~faults:testable
          ~vectors:r.vectors
      in
      let t = Table.create
          [ ("n", Table.Right); ("faults detected n+ times", Table.Right);
            ("Tn(final)", Table.Right) ]
      in
      Array.iter
        (fun n' ->
          Table.add_row t
            [ string_of_int n';
              Printf.sprintf "%d / %d"
                (Dl_ndet.Profile.detected_at_least profile ~k:n')
                (Array.length testable);
              Table.fmt_pct (Dl_ndet.Profile.final_coverage profile ~n:n') ])
        (Dl_core.Dl_n.default_ns ~max_n:n);
      Table.print t
    end
  in
  let n_arg =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N"
           ~doc:"Detection quota: every testable fault is targeted until \
                 detected $(docv) times.")
  in
  let max_random =
    Arg.(value & opt int 4096 & info [ "max-random" ] ~docv:"N"
           ~doc:"Random-phase vector budget.")
  in
  let engine =
    Arg.(value & opt string "flat"
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:"PPSFP engine variant (reference, flat, event, pruned, \
                   wide).  Results are engine-independent.")
  in
  Cmd.v
    (Cmd.info "ndet" ~version
       ~doc:"Generate an n-detection test set (random quotas + PODEM \
             re-targeting + reverse compaction) and profile its per-n \
             coverage.")
    Term.(const run $ circuit_arg $ seed_arg $ jobs_arg $ n_arg $ max_random
          $ engine)

(* ------------------------------------------------------------ benchmarks *)

let benchmarks_cmd =
  let run () =
    let t = Table.create
        [ ("name", Table.Left); ("PIs", Table.Right); ("POs", Table.Right);
          ("gates", Table.Right); ("nodes", Table.Right) ]
    in
    List.iter
      (fun (name, build) ->
        let c = build () in
        Table.add_row t
          [ name;
            string_of_int (Circuit.input_count c);
            string_of_int (Circuit.output_count c);
            string_of_int (Circuit.gate_count c);
            string_of_int (Circuit.node_count c) ])
      Dl_netlist.Benchmarks.all;
    Table.print t
  in
  Cmd.v
    (Cmd.info "benchmarks" ~version
       ~doc:"List the built-in benchmark circuits with their interface and \
             gate counts.")
    Term.(const run $ const ())

(* ----------------------------------------------------------------- cache *)

let cache_cmd =
  let run action dir max_bytes =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      die "no artifact store at %s" dir;
    let store = Dl_store.Store.open_ dir in
    match action with
    | `Stats ->
        let s = Dl_store.Store.stats store in
        Printf.printf "%s: %d objects, %d bytes\n" dir s.objects s.total_bytes;
        List.iter
          (fun (kind, count, bytes) ->
            Printf.printf "  %-12s %5d  %10d bytes\n" kind count bytes)
          s.by_kind
    | `Verify ->
        let r = Dl_store.Store.verify store in
        Printf.printf "checked %d artifacts\n" r.checked;
        if r.corrupt = [] then print_endline "all checksums OK"
        else begin
          List.iter
            (fun (key, reason) -> Printf.printf "  corrupt %s: %s\n" key reason)
            r.corrupt;
          exit 1
        end
    | `Gc ->
        let r =
          Dl_store.Store.gc ?max_bytes
            ~current:Dl_store.Artifact.current_versions store
        in
        Printf.printf
          "kept %d; removed %d corrupt, %d stale-format, %d evicted \
           (%d bytes freed)\n"
          r.kept r.removed_corrupt r.removed_stale r.removed_evicted
          r.removed_bytes
  in
  let action =
    let action_conv =
      Arg.enum [ ("stats", `Stats); ("verify", `Verify); ("gc", `Gc) ]
    in
    Arg.(value & pos 0 action_conv `Stats & info [] ~docv:"ACTION"
           ~doc:"$(b,stats) (per-kind object counts and sizes), $(b,verify) \
                 (full checksum pass; nonzero exit on corruption) or $(b,gc) \
                 (drop corrupt and stale-format artifacts, optionally cap \
                 total size).")
  in
  let dir =
    Arg.(value & opt string Dl_store.Store.default_dir
         & info [ "dir" ] ~docv:"DIR" ~doc:"Artifact store root.")
  in
  let max_bytes =
    Arg.(value & opt (some int) None & info [ "max-bytes" ] ~docv:"N"
           ~doc:"With $(b,gc): evict oldest artifacts until the store is at \
                 most $(docv) bytes.")
  in
  Cmd.v
    (Cmd.info "cache" ~version
       ~doc:"Artifact-store maintenance (stats, verify, gc).")
    Term.(const run $ action $ dir $ max_bytes)

(* ------------------------------------------------------------ transition *)

let transition_cmd =
  let run spec seed =
    let c = Dl_netlist.Transform.decompose_for_cells (load_circuit spec) in
    let faults = Dl_fault.Transition.universe c in
    let r = Dl_atpg.Transition_atpg.run ~seed c ~faults in
    Printf.printf
      "%d transition faults: two-pattern coverage %.2f%% with %d pairs \
       (untestable %d, aborted %d)\n"
      (Array.length faults) (100.0 *. r.coverage) (Array.length r.pairs)
      r.untestable r.aborted
  in
  Cmd.v
    (Cmd.info "transition" ~version
       ~doc:"Two-pattern (transition/delay fault) test generation.")
    Term.(const run $ circuit_arg $ seed_arg)

(* --------------------------------------------------------------- compact *)

let compact_cmd =
  let run spec seed count =
    let c = Dl_netlist.Transform.decompose_for_cells (load_circuit spec) in
    let faults = Dl_fault.Stuck_at.collapse c (Dl_fault.Stuck_at.universe c) in
    let rng = Dl_util.Rng.create seed in
    let vectors =
      Array.init count (fun _ ->
          Array.init (Circuit.input_count c) (fun _ -> Dl_util.Rng.bool rng))
    in
    let _, stats = Dl_atpg.Compaction.compact c ~faults ~vectors in
    Printf.printf "%d random vectors -> %d after compaction (%d passes)\n"
      stats.original stats.compacted stats.passes_run
  in
  let count =
    Arg.(value & opt int 512 & info [ "vectors" ] ~docv:"N"
           ~doc:"Random vectors to generate before compacting.")
  in
  Cmd.v
    (Cmd.info "compact" ~version ~doc:"Static test compaction by re-ordered fault simulation.")
    Term.(const run $ circuit_arg $ seed_arg $ count)

(* ----------------------------------------------------------------- check *)

let check_cmd =
  let run engines seconds seed out self_test list_checks replay =
    if list_checks then begin
      List.iter
        (fun (o : Dl_check.Oracle.t) -> Printf.printf "%-18s %s\n" o.name o.doc)
        Dl_check.Oracle.all;
      List.iter
        (fun (name, _) ->
          Printf.printf "%-18s planted engine mutant (mutation self-test)\n"
            ("mutant:" ^ name))
        Dl_check.Mutant.all
    end
    else
      match replay with
      | Some path -> (
          let repro =
            try Dl_check.Testcase.load_repro path with
            | Invalid_argument m | Sys_error m -> die "%s" m
          in
          match
            try Dl_check.Harness.replay repro with Invalid_argument m ->
              die "%s" m
          with
          | check, Some msg ->
              Printf.printf "%s: reproduced\n  %s\n" check msg
          | check, None ->
              Printf.printf "%s: no longer failing\n" check;
              exit 1)
      | None ->
          if self_test then begin
            let result = Dl_check.Harness.self_test ?out_dir:out ~seed () in
            Format.printf "%a" Dl_check.Harness.pp_self_reports result;
            if not (snd result) then exit 1
          end
          else begin
            let checks = match engines with [] -> None | l -> Some l in
            let cfg =
              Dl_check.Harness.config ~seed ~seconds ?checks ?out_dir:out ()
            in
            let s =
              try Dl_check.Harness.run cfg with Invalid_argument m ->
                die "%s" m
            in
            Format.printf "%a" Dl_check.Harness.pp_summary s;
            if not (Dl_check.Harness.ok s) then exit 1
          end
  in
  let engines =
    Arg.(value & opt (list string) []
         & info [ "engines" ] ~docv:"LIST"
             ~doc:"Comma-separated subset of checks to run (see --list). \
                   Default: the whole registry.")
  in
  let seconds =
    Arg.(value & opt float 5.0
         & info [ "seconds" ] ~docv:"N"
             ~doc:"Wall-clock budget for generated cases.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for failing-case repro files (.bench + .repro).")
  in
  let self_test =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Run the mutation self-test instead of the registry: plant \
                   known single-line bugs in a copy of the fault-simulation \
                   eval loop and prove the harness catches and shrinks them.")
  in
  let list_checks =
    Arg.(value & flag & info [ "list" ] ~doc:"List registered checks and exit.")
  in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a saved .repro file and re-judge it.")
  in
  Cmd.v
    (Cmd.info "check" ~version
       ~doc:"Differential & metamorphic self-checks with counterexample \
             shrinking.")
    Term.(const run $ engines $ seconds $ seed_arg $ out $ self_test
          $ list_checks $ replay)

(* -------------------------------------------------------------- bench-io *)

let bench_io_cmd =
  let run spec out =
    let c = load_circuit spec in
    let render path_opt =
      match path_opt with
      | Some path when Filename.check_suffix path ".v" ->
          Dl_netlist.Verilog.write_file path c;
          Printf.printf "wrote %s (verilog)\n" path
      | Some path ->
          Dl_netlist.Bench_format.write_file path c;
          Printf.printf "wrote %s\n" path
      | None -> print_string (Dl_netlist.Bench_format.to_string c)
    in
    render out
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to a file instead of stdout (.v selects Verilog, \
                 anything else ISCAS-85 .bench).")
  in
  Cmd.v
    (Cmd.info "bench-io" ~version
       ~doc:"Convert circuits between ISCAS-85 .bench and structural Verilog.")
    Term.(const run $ circuit_arg $ out)

(* ----------------------------------------------------------- serve/submit *)

let socket_arg =
  Arg.(value & opt string "/tmp/dlproj.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(value & opt (some string) None
       & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"TCP endpoint instead of the Unix-domain socket \
                 (overrides $(b,--socket)).  Port 0 asks the kernel for \
                 an ephemeral port when listening.")

let endpoint_of socket tcp =
  match tcp with
  | None -> Dl_serve.Transport.Unix_socket socket
  | Some spec -> (
      match Dl_serve.Transport.of_string spec with
      | Dl_serve.Transport.Tcp _ as ep -> ep
      | Dl_serve.Transport.Unix_socket _ ->
          die "bad --tcp %S (expected HOST:PORT)" spec)

let parse_endpoint ~what spec =
  try Dl_serve.Transport.of_string spec
  with Invalid_argument m -> die "bad %s %S: %s" what spec m

let serve_cmd =
  let run socket tcp workers queue_capacity jobs cache peers =
    let listen = endpoint_of socket tcp in
    let banner ep =
      Printf.printf "dlproj serving on %s (%d worker%s, queue %d)%s%s\n%!"
        (Dl_serve.Transport.to_string ep)
        workers
        (if workers = 1 then "" else "s")
        queue_capacity
        (match cache with
        | None -> ""
        | Some d -> Printf.sprintf ", cache %s" d)
        (match peers with
        | [] -> ""
        | ps -> Printf.sprintf ", %d peer%s" (List.length ps)
                  (if List.length ps = 1 then "" else "s"))
    in
    (match peers with
    | [] ->
        let cfg =
          Dl_serve.Server.config ~workers ~queue_capacity
            ~domains_per_worker:(resolve_jobs jobs) ?cache_dir:cache ~listen ()
        in
        Dl_serve.Server.run cfg
          ~on_ready:(fun s -> banner (Dl_serve.Server.bound s))
    | peers ->
        (* A fleet member: same daemon, plus the peer store tier (fetch
           artifacts from the ring before computing, publish afterwards). *)
        let w =
          Dl_cluster.Worker.start ~workers ~queue_capacity
            ~domains_per_worker:(resolve_jobs jobs) ?cache_dir:cache ~listen ()
        in
        let self = Dl_cluster.Worker.bound w in
        Dl_cluster.Worker.set_peers w
          (self :: List.map (parse_endpoint ~what:"--peer") peers);
        let server = Dl_cluster.Worker.server w in
        let handler =
          Sys.Signal_handle (fun _ -> Dl_serve.Server.request_stop server)
        in
        List.iter
          (fun s -> ignore (Sys.signal s handler))
          [ Sys.sigterm; Sys.sigint ];
        banner self;
        Dl_serve.Server.wait server);
    print_endline "dlproj server drained and exited"
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Scheduler threads (= concurrently running jobs), each \
                 owning its own simulation domain pool.")
  in
  let queue =
    Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N"
           ~doc:"Bound on queued jobs; past it, submissions are rejected \
                 with a retry-after hint instead of blocking.")
  in
  let cache =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR"
           ~doc:"Content-addressed artifact store shared by all jobs.")
  in
  let peers =
    Arg.(value & opt_all string []
         & info [ "peer" ] ~docv:"ENDPOINT"
             ~doc:"Another worker of the fleet (repeatable; \
                   $(b,HOST:PORT) or a socket path).  With peers, a \
                   local stage miss is fetched from the key's home node \
                   before computing, and computed artifacts are pushed \
                   back to it.")
  in
  Cmd.v
    (Cmd.info "serve" ~version
       ~doc:"Serve projection jobs over a Unix-domain socket or TCP \
             endpoint (drains gracefully on SIGTERM/SIGINT).")
    Term.(const run $ socket_arg $ tcp_arg $ workers $ queue $ jobs_arg
          $ cache $ peers)

let submit_cmd =
  let run socket tcp retries spec seed max_random target_yield no_collapse
      deadline json =
    let circuit =
      match Dl_netlist.Benchmarks.by_name spec with
      | Some _ -> Dl_serve.Protocol.Builtin spec
      | None ->
          if Sys.file_exists spec then
            let text = In_channel.with_open_text spec In_channel.input_all in
            Dl_serve.Protocol.Inline_bench
              { title = Filename.remove_extension (Filename.basename spec);
                text }
          else
            die "%S is neither a built-in benchmark nor a .bench file" spec
    in
    let job =
      try
        Dl_serve.Protocol.job_spec ~seed ~max_random_vectors:max_random
          ~target_yield ~collapse_faults:(not no_collapse) ?deadline_ms:deadline
          circuit
      with Invalid_argument msg -> die "%s" msg
    in
    Dl_serve.Client.with_client (endpoint_of socket tcp) @@ fun client ->
    match Dl_serve.Client.submit_retrying ~attempts:retries client job with
    | Dl_serve.Protocol.Result served ->
        if json then print_endline (Dl_serve.Protocol.served_to_json served)
        else Format.printf "%a" Dl_serve.Protocol.pp_served served
    | Dl_serve.Protocol.Rejected { retry_after_ms; queue_depth } ->
        die "server busy (queue depth %d); retry in %d ms%s" queue_depth
          retry_after_ms
          (if retries = 0 then " (or pass --retries)" else "")
    | Dl_serve.Protocol.Expired -> die "deadline expired before completion"
    | Dl_serve.Protocol.Server_error msg -> die "server error: %s" msg
    | _ -> die "unexpected reply to submit"
  in
  let retries =
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
           ~doc:"On a busy-server rejection, sleep the server's \
                 retry-after hint (jittered) and resubmit, up to $(docv) \
                 times, before giving up.")
  in
  let max_random =
    Arg.(value & opt int 2048 & info [ "max-random" ] ~docv:"N"
           ~doc:"Random-phase vector budget.")
  in
  let target_yield =
    Arg.(value & opt float 0.75 & info [ "yield" ] ~docv:"Y"
           ~doc:"Yield the extracted weights are scaled to.")
  in
  let no_collapse =
    Arg.(value & flag & info [ "no-collapse" ]
           ~doc:"Simulate the full uncollapsed stuck-at universe.")
  in
  let deadline =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Give up (server side) if no answer exists after $(docv).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the machine-readable response (same schema as \
                 $(b,dlproj pipeline --json)).")
  in
  Cmd.v
    (Cmd.info "submit" ~version
       ~doc:"Submit one projection job to a running dlproj server.")
    Term.(const run $ socket_arg $ tcp_arg $ retries $ circuit_arg $ seed_arg
          $ max_random $ target_yield $ no_collapse $ deadline $ json)

let ping_cmd =
  let run socket tcp stats shutdown =
    let endpoint = endpoint_of socket tcp in
    Dl_serve.Client.with_client endpoint @@ fun client ->
    if shutdown then begin
      let s = Dl_serve.Client.shutdown client in
      Format.printf "server draining; final stats:@.%a@."
        Dl_serve.Protocol.pp_stats s
    end
    else if stats then
      Format.printf "%a@." Dl_serve.Protocol.pp_stats
        (Dl_serve.Client.get_stats client)
    else begin
      let t0 = Unix.gettimeofday () in
      if Dl_serve.Client.ping client then
        Printf.printf "pong from %s in %.1f ms\n"
          (Dl_serve.Transport.to_string endpoint)
          ((Unix.gettimeofday () -. t0) *. 1000.0)
      else die "unexpected reply to ping"
    end
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print server counters and latency percentiles instead.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the server to drain and exit; prints its final stats.")
  in
  Cmd.v
    (Cmd.info "ping" ~version
       ~doc:"Liveness, stats and shutdown RPCs against a dlproj server.")
    Term.(const run $ socket_arg $ tcp_arg $ stats $ shutdown)

let bench_serve_cmd =
  let run socket tcp rate duration mix seed gates distinct deadline clients
      max_random trace plan_only json =
    let mix =
      try Dl_serve.Load_gen.mix_of_string mix
      with Invalid_argument m -> die "%s" m
    in
    let deadline =
      Option.map
        (fun s ->
          match String.split_on_char ':' s with
          | [ lo; hi ] -> (
              match (int_of_string_opt lo, int_of_string_opt hi) with
              | Some lo, Some hi -> (lo, hi)
              | _ -> die "bad --deadline-ms %S (expected LO:HI)" s)
          | [ one ] -> (
              match int_of_string_opt one with
              | Some d -> (d, d)
              | None -> die "bad --deadline-ms %S" s)
          | _ -> die "bad --deadline-ms %S (expected LO:HI)" s)
        deadline
    in
    let cfg =
      Dl_serve.Load_gen.config ~rate ~duration ~mix ~seed ~gates ~distinct
        ?deadline_ms:deadline ~max_random_vectors:max_random ()
    in
    let planned =
      try Dl_serve.Load_gen.plan cfg
      with Invalid_argument m -> die "%s" m
    in
    let write_trace path =
      let text = Dl_serve.Load_gen.trace_to_string cfg planned in
      if path = "-" then print_string text
      else begin
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc text);
        Printf.eprintf "wrote %d-request trace to %s\n%!"
          (Array.length planned) path
      end
    in
    Option.iter write_trace trace;
    if plan_only then begin
      if trace = None then write_trace "-"
    end
    else begin
      let _records, report =
        Dl_serve.Load_gen.run ~clients ~socket:(endpoint_of socket tcp) cfg
      in
      if json then print_endline (Dl_serve.Load_gen.report_to_json report)
      else Format.printf "%a@." Dl_serve.Load_gen.pp_report report
    end
  in
  let rate =
    Arg.(value & opt float 20.0 & info [ "rate" ] ~docv:"R"
           ~doc:"Mean open-loop arrival rate, requests/second.")
  in
  let duration =
    Arg.(value & opt float 3.0 & info [ "duration" ] ~docv:"S"
           ~doc:"Schedule horizon in seconds.")
  in
  let mix =
    Arg.(value & opt string "c432s_small" & info [ "mix" ] ~docv:"SPEC"
           ~doc:"Weighted workload classes, e.g. \
                 $(b,c432s:3,xor-heavy:1).  A class is a built-in \
                 benchmark or a generator family name.")
  in
  let gates =
    Arg.(value & opt int 120 & info [ "gates" ] ~docv:"N"
           ~doc:"Gate count for generated family circuits.")
  in
  let distinct =
    Arg.(value & opt int 4 & info [ "distinct" ] ~docv:"K"
           ~doc:"Distinct job seeds per class; repeats exercise \
                 coalescing and the result cache.")
  in
  let deadline =
    Arg.(value & opt (some string) None & info [ "deadline-ms" ]
           ~docv:"LO:HI"
           ~doc:"Uniform per-request deadline range in milliseconds.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client connections replaying the schedule.")
  in
  let max_random =
    Arg.(value & opt int 128 & info [ "max-random" ] ~docv:"N"
           ~doc:"Random-phase vector budget per job.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the planned schedule (byte-identical for equal \
                 seeds) to $(docv); $(b,-) for stdout.")
  in
  let plan_only =
    Arg.(value & flag & info [ "plan-only" ]
           ~doc:"Plan and print the schedule without contacting a server.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the machine-readable load report.")
  in
  Cmd.v
    (Cmd.info "bench-serve" ~version
       ~doc:"Replay a seeded open-loop traffic mix against a running \
             dlproj server and report throughput, tail latency and \
             backpressure.")
    Term.(const run $ socket_arg $ tcp_arg $ rate $ duration $ mix $ seed_arg
          $ gates $ distinct $ deadline $ clients $ max_random $ trace
          $ plan_only $ json)

(* ---------------------------------------------------------------- coord *)

let coord_cmd =
  let run socket tcp worker_specs max_in_flight probe_ms fanout =
    if worker_specs = [] then die "coord needs at least one --worker";
    let listen = endpoint_of socket tcp in
    let workers = List.map (parse_endpoint ~what:"--worker") worker_specs in
    let cfg =
      Dl_cluster.Coord.config ~max_in_flight
        ~probe_period_s:(float_of_int probe_ms /. 1000.0)
        ~fanout_stages:fanout ~listen ~workers ()
    in
    Dl_cluster.Coord.run cfg ~on_ready:(fun t ->
        Printf.printf "dlproj coordinating %d worker%s on %s%s\n%!"
          (List.length workers)
          (if List.length workers = 1 then "" else "s")
          (Dl_serve.Transport.to_string (Dl_cluster.Coord.bound t))
          (if fanout then ", stage fan-out on" else ""));
    print_endline "dlproj coordinator exited"
  in
  let worker_specs =
    Arg.(value & opt_all string []
         & info [ "worker" ] ~docv:"ENDPOINT"
             ~doc:"A worker daemon to dispatch to (repeatable; \
                   $(b,HOST:PORT) or a socket path).")
  in
  let max_in_flight =
    Arg.(value & opt int 4 & info [ "max-in-flight" ] ~docv:"N"
           ~doc:"Outstanding dispatches per worker; past it the relay \
                 waits for capacity.")
  in
  let probe_ms =
    Arg.(value & opt int 1000 & info [ "probe-ms" ] ~docv:"MS"
           ~doc:"Health-probe period: repeated failures eject a worker, \
                 one success readmits it.")
  in
  let fanout =
    Arg.(value & flag & info [ "fanout" ]
           ~doc:"Fan each submission's independent stages out across the \
                 ring before relaying the final submit.")
  in
  Cmd.v
    (Cmd.info "coord" ~version
       ~doc:"Coordinate a fleet of dlproj servers: consistent-hash \
             dispatch with in-flight caps, queue-depth-aware work \
             stealing and health-probe ejection/readmission.")
    Term.(const run $ socket_arg $ tcp_arg $ worker_specs $ max_in_flight
          $ probe_ms $ fanout)

(* ------------------------------------------------------------------ svg *)

let svg_cmd =
  let run spec out scale =
    let c = Dl_netlist.Transform.decompose_for_cells (load_circuit spec) in
    let l = Dl_layout.Layout.synthesize (Dl_cell.Mapping.flatten c) in
    Dl_layout.Svg.write_file ~scale out l;
    Format.printf "%a@." Dl_layout.Layout.pp_stats l;
    Printf.printf "wrote %s\n" out
  in
  let out =
    Arg.(value & opt string "layout.svg" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output SVG path.")
  in
  let scale =
    Arg.(value & opt float 2.0 & info [ "scale" ] ~docv:"PX"
           ~doc:"Pixels per lambda.")
  in
  Cmd.v (Cmd.info "svg" ~version ~doc:"Render the synthesized layout to SVG.")
    Term.(const run $ circuit_arg $ out $ scale)

let () =
  (* A client whose server hung up mid-write must get the one-line
     diagnostic below (the client maps socket EPIPE to Protocol_error),
     not die silently of SIGPIPE; a closed stdout still exits quietly. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let doc = "defect-level projection from layout-extracted realistic faults" in
  let main = Cmd.group (Cmd.info "dlproj" ~version ~doc)
      [ info_cmd; atpg_cmd; extract_cmd; project_cmd; pipeline_cmd; ndet_cmd;
        benchmarks_cmd; cache_cmd; transition_cmd; compact_cmd; check_cmd;
        bench_io_cmd; serve_cmd; submit_cmd; ping_cmd; bench_serve_cmd;
        coord_cmd; svg_cmd ]
  in
  (* Operational failures (missing files, malformed netlists, bad paths,
     missing or dead sockets) get a one-line diagnostic and exit 1 instead
     of a backtrace. *)
  (* A consumer that stopped reading our stdout (e.g. `dlproj info | head`)
     surfaces as Sys_error "Broken pipe" (channel writes) or EPIPE (direct
     Unix writes).  Exit quietly with the conventional SIGPIPE status —
     via [Unix._exit], because [exit] would flush the broken channel and
     die a second time. *)
  let quiet_pipe_exit () =
    (try flush stderr with Sys_error _ -> ());
    Unix._exit 141
  in
  try exit (Cmd.eval ~catch:false main) with
  | Sys_error msg when msg = "Broken pipe" -> quiet_pipe_exit ()
  | Sys_error msg -> die "%s" msg
  | Circuit.Malformed msg -> die "%s" msg
  | Dl_netlist.Bench_format.Parse_error { line; message } ->
      die "parse error at line %d: %s" line message
  | Dl_netlist.Verilog.Parse_error { line; message } ->
      die "parse error at line %d: %s" line message
  | Unix.Unix_error (Unix.EPIPE, _, _) -> quiet_pipe_exit ()
  | Unix.Unix_error (err, _, arg) ->
      die "%s%s" (Unix.error_message err)
        (if arg = "" then "" else Printf.sprintf " (%s)" arg)
  | Dl_serve.Protocol.Protocol_error msg -> die "%s" msg
  | Failure msg -> die "%s" msg
  | Invalid_argument msg -> die "internal error: %s" msg
