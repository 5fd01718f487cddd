open Dl_netlist
module Coverage = Dl_fault.Coverage
module Ifa = Dl_extract.Ifa
module Realistic = Dl_switch.Realistic
module Swift = Dl_switch.Swift
module Stage = Dl_store.Stage
module Artifact = Dl_store.Artifact

type mc = {
  mc_dies : int;
  mc_dies_per_wafer : int;
  mc_wafers_per_lot : int;
  mc_alpha_wafer : float;
  mc_alpha_lot : float;
  mc_points : int;
}

let mc ?(dies_per_wafer = 256) ?(wafers_per_lot = 4) ?(alpha_wafer = infinity)
    ?(alpha_lot = infinity) ?(points = 25) ~dies () =
  if dies <= 0 then invalid_arg "Experiment.mc: dies must be positive";
  if dies_per_wafer <= 0 then
    invalid_arg "Experiment.mc: dies_per_wafer must be positive";
  if wafers_per_lot <= 0 then
    invalid_arg "Experiment.mc: wafers_per_lot must be positive";
  if Float.is_nan alpha_wafer || alpha_wafer <= 0.0 then
    invalid_arg "Experiment.mc: alpha_wafer must be positive";
  if Float.is_nan alpha_lot || alpha_lot <= 0.0 then
    invalid_arg "Experiment.mc: alpha_lot must be positive";
  if points < 1 then invalid_arg "Experiment.mc: points must be >= 1";
  {
    mc_dies = dies;
    mc_dies_per_wafer = dies_per_wafer;
    mc_wafers_per_lot = wafers_per_lot;
    mc_alpha_wafer = alpha_wafer;
    mc_alpha_lot = alpha_lot;
    mc_points = points;
  }

type config = {
  circuit : Circuit.t;
  seed : int;
  max_random_vectors : int;
  target_yield : float;
  stats : Dl_extract.Defect_stats.t;
  min_weight_ratio : float;
  rows : int option;
  domains : int;
  pool : Dl_util.Parallel.t option;
  collapse_faults : bool;
  sim_engine : Dl_fault.Fault_sim.engine;
  cache_dir : string option;
  remote : Stage.remote option;
  mc : mc option;
  bootstrap : int option;
  ndet : int option;
}

let config ?(seed = 7) ?(max_random_vectors = 4096) ?(target_yield = 0.75)
    ?(stats = Dl_extract.Defect_stats.default) ?(min_weight_ratio = 0.0) ?rows
    ?(domains = Dl_util.Parallel.default_domains ()) ?pool
    ?(collapse_faults = true) ?(sim_engine = Dl_fault.Fault_sim.Wide)
    ?cache_dir ?remote ?mc ?bootstrap ?ndet circuit =
  if not (target_yield > 0.0 && target_yield < 1.0) then
    invalid_arg "Experiment.config: target yield must be in (0, 1)";
  if domains < 1 then invalid_arg "Experiment.config: domains must be >= 1";
  if max_random_vectors < 0 then
    invalid_arg "Experiment.config: max_random_vectors must be >= 0";
  if not (min_weight_ratio >= 0.0 && min_weight_ratio <= 1.0) then
    invalid_arg "Experiment.config: min_weight_ratio must be in [0, 1]";
  (match rows with
  | Some r when r < 1 -> invalid_arg "Experiment.config: rows must be >= 1"
  | _ -> ());
  (match bootstrap with
  | Some k when k <= 0 ->
      invalid_arg "Experiment.config: bootstrap replicates must be positive"
  | _ -> ());
  (match ndet with
  | Some n when n < 1 ->
      invalid_arg "Experiment.config: ndet quota must be >= 1"
  | _ -> ());
  { circuit; seed; max_random_vectors; target_yield; stats; min_weight_ratio;
    rows; domains; pool; collapse_faults; sim_engine; cache_dir; remote;
    mc; bootstrap; ndet }

(* The n-detection extension (PR: Dl_ndet).  [profile] is the multi-detect
   simulation of the SAME vector sequence the 1-detection flow applies, so
   its n = 1 slice is bit-identical to [t_curve]; [gen_*] is the separately
   generated n-detection test set ({!Dl_ndet.Atpg_n}). *)
type ndet_result = {
  ndet_n : int;
  profile : Dl_fault.Fault_sim.ndet;
  dl_n : Dl_n.t;
  gen_vectors : bool array array;
  gen_counts : int array;
  gen_stats : Dl_ndet.Atpg_n.stats;
}

type t = {
  cfg : config;
  mapped_circuit : Circuit.t;
  vectors : bool array array;
  atpg_stats : Dl_atpg.Atpg.stats;
  stuck_faults : Dl_fault.Stuck_at.t array;
  sim_stats : Dl_fault.Fault_sim.Stats.t;
  extraction : Ifa.extraction;
  scale_factor : float;
  yield : float;
  scaled_weights : float array;
  t_curve : Coverage.t;
  theta_curve : Coverage.t;
  gamma_curve : Coverage.t;
  theta_iddq_curve : Coverage.t;
  swift_result : Swift.result;
  fit : Projection.fit;
  wafer_mc : Wafer_mc.t option;
  bootstrap_fit : Bootstrap.t option;
  ndet : ndet_result option;
  summary : string;
  stage_reports : Stage.report list;
}

let fit_sample_points = 100

let fit_of ~r ~theta_max ~rmse ~log10 =
  {
    Projection.params = { Projection.r; theta_max };
    rmse;
    rmse_scale = (if log10 then Projection.Log10 else Projection.Linear);
  }

(* The eq. 9 fit of (T(k), Θ(k)) over [points] log-spaced vector counts:
   what the projection stage caches at the default resolution. *)
let fit_curves ~t_curve ~theta_curve ~n_vectors ~points =
  let ks = Coverage.log_spaced ~max:n_vectors ~points in
  Projection.fit_theta
    (Array.map (fun k -> (Coverage.at t_curve k, Coverage.at theta_curve k)) ks)

(* --- the stage table -----------------------------------------------------

   The experiment's stage DAG is declared once, as [table] below; key
   planning, [run], [run_stage] and [stage_inputs] all derive from it.

   One stage.  Its key digests its name, its codec kind/version, its
   config fingerprint and the keys of its [inputs], in that order; a stage
   without inputs is the root and digests the content key of the input
   circuit instead.  [config] gives the fingerprint, or [None] when the
   config disables the stage; an optional stage's [compute] therefore only
   runs with its knob set.  [compute] reads stage values with [get] — only
   stages of its transitive input closure, which its key digests — and
   {!derived} values. *)
type 'a stage = {
  name : string;
  codec : 'a Dl_store.Codec.t;
  id : 'a Type.Id.t;
  inputs : any list;
  config : config -> (string * string) list option;
  compute : env -> 'a;
}

and any = Any : 'a stage -> any

(* One execution: the stage values loaded or computed so far and the
   derived values forced so far, keyed by their type identifiers. *)
and env = { cfg : config; graph : Stage.t; values : (int, value) Hashtbl.t }
and value = Value : 'a Type.Id.t * 'a -> value

let name (Any s) = s.name

let find (type a) env (id : a Type.Id.t) : a option =
  match Hashtbl.find_opt env.values (Type.Id.uid id) with
  | None -> None
  | Some (Value (id', v)) -> (
      match Type.Id.provably_equal id' id with
      | Some Type.Equal -> Some v
      | None -> assert false (* uids are unique *))

let put env id v = Hashtbl.replace env.values (Type.Id.uid id) (Value (id, v))

let get env s =
  match find env s.id with
  | Some v -> v
  | None -> invalid_arg ("Experiment: stage read before it ran: " ^ s.name)

let stage name codec ~inputs ~config compute =
  { name; codec; id = Type.Id.make (); inputs; config; compute }

(* A value derived from stage values that is not a stage itself (the
   layout, the scaled weights, the coverage curves): computed at most once
   per execution, and only when something reads it. *)
let derived f =
  let id = Type.Id.make () in
  fun env ->
    match find env id with
    | Some v -> v
    | None ->
        let v = f env in
        put env id v;
        v

let hex = Printf.sprintf "%h"

(* 1. Technology-map the netlist. *)
let mapping =
  stage "mapping" Artifact.circuit ~inputs:[]
    ~config:(fun _ -> Some [])
    (fun env -> Transform.decompose_for_cells env.cfg.circuit)

let flat = derived (fun env -> Dl_cell.Mapping.flatten (get env mapping))

let layout =
  derived (fun env ->
      Dl_layout.Layout.synthesize ?rows:env.cfg.rows (flat env))

(* 2. Test generation: random prefix then deterministic top-up. *)
let atpg =
  stage "atpg" Artifact.atpg ~inputs:[ Any mapping ]
    ~config:(fun cfg ->
      Some
        [
          ("seed", string_of_int cfg.seed);
          ("max_random_vectors", string_of_int cfg.max_random_vectors);
        ])
    (fun env ->
      fst
        (Dl_atpg.Atpg.full_flow ~seed:env.cfg.seed
           ~max_random:env.cfg.max_random_vectors (get env mapping)))

(* The paper neglects redundant stuck-at faults ("so that T(k) -> 1 when
   k -> infinity"); drop the PODEM-proven-redundant ones from the T
   denominator.  Aborted faults stay: they are potentially testable.

   ATPG always works on the collapsed universe ([full_flow] collapses),
   which is also what we simulate by default: one representative per
   equivalence class, every class weighing the same in T(k).  With
   [collapse_faults = false] the paper-faithful uncollapsed universe is
   simulated instead — every line fault counts individually, so a class
   with many equivalent members weighs proportionally more in the
   coverage denominator (the classical uncollapsed coverage definition).
   Final coverage is typically close but NOT identical between the two.
   A PODEM-proved-redundant representative proves its whole equivalence
   class redundant, so in uncollapsed mode the untestable filter expands
   each untestable representative to its full class. *)
let fault_universe =
  stage "fault-universe" Artifact.stuck_faults
    ~inputs:[ Any mapping; Any atpg ]
    ~config:(fun cfg ->
      Some [ ("collapse_faults", string_of_bool cfg.collapse_faults) ])
    (fun env ->
      let c = get env mapping in
      let untestable = (get env atpg).Artifact.untestable_faults in
      let is_untestable rep =
        Array.exists (fun u -> Dl_fault.Stuck_at.equal u rep) untestable
      in
      let universe = Dl_fault.Stuck_at.universe c in
      if env.cfg.collapse_faults then
        Array.of_seq
          (Seq.filter
             (fun f -> not (is_untestable f))
             (Array.to_seq (Dl_fault.Stuck_at.collapse c universe)))
      else
        let untestable_members =
          Dl_fault.Stuck_at.equivalence_classes c universe
          |> Array.to_seq
          |> Seq.filter (fun cls -> is_untestable cls.(0))
          |> Seq.concat_map Array.to_seq
          |> List.of_seq
        in
        Array.of_seq
          (Seq.filter
             (fun f ->
               not (List.exists (Dl_fault.Stuck_at.equal f) untestable_members))
             (Array.to_seq universe)))

(* 3. Gate-level stuck-at fault simulation over the same sequence
   (parallel engine; bit-for-bit identical to the serial one, so the
   domain count is deliberately absent from the stage key).  The engine is
   part of the key even though detection results are engine-independent:
   the cached artifact carries per-engine [Stats] counters, so two engines
   must never alias one cache entry. *)
let fault_sim =
  stage "fault-sim" Artifact.detections
    ~inputs:[ Any mapping; Any fault_universe; Any atpg ]
    ~config:(fun cfg ->
      Some [ ("engine", Dl_fault.Fault_sim.engine_to_string cfg.sim_engine) ])
    (fun env ->
      let cfg = env.cfg in
      let sim =
        Dl_fault.Fault_sim.run_parallel_with ~engine:cfg.sim_engine
          ~domains:cfg.domains ?pool:cfg.pool (get env mapping)
          ~faults:(get env fault_universe)
          ~vectors:(get env atpg).Artifact.vectors
      in
      { Artifact.first_detection = sim.first_detection;
        vectors_applied = sim.vectors_applied;
        gate_evaluations = sim.gate_evaluations; sim_stats = sim.stats })

let t_curve =
  derived (fun env ->
      Coverage.make (get env fault_sim).Artifact.first_detection)

(* 4. Layout synthesis and inductive fault analysis.  The layout is a
   derived value of the run, built even on a warm [run] because {!t}
   carries it; the geometry *scan* — the expensive part — is what the
   layout-ifa artifact caches. *)
let layout_ifa =
  stage "layout-ifa" Artifact.ifa ~inputs:[ Any mapping ]
    ~config:(fun cfg ->
      Some
        [
          ("defect_stats", Artifact.defect_stats_fingerprint cfg.stats);
          ("min_weight_ratio", hex cfg.min_weight_ratio);
          ( "rows",
            match cfg.rows with None -> "auto" | Some r -> string_of_int r );
        ])
    (fun env ->
      let e =
        Ifa.extract ~stats:env.cfg.stats
          ~min_weight_ratio:env.cfg.min_weight_ratio (layout env)
      in
      { Artifact.faults = e.faults; gross_weight = e.gross_weight;
        summaries = e.summaries })

(* The extracted weights scaled so eq. 5 gives the target yield, and the
   factor applied. *)
let scaled =
  derived (fun env ->
      Weighted.scale_to_yield
        ~weights:
          (Array.map
             (fun (f : Realistic.t) -> f.weight)
             (get env layout_ifa).Artifact.faults)
        ~target_yield:env.cfg.target_yield)

(* 5. Switch-level realistic fault simulation. *)
let swift =
  stage "swift" Artifact.swift
    ~inputs:[ Any mapping; Any layout_ifa; Any atpg ]
    ~config:(fun _ -> Some [])
    (fun env ->
      let network = Dl_switch.Network.build (flat env) in
      let r =
        Swift.run network ~faults:(get env layout_ifa).Artifact.faults
          ~vectors:(get env atpg).Artifact.vectors
      in
      { Artifact.detection = r.detection; vectors_applied = r.vectors_applied;
        region_solves = r.region_solves })

let voltage_firsts =
  derived (fun env ->
      Array.map (fun (d : Swift.detection) -> d.voltage)
        (get env swift).Artifact.detection)

let theta_curve =
  derived (fun env ->
      Coverage.make ~weights:(fst (scaled env)) (voltage_firsts env))

let gamma_curve = derived (fun env -> Coverage.make (voltage_firsts env))

(* Θ(k) when IDDQ accompanies every vector. *)
let theta_iddq_curve =
  derived (fun env ->
      Coverage.make ~weights:(fst (scaled env))
        (Array.map
           (fun (d : Swift.detection) ->
             match (d.voltage, d.iddq) with
             | Some a, Some b -> Some (min a b)
             | x, None | None, x -> x)
           (get env swift).Artifact.detection))

(* 6. Susceptibility fit and summary (the only stage a target-yield or
   fit-resolution change invalidates). *)
let projection =
  stage "projection" Artifact.summary
    ~inputs:[ Any fault_universe; Any fault_sim; Any layout_ifa; Any swift ]
    ~config:(fun cfg ->
      Some
        [
          ("target_yield", hex cfg.target_yield);
          ("fit_points", string_of_int fit_sample_points);
        ])
    (fun env ->
      let atpg_art = get env atpg in
      let n = Array.length atpg_art.Artifact.vectors in
      let t_curve = t_curve env
      and theta_curve = theta_curve env in
      let _, scale_factor = scaled env in
      let fit =
        fit_curves ~t_curve ~theta_curve ~n_vectors:n ~points:fit_sample_points
      in
      let text =
        Format.asprintf
          "experiment %s: %d vectors (%d random + %d deterministic), %d \
           stuck faults (T final %.4f), %d realistic faults (Θ final %.4f, \
           Γ final %.4f, Θ+IDDQ %.4f), Y scaled by %.3e to %.2f"
          (get env mapping).Circuit.title n
          atpg_art.Artifact.stats.random_vectors
          atpg_art.Artifact.stats.deterministic_vectors
          (Array.length (get env fault_universe))
          (Coverage.at t_curve n)
          (Array.length (get env layout_ifa).Artifact.faults)
          (Coverage.at theta_curve n)
          (Coverage.at (gamma_curve env) n)
          (Coverage.at (theta_iddq_curve env) n)
          scale_factor env.cfg.target_yield
      in
      {
        Artifact.text;
        fit_r = fit.params.r;
        fit_theta_max = fit.params.theta_max;
        fit_rmse = fit.rmse;
        fit_rmse_log10 = (fit.rmse_scale = Projection.Log10);
        scale_factor;
      })

(* 7/8. The statistical stages.  Both draw exclusively from path-keyed
   Seeds streams rooted at [cfg.seed], so the cached artifact is a pure
   function of its stage key.  Their knobs fingerprint ONLY their own
   stage: turning either on, or changing dies/alphas/replicates, must
   never invalidate a simulation artifact.  [cfg.seed] is deliberately
   absent from the fingerprints — the atpg input key already digests it. *)

let seeds_of cfg name = Dl_util.Seeds.scope (Dl_util.Seeds.create cfg.seed) name

let wafer_mc =
  stage "wafer-mc" Artifact.wafer_mc
    ~inputs:[ Any atpg; Any layout_ifa; Any swift ]
    ~config:(fun cfg ->
      Option.map
        (fun m ->
          [
            ("dies", string_of_int m.mc_dies);
            ("dies_per_wafer", string_of_int m.mc_dies_per_wafer);
            ("wafers_per_lot", string_of_int m.mc_wafers_per_lot);
            ("alpha_wafer", hex m.mc_alpha_wafer);
            ("alpha_lot", hex m.mc_alpha_lot);
            ("points", string_of_int m.mc_points);
            ("target_yield", hex cfg.target_yield);
          ])
        cfg.mc)
    (fun env ->
      let m = Option.get env.cfg.mc in
      let n_vectors = Array.length (get env atpg).Artifact.vectors in
      let ks = Coverage.log_spaced ~max:n_vectors ~points:m.mc_points in
      let theta_curve = theta_curve env in
      Wafer_mc.simulate ~dies_per_wafer:m.mc_dies_per_wafer
        ~wafers_per_lot:m.mc_wafers_per_lot ~alpha_wafer:m.mc_alpha_wafer
        ~alpha_lot:m.mc_alpha_lot
        ~seeds:(seeds_of env.cfg "wafer-mc")
        ~dies:m.mc_dies
        ~weights:(fst (scaled env))
        ~firsts:(voltage_firsts env)
        ~points:(Array.map (fun k -> (k, Coverage.at theta_curve k)) ks)
        ())

let bootstrap_fit =
  stage "bootstrap-fit" Artifact.bootstrap_fit
    ~inputs:[ Any fault_universe; Any fault_sim; Any layout_ifa; Any swift ]
    ~config:(fun cfg ->
      Option.map
        (fun replicates ->
          [
            ("replicates", string_of_int replicates);
            ("fit_points", string_of_int fit_sample_points);
            ("target_yield", hex cfg.target_yield);
          ])
        cfg.bootstrap)
    (fun env ->
      let b =
        Bootstrap.run ~fit_points:fit_sample_points
          ~seeds:(seeds_of env.cfg "bootstrap-fit")
          ~replicates:(Option.get env.cfg.bootstrap)
          ~yield:env.cfg.target_yield
          ~t_firsts:(get env fault_sim).Artifact.first_detection
          ~theta_firsts:(voltage_firsts env)
          ~theta_weights:(fst (scaled env))
          ~n_vectors:(Array.length (get env atpg).Artifact.vectors)
          ()
      in
      {
        Artifact.fit_points = b.fit_points;
        point_r = b.point.Projection.params.r;
        point_theta_max = b.point.Projection.params.theta_max;
        point_rmse = b.point.Projection.rmse;
        point_rmse_log10 = (b.point.Projection.rmse_scale = Projection.Log10);
        alpha_point = b.alpha_point;
        r_samples = b.r_samples;
        theta_max_samples = b.theta_max_samples;
        alpha_samples = b.alpha_samples;
      })

(* 9/10. n-detection.  The ndet-sim stage profiles the SAME atpg vector
   sequence under a detection quota, so its n = 1 slice is bit-identical to
   fault-sim's first detections; like fault-sim it keys on the engine,
   whose [Stats] counters the artifact carries.  ndet-atpg generates the
   registered n-detection test set. *)

let ndet_sim =
  stage "ndet-sim" Artifact.ndet_profile
    ~inputs:[ Any mapping; Any fault_universe; Any atpg ]
    ~config:(fun cfg ->
      Option.map
        (fun n ->
          [
            ("n", string_of_int n);
            ("engine", Dl_fault.Fault_sim.engine_to_string cfg.sim_engine);
          ])
        cfg.ndet)
    (fun env ->
      let cfg = env.cfg in
      let nd =
        Dl_fault.Fault_sim.run_ndet ~engine:cfg.sim_engine
          ~domains:cfg.domains ?pool:cfg.pool ~drop_after:(Option.get cfg.ndet)
          (get env mapping) ~faults:(get env fault_universe)
          ~vectors:(get env atpg).Artifact.vectors
      in
      { Artifact.nd_drop_after = nd.drop_after; nd_counts = nd.counts;
        nd_detections = nd.detections; nd_vectors_applied = nd.vectors_applied;
        nd_gate_evaluations = nd.gate_evaluations; nd_sim_stats = nd.stats })

let ndet_atpg =
  stage "ndet-atpg" Artifact.ndet_atpg
    ~inputs:[ Any mapping; Any fault_universe ]
    ~config:(fun cfg ->
      Option.map
        (fun n ->
          [
            ("n", string_of_int n);
            ("seed", string_of_int cfg.seed);
            ("max_random_vectors", string_of_int cfg.max_random_vectors);
          ])
        cfg.ndet)
    (fun env ->
      let cfg = env.cfg in
      let r =
        Dl_ndet.Atpg_n.run ~seed:cfg.seed ~max_random:cfg.max_random_vectors
          ~engine:cfg.sim_engine ~n:(Option.get cfg.ndet) (get env mapping)
          ~faults:(get env fault_universe)
      in
      {
        Artifact.na_vectors = r.Dl_ndet.Atpg_n.vectors;
        na_counts = r.counts;
        na_stats = r.stats;
        na_untestable_faults = r.untestable_faults;
        na_aborted_faults = r.aborted_faults;
      })

(* The stage DAG of the paper's flow, in execution order: a topological
   order, every stage after its inputs.  A warm run re-executes only the
   stages whose keys changed.  The last four stages are optional. *)
let table =
  [
    Any mapping; Any atpg; Any fault_universe; Any fault_sim; Any layout_ifa;
    Any swift; Any projection; Any wafer_mc; Any bootstrap_fit; Any ndet_sim;
    Any ndet_atpg;
  ]

(* A stage the config enables, with its fingerprint and input keys. *)
type step = {
  step : any;
  fingerprint : (string * string) list;
  input_keys : string list;
  key : string;
}

(* The enabled stages in table order, keyed.  Keys are pure functions of
   the config, which is what lets a server coalesce identical requests
   before running anything: two configs with equal [request_key] denote
   bit-identical experiment results. *)
let plan cfg =
  let circuit_key = Dl_store.Codec.content_key Artifact.circuit cfg.circuit in
  let key_of steps i = (List.find (fun x -> name x.step = name i) steps).key in
  List.fold_left
    (fun steps (Any s as step) ->
      match s.config cfg with
      | None -> steps
      | Some fingerprint ->
          let input_keys =
            match s.inputs with
            | [] -> [ circuit_key ]
            | inputs -> List.map (key_of steps) inputs
          in
          let key =
            Stage.key ~stage:s.name ~codec:s.codec ~config:fingerprint
              ~inputs:input_keys
          in
          { step; fingerprint; input_keys; key } :: steps)
    [] table
  |> List.rev

let stage_keys cfg = List.map (fun st -> (name st.step, st.key)) (plan cfg)
let request_key cfg = List.assoc projection.name (stage_keys cfg)

let stage_inputs cfg =
  List.filter_map
    (fun (Any s) ->
      Option.map (fun _ -> (s.name, List.map name s.inputs)) (s.config cfg))
    table

(* Load or compute [steps] in order, through one stage graph. *)
let execute cfg steps =
  let store = Option.map Dl_store.Store.open_ cfg.cache_dir in
  let graph = Stage.create ?store ?remote:cfg.remote () in
  let env = { cfg; graph; values = Hashtbl.create 16 } in
  List.iter
    (fun { step = Any s; fingerprint; input_keys; _ } ->
      let value, _ =
        Stage.run graph ~stage:s.name ~codec:s.codec ~config:fingerprint
          ~inputs:input_keys (fun () -> s.compute env)
      in
      put env s.id value)
    steps;
  env

let run cfg : t =
  let env = execute cfg (plan cfg) in
  let atpg_art = get env atpg in
  let vectors = atpg_art.Artifact.vectors in
  let stuck_faults = get env fault_universe in
  let ifa_art = get env layout_ifa in
  let swift_art = get env swift in
  let summary_art = get env projection in
  let scaled_weights, scale_factor = scaled env in
  let theta_curve = theta_curve env in
  {
    cfg;
    mapped_circuit = get env mapping;
    vectors;
    atpg_stats = atpg_art.Artifact.stats;
    stuck_faults;
    sim_stats = (get env fault_sim).Artifact.sim_stats;
    extraction =
      {
        Ifa.layout = layout env;
        faults = ifa_art.Artifact.faults;
        gross_weight = ifa_art.Artifact.gross_weight;
        summaries = ifa_art.Artifact.summaries;
      };
    scale_factor;
    yield = cfg.target_yield;
    scaled_weights;
    t_curve = t_curve env;
    theta_curve;
    gamma_curve = gamma_curve env;
    theta_iddq_curve = theta_iddq_curve env;
    swift_result =
      {
        Swift.faults = ifa_art.Artifact.faults;
        detection = swift_art.Artifact.detection;
        vectors_applied = swift_art.Artifact.vectors_applied;
        region_solves = swift_art.Artifact.region_solves;
      };
    fit =
      fit_of ~r:summary_art.Artifact.fit_r
        ~theta_max:summary_art.Artifact.fit_theta_max
        ~rmse:summary_art.Artifact.fit_rmse
        ~log10:summary_art.Artifact.fit_rmse_log10;
    wafer_mc = find env wafer_mc.id;
    bootstrap_fit =
      Option.map
        (fun (a : Artifact.bootstrap_fit) ->
          Bootstrap.of_samples ~fit_points:a.fit_points
            ~point:
              (fit_of ~r:a.point_r ~theta_max:a.point_theta_max
                 ~rmse:a.point_rmse ~log10:a.point_rmse_log10)
            ~alpha_point:a.alpha_point ~r_samples:a.r_samples
            ~theta_max_samples:a.theta_max_samples
            ~alpha_samples:a.alpha_samples)
        (find env bootstrap_fit.id);
    ndet =
      Option.map
        (fun ndet_n ->
          let a = get env ndet_sim in
          let profile =
            {
              Dl_fault.Fault_sim.faults = stuck_faults;
              drop_after = a.Artifact.nd_drop_after;
              counts = a.nd_counts;
              detections = a.nd_detections;
              vectors_applied = a.nd_vectors_applied;
              gate_evaluations = a.nd_gate_evaluations;
              stats = a.nd_sim_stats;
            }
          in
          let gen = get env ndet_atpg in
          {
            ndet_n;
            profile;
            dl_n =
              Dl_n.analyze ~fit_points:fit_sample_points ~profile ~theta_curve
                ~yield:cfg.target_yield ~n_vectors:(Array.length vectors) ();
            gen_vectors = gen.Artifact.na_vectors;
            gen_counts = gen.Artifact.na_counts;
            gen_stats = gen.Artifact.na_stats;
          })
        cfg.ndet;
    summary = summary_art.Artifact.text;
    stage_reports = Stage.reports env.graph;
  }

(* One stage plus its transitive inputs, nothing else — what a cluster
   worker executes for a [serve-stage] request.  With a warm (or peer-fed)
   store the upstream closure collapses to cache hits and only the
   requested stage computes. *)
let run_stage cfg ~stage =
  let rec close needed (Any s) =
    if List.mem s.name needed then needed
    else List.fold_left close (s.name :: needed) s.inputs
  in
  let needed =
    match List.find_opt (fun s -> name s = stage) table with
    | Some s -> close [] s
    | None ->
        invalid_arg
          (Printf.sprintf "Experiment.run_stage: unknown stage %S" stage)
  in
  let steps =
    List.filter (fun st -> List.mem (name st.step) needed) (plan cfg)
  in
  if not (List.exists (fun st -> name st.step = stage) steps) then
    invalid_arg
      (Printf.sprintf "Experiment.run_stage: the config disables stage %S"
         stage);
  Stage.reports (execute cfg steps).graph

let defect_level_at t k =
  Weighted.defect_level ~yield:t.yield ~theta:(Coverage.at t.theta_curve k)

let sample_ks t ~points =
  Coverage.log_spaced ~max:(Array.length t.vectors) ~points

let coverage_rows t ~ks =
  Array.map
    (fun k ->
      ( k,
        Coverage.at t.t_curve k,
        Coverage.at t.theta_curve k,
        Coverage.at t.gamma_curve k ))
    ks

let dl_vs_t_points t ~ks =
  Array.map (fun k -> (Coverage.at t.t_curve k, defect_level_at t k)) ks

let dl_vs_gamma_points t ~ks =
  Array.map (fun k -> (Coverage.at t.gamma_curve k, defect_level_at t k)) ks

let fit_params t ?(points = fit_sample_points) () =
  fit_curves ~t_curve:t.t_curve ~theta_curve:t.theta_curve
    ~n_vectors:(Array.length t.vectors) ~points

let pp_summary ppf t = Format.pp_print_string ppf t.summary
