(** Typed binary codecs for every pipeline artifact the stage graph
    caches: circuits, pattern sets, stuck-at universes, per-fault
    detection results, IFA extraction output and experiment summaries.

    All codecs are exact round-trips: floats are stored bit-for-bit and
    circuits are rebuilt through {!Dl_netlist.Circuit.Builder} in original
    node-id order, so the decoded circuit is structurally equal to the
    encoded one (same ids, levels and topological order — the derived
    fields are deterministic functions of the declarations). *)

open Dl_netlist

val circuit : Circuit.t Codec.t

val patterns : bool array array Codec.t
(** Test-vector sequences, bit-packed 8 vectors' bits per byte. *)

val stuck_faults : Dl_fault.Stuck_at.t array Codec.t

(** ATPG stage output ({!Dl_atpg.Atpg.result} itself): the ordered vector
    sequence plus the flow statistics and the redundancy verdicts
    downstream stages filter on. *)
type atpg = Dl_atpg.Atpg.result = {
  vectors : bool array array;
  stats : Dl_atpg.Atpg.stats;
  coverage : float;
  untestable_faults : Dl_fault.Stuck_at.t array;
  aborted_faults : Dl_fault.Stuck_at.t array;
}

val atpg : atpg Codec.t

(** Gate-level fault-simulation output, minus the fault list (which is the
    separately-cached universe artifact the detections are parallel to).
    Version 2 appends the engine counters ({!Dl_fault.Fault_sim.Stats.t}),
    so [--sim-stats] reporting works from a warm cache too. *)
type detections = {
  first_detection : int option array;
  vectors_applied : int;
  gate_evaluations : int;
  sim_stats : Dl_fault.Fault_sim.Stats.t;
}

val detections : detections Codec.t

(** IFA extraction output minus the layout geometry: the weighted
    realistic fault list and the per-class accounting.  The layout itself
    is re-synthesized deterministically from the mapped circuit on a warm
    run (cheap), so it is not persisted. *)
type ifa = {
  faults : Dl_switch.Realistic.t array;
  gross_weight : float;
  summaries : Dl_extract.Ifa.class_summary list;
}

val ifa : ifa Codec.t

(** Switch-level (swift) simulation output, parallel to the IFA fault
    list. *)
type swift = {
  detection : Dl_switch.Swift.detection array;
  vectors_applied : int;
  region_solves : int;
}

val swift : swift Codec.t

(** Experiment summary: the rendered one-paragraph summary plus the
    fitted eq. 9 parameters and the yield-scaling factor. *)
type summary = {
  text : string;
  fit_r : float;
  fit_theta_max : float;
  fit_rmse : float;
  fit_rmse_log10 : bool;  (** [true]: rmse in log10 units (see
                              {!Dl_core.Projection.rmse_scale}). *)
  scale_factor : float;
}

val summary : summary Codec.t

(** One coverage point of a Monte-Carlo DL(T) band
    ({!Dl_core.Wafer_mc.band} is this type). *)
type wafer_mc_band = {
  k : int;
  coverage : float;
  dl_point : float;
  dl_q05 : float;
  dl_q50 : float;
  dl_q95 : float;
  passed : int;
  defective_passed : int;
  wafer_dls : float array;
}

(** Monte-Carlo wafer/lot simulation output (the [wafer-mc] stage;
    {!Dl_core.Wafer_mc.t} is this type). *)
type wafer_mc = {
  dies : int;
  dies_per_wafer : int;
  wafers_per_lot : int;
  wafers : int;
  lots : int;
  alpha_wafer : float;
  alpha_lot : float;
  defective : int;
  bands : wafer_mc_band array;
}

val wafer_mc : wafer_mc Codec.t

(** Bootstrap refit output (the [bootstrap-fit] stage): the full-data
    point estimates plus the per-replicate parameter samples — the
    percentile intervals are recomputed from the samples on decode
    ({!Dl_core.Bootstrap.of_samples}), so the two can never disagree. *)
type bootstrap_fit = {
  fit_points : int;
  point_r : float;
  point_theta_max : float;
  point_rmse : float;
  point_rmse_log10 : bool;
  alpha_point : float;
  r_samples : float array;
  theta_max_samples : float array;
  alpha_samples : float array;
}

val bootstrap_fit : bootstrap_fit Codec.t

(** Multi-detect simulation output (the [ndet-sim] stage), minus the fault
    list — like {!detections}, the counts and detection indices are
    parallel to the separately-cached universe artifact.  [nd_detections]
    is row-major [faults * drop_after] with [-1] for "never reached the
    k-th detection" (mirrors {!Dl_fault.Fault_sim.ndet}). *)
type ndet_profile = {
  nd_drop_after : int;
  nd_counts : int array;
  nd_detections : int array;
  nd_vectors_applied : int;
  nd_gate_evaluations : int;
  nd_sim_stats : Dl_fault.Fault_sim.Stats.t;
}

val ndet_profile : ndet_profile Codec.t

(** n-detection test-generation output (the [ndet-atpg] stage; mirrors
    {!Dl_ndet.Atpg_n.result}). *)
type ndet_atpg = {
  na_vectors : bool array array;
  na_counts : int array;
  na_stats : Dl_ndet.Atpg_n.stats;
  na_untestable_faults : Dl_fault.Stuck_at.t array;
  na_aborted_faults : Dl_fault.Stuck_at.t array;
}

val ndet_atpg : ndet_atpg Codec.t

val current_versions : (string * int) list
(** [(kind, version)] for every codec above — what {!Store.gc} uses to
    drop artifacts whose format byte is stale. *)

val defect_stats_fingerprint : Dl_extract.Defect_stats.t -> string
(** Canonical digest of the non-zero defect classes (name, density, x0):
    the config fingerprint of the layout-IFA stage. *)
