(** The paper's end-to-end experiment (section 3): netlist → standard-cell
    layout → layout fault extraction (*lift*) → stuck-at ATPG (random
    prefix + deterministic top-up) → gate-level stuck-at fault simulation
    [T(k)] and switch-level realistic fault simulation [Θ(k), Γ(k)] over
    the same vector sequence → defect-level projection and model fitting.

    One [run] produces everything Figs. 3-6 plot.

    [run] executes as an incremental stage graph ({!Dl_store.Stage}):
    mapping → atpg → fault-universe → fault-sim → layout-ifa → swift →
    projection, then the optional stages.  The graph is declared once, as
    the stage table in [experiment.ml]; key planning, [run], [run_stage]
    and the cluster coordinator's fan-out waves all derive from it.  With
    [cache_dir] set, every stage artifact is persisted content-addressed
    ({!Dl_store.Store}) and a re-run recomputes only the stages whose
    inputs or config actually changed — re-projecting at a different yield
    or sampling resolution reuses every simulation artifact. *)

open Dl_netlist

(** Monte-Carlo wafer-simulation knobs (the optional [wafer-mc] stage). *)
type mc = {
  mc_dies : int;             (** Total dies to simulate. *)
  mc_dies_per_wafer : int;
  mc_wafers_per_lot : int;
  mc_alpha_wafer : float;    (** Wafer-level clustering; [infinity] = none. *)
  mc_alpha_lot : float;      (** Lot-level clustering; [infinity] = none. *)
  mc_points : int;           (** Coverage points of the DL(T) band grid. *)
}

val mc :
  ?dies_per_wafer:int -> ?wafers_per_lot:int -> ?alpha_wafer:float ->
  ?alpha_lot:float -> ?points:int -> dies:int -> unit -> mc
(** Defaults: 256 dies per wafer, 4 wafers per lot, both alphas infinite
    (pure Poisson — the paper's model), 25 band points.
    @raise Invalid_argument on non-positive values. *)

type config = {
  circuit : Circuit.t;
  seed : int;
  max_random_vectors : int;
  target_yield : float;
      (** The extracted yield is rescaled to this value (paper: 0.75).
          Affects only the projection stage key — never a simulation. *)
  stats : Dl_extract.Defect_stats.t;
  min_weight_ratio : float;
      (** Realistic-fault pruning threshold (see {!Dl_extract.Ifa.extract}). *)
  rows : int option;  (** Layout row override. *)
  domains : int;
      (** Domain count for the gate-level fault simulation
          ({!Dl_fault.Fault_sim.run_parallel}); results are independent of
          this value, so it is excluded from every stage key. *)
  pool : Dl_util.Parallel.t option;
      (** When set, the fault simulation runs on this existing domain pool
          instead of spawning [domains] fresh ones — the serving path
          ({!Dl_serve}) keeps one long-lived pool per scheduler worker.
          Results are independent of the pool, so (like [domains]) it is
          excluded from every stage key. *)
  collapse_faults : bool;
      (** [true] (default): simulate the equivalence-collapsed stuck-at
          universe — one representative per class, every class weighing
          the same in T(k); this is what ATPG targets and is cheaper to
          simulate.  [false]: the paper-faithful uncollapsed universe —
          every line fault counts individually, so larger equivalence
          classes weigh proportionally more in the coverage denominator.
          The two coverage definitions agree in the limit (both reach 1 on
          a complete test set once redundant faults are excluded) but
          differ at intermediate [k]. *)
  sim_engine : Dl_fault.Fault_sim.engine;
      (** PPSFP engine variant for the gate-level fault simulation (default
          [Wide]).  Detection results are engine-independent, but the
          variant IS part of the fault-sim stage key: the cached artifact
          carries per-engine {!Dl_fault.Fault_sim.Stats} counters, so two
          engines must never alias one cache entry. *)
  cache_dir : string option;
      (** Root of the content-addressed artifact store; [None] (default)
          disables persistence (stages still execute and report keys). *)
  remote : Dl_store.Stage.remote option;
      (** Peer store tier for cluster fetch-through ({!Dl_cluster}): a
          local stage miss first asks peer stores, and a computed artifact
          is pushed to its key's home node.  Best-effort and
          result-invisible, so (like [pool]) it is excluded from every
          stage key. *)
  mc : mc option;
      (** When set, run the [wafer-mc] stage ({!Wafer_mc}).  The knobs
          fingerprint only that stage's key — toggling or re-tuning the MC
          never invalidates a simulation artifact. *)
  bootstrap : int option;
      (** When set, run the [bootstrap-fit] stage ({!Bootstrap}) with this
          many replicates.  Fingerprints only the bootstrap-fit key. *)
  ndet : int option;
      (** When set (the detection quota n), run the [ndet-sim] and
          [ndet-atpg] stages ({!Dl_ndet}): a multi-detect profile of the
          atpg sequence (yielding the DL(n) table for every n' <= n) plus
          a registered n-detection test set.  Fingerprints only the two
          ndet stage keys. *)
}

val config : ?seed:int -> ?max_random_vectors:int -> ?target_yield:float ->
  ?stats:Dl_extract.Defect_stats.t -> ?min_weight_ratio:float ->
  ?rows:int -> ?domains:int -> ?pool:Dl_util.Parallel.t ->
  ?collapse_faults:bool -> ?sim_engine:Dl_fault.Fault_sim.engine ->
  ?cache_dir:string -> ?remote:Dl_store.Stage.remote ->
  ?mc:mc -> ?bootstrap:int -> ?ndet:int -> Circuit.t -> config
(** Defaults: seed 7, 4096 random vectors, yield 0.75, Maly statistics, no
    pruning, [Domain.recommended_domain_count ()] domains (or [pool], which
    takes precedence), collapsed fault universe, [Wide] fault-sim engine,
    no cache, no Monte-Carlo stage, no bootstrap stage, no n-detection
    stages.  This is the one gate both the CLI and served job specs pass
    through, so it rejects every bad value before anything is keyed or
    queued.
    @raise Invalid_argument when [target_yield] is outside (0, 1),
    [domains] < 1, [max_random_vectors] < 0, [min_weight_ratio] is NaN or
    outside \[0, 1\], [rows] < 1, [bootstrap] < 1 or [ndet] < 1. *)

val stage_keys : config -> (string * string) list
(** [(stage, key)] for every stage the config enables, in execution order,
    derived from the config alone — no stage is executed.  These are
    exactly the keys in {!t.stage_reports} of {!run} and of {!run_stage}
    on the same config.  Every stage's key digests its name, its codec
    kind/version, its config fingerprint and its input stages' keys; the
    root of the digest DAG is the content key of [cfg.circuit], and
    [domains], [pool], [remote] and [cache_dir] influence nothing.  The
    base pipeline has seven stages; the optional [wafer-mc] /
    [bootstrap-fit] / [ndet-sim] / [ndet-atpg] stages follow (up to
    eleven) only when [cfg.mc] / [cfg.bootstrap] / [cfg.ndet] are set,
    and their knobs fingerprint only their own keys. *)

val stage_inputs : config -> (string * string list) list
(** [(stage, input stages)] for every stage the config enables, in
    execution order: the edges of the stage DAG.  Execution order is a
    topological order, so every input appears before the stages reading
    it.  The root stage ([mapping]) has no stage inputs; its key digests
    the circuit instead. *)

val request_key : config -> string
(** The ["projection"] stage key: a single digest of everything that can
    change the core pipeline result of {!run} (circuit content, seed,
    vector budget, fault-universe mode, defect statistics, layout rows,
    pruning threshold, target yield).  Two configs with equal
    [request_key] produce bit-identical experiments — the coalescing key
    of {!Dl_serve}.  The optional statistical stages are not part of it;
    their own stage keys play that role for their artifacts. *)

(** The n-detection extension's live result (when [cfg.ndet] is set).
    [profile] is the multi-detect simulation of the SAME vector sequence
    the 1-detection flow applies — its n = 1 slice is bit-identical to
    {!t.t_curve}'s first detections — and [dl_n] the DL(n) table built
    from it; [gen_*] is the separately generated n-detection test set. *)
type ndet_result = {
  ndet_n : int;  (** = the configured quota. *)
  profile : Dl_fault.Fault_sim.ndet;
  dl_n : Dl_n.t;
  gen_vectors : bool array array;
  gen_counts : int array;  (** Per-fault counts on [gen_vectors], capped. *)
  gen_stats : Dl_ndet.Atpg_n.stats;
}

type t = {
  cfg : config;
  mapped_circuit : Circuit.t;  (** After decomposition for the cell library. *)
  vectors : bool array array;  (** The ATPG vector sequence, in order. *)
  atpg_stats : Dl_atpg.Atpg.stats;
  stuck_faults : Dl_fault.Stuck_at.t array;
      (** The simulated universe: collapsed representatives, or the full
          line-fault universe when [collapse_faults = false] (minus
          PODEM-proved-redundant classes in both cases). *)
  sim_stats : Dl_fault.Fault_sim.Stats.t;
      (** Engine counters of the gate-level fault-sim stage (cached with
          the detections artifact, so available on warm runs too). *)
  extraction : Dl_extract.Ifa.extraction;
  scale_factor : float;        (** Weight scaling applied for target yield. *)
  yield : float;               (** = [cfg.target_yield]. *)
  scaled_weights : float array;  (** Per realistic fault, after scaling. *)
  t_curve : Dl_fault.Coverage.t;       (** Stuck-at coverage T(k). *)
  theta_curve : Dl_fault.Coverage.t;   (** Weighted realistic Θ(k), voltage. *)
  gamma_curve : Dl_fault.Coverage.t;   (** Unweighted realistic Γ(k). *)
  theta_iddq_curve : Dl_fault.Coverage.t;
      (** Θ(k) when IDDQ accompanies every vector. *)
  swift_result : Dl_switch.Swift.result;
  fit : Projection.fit;
      (** The eq. 9 fit over {!fit_params}'s default sampling (cached with
          the projection stage). *)
  wafer_mc : Wafer_mc.t option;
      (** Monte-Carlo DL(T) bands when [cfg.mc] is set (cached as the
          [wafer-mc] stage, seeded from [cfg.seed]). *)
  bootstrap_fit : Bootstrap.t option;
      (** Bootstrap CIs on [(R, θmax)] and the clustering alpha when
          [cfg.bootstrap] is set (cached as the [bootstrap-fit] stage). *)
  ndet : ndet_result option;
      (** The n-detection profile, DL(n) table and generated test set when
          [cfg.ndet] is set (cached as the [ndet-sim] / [ndet-atpg]
          stages). *)
  summary : string;            (** What {!pp_summary} prints. *)
  stage_reports : Dl_store.Stage.report list;
      (** Per-stage key / hit-miss / timing of this run, execution order. *)
}

val run : config -> t

val run_stage : config -> stage:string -> Dl_store.Stage.report list
(** Execute one named stage (a {!stage_keys} name) plus its transitive
    inputs, nothing else — the unit of work a cluster coordinator fans
    out.  With a warm or peer-fed store the upstream closure collapses to
    cache hits.  Returns the reports of exactly that closure in execution
    order, the requested stage last, with the keys of {!stage_keys}.
    @raise Invalid_argument on an unknown stage name, or on an optional
    stage the config does not enable. *)

val defect_level_at : t -> int -> float
(** [DL(Θ(k))] through eq. 3 with the scaled yield: the quantity the paper
    treats as the actual defect level. *)

val coverage_rows : t -> ks:int array -> (int * float * float * float) array
(** Fig. 4 data: [(k, T(k), Θ(k), Γ(k))]. *)

val dl_vs_t_points : t -> ks:int array -> (float * float) array
(** Fig. 5 scatter: [(T(k), DL(Θ(k)))]. *)

val dl_vs_gamma_points : t -> ks:int array -> (float * float) array
(** Fig. 6 scatter: [(Γ(k), DL(Θ(k)))]. *)

val fit_params : t -> ?points:int -> unit -> Projection.fit
(** Fit [(R, θmax)] on the [(T(k), Θ(k))] relation (eq. 9) over log-spaced
    sample counts (default 100).  At the default resolution this equals
    [t.fit]. *)

val sample_ks : t -> points:int -> int array
(** Log-spaced vector counts covering the applied sequence. *)

val pp_summary : Format.formatter -> t -> unit
