(** The oracle registry: named differential and metamorphic checks.

    A [Case] check judges one generated {!Testcase} — typically by running
    two or more engines that must agree bit-for-bit.  A [Sweep] check is
    self-contained (a numeric equation sweep, or the cached-vs-uncached
    pipeline differential) and runs once per harness invocation.

    Checks return [None] for pass or [Some message] naming the first
    disagreement precisely enough to debug from. *)

type kind =
  | Case of (Testcase.t -> string option)
  | Sweep of (seed:int -> string option)

type t = { name : string; doc : string; kind : kind }

val all : t list
(** Every registered check, in display order:
    - ["sim2-flat"]: {!Dl_logic.Sim2.run} vs {!Dl_logic.Sim2.run_flat}
      on every node word, including 1..63-vector tail blocks;
    - ["fault-sim"]: {!Dl_fault.Fault_sim.run} vs [Reference.run] vs
      [run_parallel] (several widths, including wider than the fault
      universe), both drop modes, plus [on_detect] event streams and
      evaluation counts;
    - ["event-propagate"]: {!Dl_logic.Event_sim} vs {!Dl_logic.Propagate}
      vs {!Dl_logic.Sim2.run_single} across a vector sequence;
    - ["sim3-binary"]: {!Dl_logic.Sim3.run} equals two-valued simulation
      when no input is X;
    - ["swift-reference"]: {!Dl_switch.Swift.run} vs
      [Swift.Reference.run] on a seeded sample of every realistic fault
      kind over the case's circuit mapped to cells (vectors extended with
      held and alternating pairs, for stuck-open charge retention):
      detections, [region_solves] and voltage-detection event streams
      under every drop rule, and every fault's {!Dl_switch.Swift.signature};
      then a multi-cell region whose memo key is wider than an int, solved
      through {!Dl_switch.Memo} against {!Dl_switch.Solver.Reference};
    - ["swift-open-stuck"]: every input and stem open floating low (high)
      has the per-vector voltage detections ({!Dl_switch.Swift.signature})
      of the matching stuck-at-0 (1) under PPSFP without dropping;
    - ["coverage-monotone"], ["collapse-classes"]: case-level metamorphic
      properties (see {!Metamorphic});
    - ["eq11-wb"], ["eq9-theta"], ["eq11-dl"], ["yield-weights"],
      ["required-coverage"]: equation sweeps (see {!Metamorphic});
    - ["experiment-cache"]: cached and uncached
      {!Dl_core.Experiment.run} produce identical results and a warm
      cache hits every stage;
    - ["serve-loopback"]: an answer served by {!Dl_serve.Server} over a
      Unix-socket loopback is bit-identical to a direct
      {!Dl_core.Experiment.run} of the same config, and an identical
      resubmission is coalesced, not re-executed;
    - ["mc-poisson-limit"]: {!Dl_core.Wafer_mc.simulate} with both alphas
      infinite recovers the Poisson closed form
      {!Dl_core.Weighted.defect_level} within the per-wafer sampling
      error, with ordered band quantiles;
    - ["mc-clustered-consistency"]: single-level clustered simulation
      matches {!Dl_core.Clustered.defect_level} against the implied
      negative-binomial yield for several alphas;
    - ["bootstrap-coverage"]: the 90% {!Dl_core.Bootstrap} intervals on
      [(R, θmax)] cover a synthetic eq. 9 ground truth in at least 7 of
      12 independent trials;
    - ["ndet-1detect"]: {!Dl_fault.Fault_sim.run_ndet} at [drop_after:1]
      is bit-identical to the dropping single-detection run on every
      engine, with an equal n = 1 coverage curve;
    - ["ndet-monotone"]: a lower quota is a pure truncation of a higher
      one (counts, k-th detection indices), per-fault detection indices
      strictly increase in k, and T{_n}(k) is pointwise non-increasing
      in n;
    - ["ndet-dl-monotone"]: the {!Dl_core.Dl_n} table over a synthetic
      weighted Θ stand-in has DL@T* non-increasing and k@T*
      non-decreasing in n, every row reaching the shared target. *)

val find : string -> t option
val names : unit -> string list
