(** Switch-level fault simulation of realistic faults (the paper's *swift*
    tool): mixed-mode evaluation with the faulted region solved at switch
    level ({!Solver}) and the fault effect propagated downstream through
    three-valued gate-level simulation.

    Two detection mechanisms are recorded independently per fault:
    - *static voltage*: a primary output settles to a definite wrong value
      (the paper's baseline technique, responsible for [θmax < 1]);
    - *IDDQ*: the defect causes a quiescent rail-to-rail current
      (bridges/stuck-ons under opposing drive, floating-gate opens). *)

type detection = {
  voltage : int option;  (** First vector index detecting by voltage. *)
  iddq : int option;     (** First vector index detecting by current. *)
}

type result = {
  faults : Realistic.t array;
  detection : detection array;
  vectors_applied : int;
  region_solves : int;
      (** Work metric: logical switch-level region evaluations, counting
          those answered from the memo. *)
}

val run :
  ?drop_when:[ `Voltage | `Both | `Never ] ->
  ?on_voltage_detect:(fault_index:int -> vector_index:int -> unit) ->
  Network.t ->
  faults:Realistic.t array ->
  vectors:bool array array ->
  result
(** Simulate every fault against the ordered vector sequence.  [drop_when]
    controls fault dropping: [`Voltage] stops simulating a fault once
    voltage-detected (fastest), [`Both] once both mechanisms have fired
    (default; exact first-detection data for both curves), [`Never] runs
    everything (dictionary-grade data).

    Each region is compiled once ({!Solver.make}) and its solves go through
    a {!Memo} table keyed by the region's input and charge slots; regions
    of equal {!Solver.shape} share one table, which is cleared when the
    last fault using it drops. *)

(** The engine as first written: the same loop over {!Solver.Reference},
    with no memo.  Kept as the oracle for {!run}, which must equal it in
    [detection] and [region_solves]. *)
module Reference : sig
  val run :
    ?drop_when:[ `Voltage | `Both | `Never ] ->
    ?on_voltage_detect:(fault_index:int -> vector_index:int -> unit) ->
    Network.t ->
    faults:Realistic.t array ->
    vectors:bool array array ->
    result
end

val weighted_coverage : result -> Dl_fault.Coverage.t
(** Θ(k): voltage-detection coverage weighted by fault weights (eq. 6). *)

val unweighted_coverage : result -> Dl_fault.Coverage.t
(** Γ(k): same detections with every fault weighted equally. *)

val iddq_weighted_coverage : result -> Dl_fault.Coverage.t
(** Θ(k) when an IDDQ measurement accompanies every vector (detection =
    earlier of voltage/current). *)

val signature : Network.t -> fault:Realistic.t -> vectors:bool array array -> bool array
(** Per-vector tester signature of one fault under the full ordered
    sequence ([true] = the vector fails), with charge continuity preserved
    for sequential (stuck-open) behaviour.  Input to diagnosis. *)

val good_values : Network.t -> bool array array -> bool array array
(** [good_values net vectors]: fault-free circuit response, one bool per
    circuit node per vector (gate-level; exposed for tests and examples). *)
