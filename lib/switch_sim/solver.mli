(** Steady-state switch-level solver for a faulted region of the chip.

    The region is a small transistor sub-network (the faulted cell, or the
    two cells joined by a bridge).  Nodes are resolved by drive-strength
    path analysis: conductance is the reciprocal of the series resistance
    of the best on-path to a rail (NMOS channels are stronger than PMOS,
    external pad drivers stronger still), opposing definite paths make a
    *fight* (static IDDQ current) whose winner is the stronger side,
    undriven nodes retain their charge from the previous vector — which is
    exactly the memory effect that makes transistor stuck-opens require
    two-pattern tests. *)

open Dl_logic

type modification =
  | Remove_transistor of int
      (** Global transistor index: models a stuck-open device. *)
  | Short_transistor of int
      (** Channel permanently conducting: a stuck-on device /
          gate-oxide short. *)
  | Bridge_nodes of { node_a : int; node_b : int }
      (** Hard (zero-resistance) short between two network nodes. *)
  | Resistive_bridge of { node_a : int; node_b : int; resistance : float }
      (** Short with a finite resistance in units of the NMOS channel
          resistance: large values weaken the coupling until the bridge
          stops flipping logic (its critical resistance). *)

type t
(** A region compiled once into flat arrays: per-edge gate sources (a
    local node, a rail, or a slot of the region's external input vector),
    per-node adjacency, and the ordered input and charge slots. *)

val make :
  Network.t -> instances:int list -> modifications:modification list -> t
(** Build a region over the given cell instances.  Bridged nodes that are
    primary-input signals get an implicit strong external driver. *)

val nodes : t -> int list
(** Global ids of all nodes resolved by this region (charge state should be
    kept for these). *)

val observable_nodes : t -> int list
(** {!nodes} plus bridged pad-driven primary-input nodes: every node whose
    resolved value should be propagated downstream. *)

type outcome = {
  values : (int * Ternary.t) list;
      (** Resolved value per region node (global ids), including cell
          outputs to propagate downstream. *)
  fight : bool;
      (** A definite rail-to-rail (or driver-to-rail) conducting path
          exists: elevated quiescent current, observable by IDDQ testing. *)
}

val solve :
  t ->
  external_value:(int -> Ternary.t) ->
  charge:(int -> Ternary.t) ->
  outcome
(** [external_value] supplies values of nodes outside the region (gate
    terminals, bridged PI drivers); [charge] supplies the previous-vector
    value of region nodes for floating-node retention ([Ternary.VX] for an
    unknown initial state).  Both must be pure: each is read once per
    solve, for {!input_nodes} and {!nodes} respectively.

    Diagnostics: set the [DL_SOLVER_DEBUG] environment variable (read once,
    at start-up) to trace every relaxation round (per-node rail distances,
    edge conduction) on stderr. *)

(** {2 Slot interface}

    [solve] with its reads made explicit: the outcome is a function of the
    input slots and the charge slots alone, which is what makes memoizing
    it exact (see {!Memo}). *)

val input_nodes : t -> int array
(** Global ids of the external nodes the region reads, one per input
    slot: pad-driven bridged PIs first, then gate terminals outside the
    region. *)

val charge_count : t -> int
(** Number of charge slots: the nodes of {!nodes}, in that order. *)

val report_count : t -> int
(** Number of reported values: the nodes of {!observable_nodes}, in that
    order. *)

val shape : t -> string
(** The compiled form with global ids abstracted away.  Regions of equal
    shape compute the same function from slots to outcome, so they can
    share one memo table. *)

val solve_slots :
  t -> inputs:Ternary.t array -> charges:Ternary.t array ->
  values:Ternary.t array -> bool
(** [solve_slots t ~inputs ~charges ~values] writes the resolved value of
    each observable node into [values] (length {!report_count}) and
    returns the fight flag.  [inputs] has one value per {!input_nodes}
    entry, [charges] one per charge slot. *)

(** The solver as first written, interpreted from its edge list on every
    call; kept verbatim as the oracle for the compiled kernel. *)
module Reference : sig
  type t

  val make :
    Network.t -> instances:int list -> modifications:modification list -> t

  val nodes : t -> int list
  val observable_nodes : t -> int list

  val solve :
    t ->
    external_value:(int -> Ternary.t) ->
    charge:(int -> Ternary.t) ->
    outcome
end
