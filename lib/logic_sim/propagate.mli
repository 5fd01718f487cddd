(** Three-valued downstream propagation of fault effects: evaluate only the
    fanout cone of a set of overridden nodes against known fault-free
    values.  Shared by the switch-level simulators and the gate-level
    bridging-fault model. *)

open Dl_netlist

val run :
  Circuit.t -> bool array -> (int * Ternary.t) list ->
  (int, Ternary.t) Hashtbl.t
(** [run c good seeds] evaluates the fanout cone of the seed overrides
    against the fault-free values [good] (one bool per node) and returns
    the sparse map of nodes whose faulty value differs (or is X).  A
    one-shot wrapper over a fresh {!scratch}. *)

val po_detects :
  Circuit.t -> bool array -> (int, Ternary.t) Hashtbl.t -> bool
(** Whether some primary output settles to a definite wrong value. *)

(** {2 Reusable scratch}

    The same propagation on buffers allocated once per circuit: a caller
    that propagates many times (one call per fault per vector) runs
    {!reset}, then {!seed} for each override, then {!settle}, and reads
    the resulting map through {!value} and {!detects}.  The map holds
    exactly the entries {!run} would return. *)

type scratch

val scratch : Circuit.t -> scratch

val reset : scratch -> unit
(** Empty the faulty-value map. *)

val seed : scratch -> bool array -> int -> Ternary.t -> unit
(** [seed s good id v] overrides node [id] with [v] (a no-op when [v] is
    its fault-free value) and queues its fanout.  Follow the seeds with
    {!settle}. *)

val settle : scratch -> bool array -> unit
(** Evaluate the queued fanout cone. *)

val value : scratch -> bool array -> int -> Ternary.t
(** The node's faulty value, or its fault-free value when not in the map. *)

val detects : scratch -> bool array -> bool
(** {!po_detects} on the scratch's map. *)
