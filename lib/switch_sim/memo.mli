(** Memo tables over compiled region solves.

    A region's outcome is a function of its input and charge slots alone
    ({!Solver.solve_slots}), so a table keyed by those values is exact.
    Keys pack two bits per ternary into an [int] when they fit (at most
    31 slots), and into a string otherwise; outcomes pack the reported
    values and the fight bit the same way.  One table may serve every
    region of one {!Solver.shape}. *)

type t

val create : unit -> t

val clear : t -> unit
(** Drop every entry, releasing the table's storage. *)

val solve :
  t -> Solver.t -> inputs:Dl_logic.Ternary.t array ->
  charges:Dl_logic.Ternary.t array -> values:Dl_logic.Ternary.t array -> bool
(** {!Solver.solve_slots}, answered from the table when the same slots were
    solved before (by this region or another of the same shape). *)
