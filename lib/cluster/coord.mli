(** The fleet coordinator: speaks {!Dl_serve.Protocol} on its listen
    endpoint and relays each request to one of N registered worker
    daemons, chosen by consistent-hashing the request's stage key
    ({!Hash_ring}).

    Placement policy, in order:
    - the key's {e home} worker (ring successor) — so identical requests
      land on the node that already holds, or is already computing, the
      artifact;
    - {e work stealing}: when the home worker's load (coordinator-side
      in-flight + last probed queue depth) exceeds the least-loaded live
      worker's by more than [steal_margin], the cold worker takes the
      job — a hot shard spills instead of queueing;
    - a per-worker in-flight cap ([max_in_flight]); the relay blocks
      until some live worker is under its cap.

    Fault handling: a connect failure or mid-frame hangup ejects the
    worker and re-dispatches the request to the next live one (jobs are
    re-run, never lost — results are content-addressed so a re-run is
    bit-identical).  A background prober [Get_stats]s every worker each
    [probe_period_s]: repeated failures eject a node, one success
    readmits it and refreshes its queue depth. *)

type config = {
  listen : Dl_serve.Transport.endpoint;
  workers : Dl_serve.Transport.endpoint list;
  max_in_flight : int;      (** Per-worker outstanding-dispatch cap. *)
  probe_period_s : float;
  fanout_stages : bool;
      (** Fan a [Submit] out as [serve-stage] waves ({!fanout_waves})
          across the ring before relaying the final submit — the
          distributed store then serves the submit's stages as
          hits/fetches. *)
  max_frame : int;
  connect_timeout_s : float;
  steal_margin : int;
}

val config :
  ?max_in_flight:int -> ?probe_period_s:float -> ?fanout_stages:bool ->
  ?max_frame:int -> ?connect_timeout_s:float -> ?steal_margin:int ->
  listen:Dl_serve.Transport.endpoint ->
  workers:Dl_serve.Transport.endpoint list -> unit -> config
(** Defaults: 4 in-flight per worker, 1 s probes, no stage fan-out,
    {!Dl_serve.Protocol.default_max_frame}, 2 s connects, steal margin 2.
    @raise Invalid_argument on an empty worker list. *)

val fanout_waves : Dl_core.Experiment.config -> string list list
(** The [serve-stage] waves of a fanned-out submit, derived from the stage
    DAG ({!Dl_core.Experiment.stage_inputs}): the topological levels of
    every stage the config enables, each stage one level above its deepest
    input, in execution order within a level. *)

type t

val start : config -> t
(** Bind, start the accept loop and the health prober, return.  Workers
    need not be up yet — dispatch ejects the dead and the prober readmits
    them once they answer. *)

val bound : t -> Dl_serve.Transport.endpoint
(** Resolves an ephemeral [Tcp (host, 0)] listen port. *)

val workers_alive : t -> string list
(** Endpoint strings of workers currently considered live. *)

val stats : t -> Dl_serve.Protocol.stats
(** Coordinator-side counters; [queue_depth]/[in_flight] aggregate the
    live workers. *)

val stop : t -> unit
(** Stop accepting, drain relay connections, join all threads.  Workers
    are left running (they are independent daemons). *)

val run : ?on_ready:(t -> unit) -> config -> unit
(** {!start}, then block until a [Shutdown] request or SIGINT/SIGTERM,
    then {!stop} — the body of [dlproj coord]. *)
