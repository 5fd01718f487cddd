module Protocol = Dl_serve.Protocol
module Client = Dl_serve.Client
module Transport = Dl_serve.Transport
module Metrics = Dl_serve.Metrics
module Experiment = Dl_core.Experiment
module Benchmarks = Dl_netlist.Benchmarks
module Bench_format = Dl_netlist.Bench_format

type config = {
  listen : Transport.endpoint;
  workers : Transport.endpoint list;
  max_in_flight : int;
  probe_period_s : float;
  fanout_stages : bool;
  max_frame : int;
  connect_timeout_s : float;
  steal_margin : int;
}

let config ?(max_in_flight = 4) ?(probe_period_s = 1.0)
    ?(fanout_stages = false) ?(max_frame = Protocol.default_max_frame)
    ?(connect_timeout_s = 2.0) ?(steal_margin = 2) ~listen ~workers () =
  if workers = [] then invalid_arg "Coord.config: no workers";
  if max_in_flight < 1 then invalid_arg "Coord.config: max_in_flight < 1";
  {
    listen;
    workers;
    max_in_flight;
    probe_period_s;
    fanout_stages;
    max_frame;
    connect_timeout_s;
    steal_margin;
  }

type wstate = {
  w_name : string;  (* endpoint string; the ring member id *)
  w_endpoint : Transport.endpoint;
  mutable alive : bool;
  mutable in_flight : int;          (* dispatches we have outstanding *)
  mutable probe_queue_depth : int;  (* from the last health probe *)
  mutable consecutive_failures : int;
}

type conn = {
  fd : Unix.file_descr;
  mutable thread : Thread.t option;
  mutable closed : bool;
}

type state = Serving | Stopped

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Transport.endpoint;
  ring : Hash_ring.t;
  table : (string, wstate) Hashtbl.t;
  order : wstate list;
  metrics : Metrics.t;
  mutex : Mutex.t;
  cond : Condition.t;
  stop_flag : bool Atomic.t;
  mutable conns : conn list;
  mutable state : state;
  mutable accept_thread : Thread.t option;
  mutable prober : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- worker selection ----------------------------------------------------- *)

let load w = w.in_flight + w.probe_queue_depth

let mark_dead t w =
  locked t (fun () ->
      w.alive <- false;
      w.consecutive_failures <- w.consecutive_failures + 1;
      Condition.broadcast t.cond)

let release t w =
  locked t (fun () ->
      w.in_flight <- w.in_flight - 1;
      Condition.broadcast t.cond)

(* Pick a worker for [key]: the key's home node by default, stolen by the
   least-loaded live worker when the home shard is hot (load difference
   beyond [steal_margin]).  Blocks while every eligible worker is at its
   in-flight cap; [None] once no live untried worker remains. *)
let acquire t ~key ~tried =
  locked t (fun () ->
      let rec go () =
        if Atomic.get t.stop_flag then None
        else
          let usable =
            List.filter
              (fun w -> w.alive && not (Hashtbl.mem tried w.w_name))
              t.order
          in
          if usable = [] then None
          else
            let ready =
              List.filter (fun w -> w.in_flight < t.cfg.max_in_flight) usable
            in
            match ready with
            | [] ->
                Condition.wait t.cond t.mutex;
                go ()
            | first :: rest ->
                let best =
                  List.fold_left
                    (fun acc w -> if load w < load acc then w else acc)
                    first rest
                in
                let home =
                  List.find_map
                    (fun m ->
                      List.find_opt (fun w -> w.w_name = m) ready)
                    (Hash_ring.route t.ring key)
                in
                let chosen =
                  match home with
                  | Some h when load h - load best > t.cfg.steal_margin ->
                      best
                  | Some h -> h
                  | None -> best
                in
                chosen.in_flight <- chosen.in_flight + 1;
                Some chosen
      in
      go ())

let worker_rpc t w request =
  Client.with_client ~max_frame:t.cfg.max_frame
    ~connect_timeout_s:t.cfg.connect_timeout_s w.w_endpoint
    (fun c -> Client.rpc c request)

(* Relay one request, surviving worker deaths: a connection failure (or a
   mid-frame hangup — the worker died while computing) ejects the worker
   and re-dispatches the same request to the next live one, so a job is
   re-run, never lost.  A [Rejected] answer is held while colder workers
   are tried; if every live worker rejects, the last rejection (with its
   [retry_after_ms]) goes back to the client. *)
let dispatch t ~key request =
  let tried = Hashtbl.create 4 in
  let rec attempt last_reject =
    match acquire t ~key ~tried with
    | None -> (
        match last_reject with
        | Some r -> r
        | None -> Protocol.Server_error "no live workers")
    | Some w -> (
        match worker_rpc t w request with
        | resp -> (
            release t w;
            match resp with
            | Protocol.Rejected _ ->
                Hashtbl.replace tried w.w_name ();
                attempt (Some resp)
            | resp -> resp)
        | exception _ ->
            release t w;
            mark_dead t w;
            Hashtbl.replace tried w.w_name ();
            attempt last_reject)
  in
  attempt None

(* --- request handling ------------------------------------------------------ *)

let resolve_circuit = function
  | Protocol.Builtin name -> (
      match Benchmarks.by_name name with
      | Some c -> Ok c
      | None -> Error (Printf.sprintf "unknown benchmark %S" name))
  | Protocol.Inline_bench { title; text } -> (
      try Ok (Bench_format.parse_string ~title text) with
      | Bench_format.Parse_error { line; message } ->
          Error (Printf.sprintf "inline bench, line %d: %s" line message)
      | Failure m | Invalid_argument m ->
          Error (Printf.sprintf "inline bench: %s" m))

let experiment_config (spec : Protocol.job_spec) circuit =
  Experiment.config ~seed:spec.seed
    ~max_random_vectors:spec.max_random_vectors
    ~target_yield:spec.target_yield ~collapse_faults:spec.collapse_faults
    ~min_weight_ratio:spec.min_weight_ratio circuit

(* Stage waves for a fanned-out submit: the topological levels of the
   experiment's stage DAG, each stage one level above its deepest input.
   Stages within a wave fan out to their (generally different) home
   workers concurrently; each wave finds its inputs in the distributed
   store, so the final [Submit] is stitched together from cache hits. *)
let fanout_waves cfg =
  let levels =
    List.fold_left
      (fun levels (stage, inputs) ->
        let level =
          List.fold_left (fun l i -> max l (List.assoc i levels + 1)) 0 inputs
        in
        (stage, level) :: levels)
      [] (Experiment.stage_inputs cfg)
    |> List.rev
  in
  let depth = List.fold_left (fun d (_, l) -> max d (l + 1)) 0 levels in
  List.init depth (fun l ->
      List.filter_map (fun (s, l') -> if l' = l then Some s else None) levels)

let fanout t (spec : Protocol.job_spec) cfg =
  let keys = Experiment.stage_keys cfg in
  List.iter
    (fun wave ->
      List.map
        (fun stage ->
          Thread.create
            (fun () ->
              (* Best-effort warm-up: a failed stage job just means the
                 final submit computes it. *)
              ignore
                (dispatch t ~key:(List.assoc stage keys)
                   (Protocol.Serve_stage { spec; stage })))
            ())
        wave
      |> List.iter Thread.join)
    (fanout_waves cfg)

let observe t t0 resp =
  (match resp with
  | Protocol.Result _ | Protocol.Stage_done _ ->
      Metrics.incr_completed t.metrics;
      Metrics.observe_service_ms t.metrics
        ((Unix.gettimeofday () -. t0) *. 1000.0)
  | Protocol.Rejected _ -> Metrics.incr_rejected t.metrics
  | Protocol.Expired -> Metrics.incr_expired t.metrics
  | Protocol.Server_error _ -> Metrics.incr_failed t.metrics
  | _ -> ());
  resp

let handle_submit t (spec : Protocol.job_spec) =
  let t0 = Unix.gettimeofday () in
  match resolve_circuit spec.circuit with
  | Error msg -> Protocol.Server_error msg
  | Ok circuit ->
      let cfg = experiment_config spec circuit in
      Metrics.incr_accepted t.metrics;
      Metrics.incr_executed t.metrics;
      if t.cfg.fanout_stages then fanout t spec cfg;
      observe t t0
        (dispatch t ~key:(Experiment.request_key cfg) (Protocol.Submit spec))

let handle_serve_stage t (spec : Protocol.job_spec) ~stage =
  let t0 = Unix.gettimeofday () in
  match resolve_circuit spec.circuit with
  | Error msg -> Protocol.Server_error msg
  | Ok circuit -> (
      let cfg = experiment_config spec circuit in
      match List.assoc_opt stage (Experiment.stage_keys cfg) with
      | None -> Protocol.Server_error (Printf.sprintf "unknown stage %S" stage)
      | Some key ->
          Metrics.incr_accepted t.metrics;
          Metrics.incr_executed t.metrics;
          observe t t0 (dispatch t ~key (Protocol.Serve_stage { spec; stage })))

(* Store requests are proxied along the key's ring route: the first live
   worker that answers usefully wins. *)
let handle_store t ~key request ~miss =
  let members = Hash_ring.route t.ring key in
  let rec go = function
    | [] -> miss
    | m :: rest -> (
        match Hashtbl.find_opt t.table m with
        | Some w when w.alive -> (
            match worker_rpc t w request with
            | Protocol.Store_found _ as r -> r
            | Protocol.Store_ack true as r -> r
            | _ -> go rest
            | exception _ ->
                mark_dead t w;
                go rest)
        | _ -> go rest)
  in
  go members

let stats t =
  let queue_depth, in_flight =
    locked t (fun () ->
        List.fold_left
          (fun (q, i) w ->
            if w.alive then (q + w.probe_queue_depth, i + w.in_flight)
            else (q, i))
          (0, 0) t.order)
  in
  Metrics.snapshot t.metrics ~queue_depth ~in_flight

let handle t = function
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Get_stats -> Protocol.Stats_reply (stats t)
  | Protocol.Submit spec -> handle_submit t spec
  | Protocol.Serve_stage { spec; stage } -> handle_serve_stage t spec ~stage
  | Protocol.Store_get key ->
      handle_store t ~key (Protocol.Store_get key) ~miss:Protocol.Store_missing
  | Protocol.Store_put { key; data } ->
      handle_store t ~key
        (Protocol.Store_put { key; data })
        ~miss:(Protocol.Store_ack false)
  | Protocol.Shutdown -> Protocol.Stats_reply (stats t)

(* --- connection plumbing --------------------------------------------------- *)

let close_conn t conn =
  locked t (fun () ->
      if not conn.closed then begin
        conn.closed <- true;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

let conn_loop t conn =
  let rec loop () =
    match
      Protocol.recv ~max_frame:t.cfg.max_frame Protocol.request_codec conn.fd
    with
    | None -> ()
    | Some req ->
        let resp =
          try handle t req
          with exn -> Protocol.Server_error (Printexc.to_string exn)
        in
        Protocol.send Protocol.response_codec conn.fd resp;
        if req = Protocol.Shutdown then Atomic.set t.stop_flag true else loop ()
  in
  Fun.protect
    ~finally:(fun () -> close_conn t conn)
    (fun () ->
      try loop () with
      | Protocol.Protocol_error _ | Unix.Unix_error _ | End_of_file -> ())

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else
      match
        (try `Conn (fst (Unix.accept ~cloexec:true t.listen_fd)) with
        | Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> `Retry
        | Unix.Unix_error _ -> `Stop)
      with
      | `Retry -> loop ()
      | `Stop -> ()
      | `Conn fd ->
          if Atomic.get t.stop_flag then
            (try Unix.close fd with Unix.Unix_error _ -> ())
          else begin
            let conn = { fd; thread = None; closed = false } in
            locked t (fun () -> t.conns <- conn :: t.conns);
            conn.thread <- Some (Thread.create (conn_loop t) conn);
            loop ()
          end
  in
  loop ()

(* --- health probes --------------------------------------------------------- *)

let eject_after_failures = 2

let probe_once t w =
  match
    Client.with_client ~max_frame:t.cfg.max_frame
      ~connect_timeout_s:t.cfg.connect_timeout_s w.w_endpoint Client.get_stats
  with
  | stats ->
      locked t (fun () ->
          w.alive <- true;
          w.consecutive_failures <- 0;
          w.probe_queue_depth <- stats.Protocol.queue_depth;
          Condition.broadcast t.cond)
  | exception _ ->
      locked t (fun () ->
          w.consecutive_failures <- w.consecutive_failures + 1;
          if w.consecutive_failures >= eject_after_failures then
            w.alive <- false)

let probe_loop t =
  let rec sleep remaining =
    if remaining > 0.0 && not (Atomic.get t.stop_flag) then begin
      let step = Float.min 0.05 remaining in
      Thread.delay step;
      sleep (remaining -. step)
    end
  in
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      List.iter (probe_once t) t.order;
      sleep t.cfg.probe_period_s;
      loop ()
    end
  in
  loop ()

(* --- lifecycle ------------------------------------------------------------- *)

let start cfg =
  let listen_fd = Transport.listen cfg.listen in
  let bound = Transport.bound_endpoint listen_fd cfg.listen in
  let names = List.map Transport.to_string cfg.workers in
  let ring = Hash_ring.create names in
  let table = Hashtbl.create 8 in
  let order =
    List.filter_map
      (fun ep ->
        let name = Transport.to_string ep in
        if Hashtbl.mem table name then None
        else begin
          let w =
            {
              w_name = name;
              w_endpoint = ep;
              alive = true;
              in_flight = 0;
              probe_queue_depth = 0;
              consecutive_failures = 0;
            }
          in
          Hashtbl.add table name w;
          Some w
        end)
      cfg.workers
  in
  let t =
    {
      cfg;
      listen_fd;
      bound;
      ring;
      table;
      order;
      metrics = Metrics.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      stop_flag = Atomic.make false;
      conns = [];
      state = Serving;
      accept_thread = None;
      prober = None;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.prober <- Some (Thread.create probe_loop t);
  t

let bound t = t.bound

let workers_alive t =
  locked t (fun () ->
      List.filter_map (fun w -> if w.alive then Some w.w_name else None) t.order)

let request_stop t =
  Atomic.set t.stop_flag true;
  locked t (fun () -> Condition.broadcast t.cond)

let stop t =
  request_stop t;
  let already =
    locked t (fun () ->
        if t.state = Stopped then true
        else begin
          t.state <- Stopped;
          false
        end)
  in
  if not already then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE
     with Unix.Unix_error _ -> ());
    (try Transport.close_quietly (Transport.connect ~timeout_s:1.0 t.bound)
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    let conns = locked t (fun () -> t.conns) in
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun c -> Option.iter Thread.join c.thread) conns;
    Option.iter Thread.join t.prober;
    (match t.cfg.listen with
    | Transport.Unix_socket path -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ())
  end

let run ?on_ready cfg =
  let t = start cfg in
  let handler = Sys.Signal_handle (fun _ -> request_stop t) in
  let previous =
    List.map (fun s -> (s, Sys.signal s handler)) [ Sys.sigterm; Sys.sigint ]
  in
  Option.iter (fun f -> f t) on_ready;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (s, old) -> Sys.set_signal s old) previous)
    (fun () ->
      while not (Atomic.get t.stop_flag) do
        Thread.delay 0.05
      done;
      stop t)
