module Parallel = Dl_util.Parallel
module Experiment = Dl_core.Experiment
module Benchmarks = Dl_netlist.Benchmarks
module Bench_format = Dl_netlist.Bench_format

type config = {
  listen : Transport.endpoint;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  domains_per_worker : int;
  cache_dir : string option;
  max_frame : int;
  read_deadline_s : float option;
  remote : Dl_store.Stage.remote option;
  on_job_start : (string -> unit) option;
}

let config ?(workers = 1) ?(queue_capacity = 16) ?(cache_capacity = 32)
    ?(domains_per_worker = Parallel.default_domains ()) ?cache_dir
    ?(max_frame = Protocol.default_max_frame) ?read_deadline_s ?remote
    ?on_job_start ~listen () =
  if workers < 1 then invalid_arg "Server.config: workers < 1";
  { listen; workers; queue_capacity; cache_capacity;
    domains_per_worker; cache_dir; max_frame; read_deadline_s; remote;
    on_job_start }

(* What the scheduler queue carries: whole experiments (the [Submit]
   path) or single stages plus their dependency closure (the cluster
   fan-out path).  The two key spaces are prefixed apart so a
   [Serve_stage "projection"] can never coalesce with a [Submit] whose
   request key is that same projection digest but whose result has a
   different shape. *)
type task =
  | Run_full of Experiment.config
  | Run_stage of Experiment.config * string

type task_result =
  | Full_result of Protocol.result_payload
  | Stage_result of {
      stage : string;
      key : string;
      outcome : Protocol.stage_outcome;
      seconds : float;
    }

let queue_key_full key = "full/" ^ key
let queue_key_stage key = "stage/" ^ key

type conn = {
  fd : Unix.file_descr;
  mutable busy : bool;  (* holds a decoded request whose response is unsent *)
  mutable thread : Thread.t option;
  mutable closed : bool;
}

type state = Serving | Stopping | Stopped

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Transport.endpoint;
  store : Dl_store.Store.t option;
  queue : (task, task_result) Job_queue.t;
  metrics : Metrics.t;
  mutex : Mutex.t;   (* guards conns, state *)
  cond : Condition.t;  (* broadcast on state change *)
  mutable conns : conn list;
  mutable state : state;
  stop_flag : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  mutable supervisor : Thread.t option;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stopping t = Atomic.get t.stop_flag || locked t (fun () -> t.state <> Serving)

(* --- request handling ---------------------------------------------------- *)

let resolve_circuit = function
  | Protocol.Builtin name -> (
      match Benchmarks.by_name name with
      | Some c -> Ok c
      | None ->
          Error
            (Printf.sprintf "unknown benchmark %S (built-ins: %s)" name
               (String.concat ", " (List.map fst Benchmarks.all))))
  | Protocol.Inline_bench { title; text } -> (
      try Ok (Bench_format.parse_string ~title text) with
      | Bench_format.Parse_error { line; message } ->
          Error (Printf.sprintf "inline bench, line %d: %s" line message)
      | Failure m | Invalid_argument m ->
          Error (Printf.sprintf "inline bench: %s" m))

let config_of_spec t (spec : Protocol.job_spec) circuit =
  Experiment.config ~seed:spec.seed
    ~max_random_vectors:spec.max_random_vectors
    ~target_yield:spec.target_yield ~collapse_faults:spec.collapse_faults
    ~min_weight_ratio:spec.min_weight_ratio ?cache_dir:t.cfg.cache_dir
    ?remote:t.cfg.remote circuit

let retry_after_ms t ~queue_depth =
  let mean = Metrics.mean_service_ms t.metrics in
  let backlog = float_of_int (queue_depth + 1) in
  let workers = float_of_int t.cfg.workers in
  (* Clamp in float space: [int_of_float] on a huge product (slow service
     times x deep backlog) is undefined and can come back negative, which
     a client would read as "retry immediately". *)
  let ms = Float.min 60_000.0 (Float.max 50.0 (mean *. backlog /. workers)) in
  int_of_float ms

let service_ms t0 = (Unix.gettimeofday () -. t0) *. 1000.0

let deliver t ~t0 ~coalesced payload =
  Metrics.incr_completed t.metrics;
  let ms = service_ms t0 in
  Metrics.observe_service_ms t.metrics ms;
  Protocol.Result { payload; coalesced; service_ms = ms }

let handle_submit t (spec : Protocol.job_spec) =
  let t0 = Unix.gettimeofday () in
  match resolve_circuit spec.circuit with
  | Error msg -> Protocol.Server_error msg
  | Ok circuit -> (
      let cfg = config_of_spec t spec circuit in
      let key = Experiment.request_key cfg in
      let deadline =
        Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0)) spec.deadline_ms
      in
      let already_expired =
        match deadline with Some d -> Unix.gettimeofday () >= d | None -> false
      in
      if already_expired then begin
        Metrics.incr_expired t.metrics;
        Protocol.Expired
      end
      else
        let finish ~coalesced = function
          | Full_result payload -> deliver t ~t0 ~coalesced payload
          | Stage_result _ ->
              Protocol.Server_error "internal: stage result under submit key"
        in
        let await ~coalesced ticket =
          match Job_queue.await t.queue ticket with
          | `Ok r -> finish ~coalesced r
          | `Error msg -> Protocol.Server_error msg
          | `Expired ->
              Metrics.incr_expired t.metrics;
              Protocol.Expired
        in
        match
          Job_queue.submit t.queue ~key:(queue_key_full key) ?deadline
            (Run_full cfg)
        with
        | Job_queue.Rejected { queue_depth } ->
            Metrics.incr_rejected t.metrics;
            Protocol.Rejected
              { retry_after_ms = retry_after_ms t ~queue_depth; queue_depth }
        | Job_queue.Cached r ->
            Metrics.incr_accepted t.metrics;
            Metrics.incr_coalesced t.metrics;
            finish ~coalesced:true r
        | Job_queue.Coalesced ticket ->
            Metrics.incr_accepted t.metrics;
            Metrics.incr_coalesced t.metrics;
            await ~coalesced:true ticket
        | Job_queue.Enqueued ticket ->
            Metrics.incr_accepted t.metrics;
            await ~coalesced:false ticket)

(* --- cluster request handling -------------------------------------------- *)

let handle_serve_stage t (spec : Protocol.job_spec) ~stage =
  let t0 = Unix.gettimeofday () in
  match resolve_circuit spec.circuit with
  | Error msg -> Protocol.Server_error msg
  | Ok circuit -> (
      let cfg = config_of_spec t spec circuit in
      match List.assoc_opt stage (Experiment.stage_keys cfg) with
      | None ->
          Protocol.Server_error
            (Printf.sprintf "unknown stage %S (stages: %s)" stage
               (String.concat ", "
                  (List.map fst (Experiment.stage_keys cfg))))
      | Some stage_key -> (
          let deadline =
            Option.map
              (fun ms -> t0 +. (float_of_int ms /. 1000.0))
              spec.deadline_ms
          in
          let finish = function
            | Stage_result r ->
                Metrics.incr_completed t.metrics;
                Metrics.observe_service_ms t.metrics (service_ms t0);
                Protocol.Stage_done
                  {
                    stage = r.stage;
                    key = r.key;
                    outcome = r.outcome;
                    seconds = r.seconds;
                  }
            | Full_result _ ->
                Protocol.Server_error "internal: full result under stage key"
          in
          let await ticket =
            match Job_queue.await t.queue ticket with
            | `Ok r -> finish r
            | `Error msg -> Protocol.Server_error msg
            | `Expired ->
                Metrics.incr_expired t.metrics;
                Protocol.Expired
          in
          match
            Job_queue.submit t.queue ~key:(queue_key_stage stage_key)
              ?deadline
              (Run_stage (cfg, stage))
          with
          | Job_queue.Rejected { queue_depth } ->
              Metrics.incr_rejected t.metrics;
              Protocol.Rejected
                { retry_after_ms = retry_after_ms t ~queue_depth; queue_depth }
          | Job_queue.Cached r ->
              Metrics.incr_accepted t.metrics;
              Metrics.incr_coalesced t.metrics;
              finish r
          | Job_queue.Coalesced ticket ->
              Metrics.incr_accepted t.metrics;
              Metrics.incr_coalesced t.metrics;
              await ticket
          | Job_queue.Enqueued ticket ->
              Metrics.incr_accepted t.metrics;
              await ticket))

(* Peer store exchange.  [Store_get] never computes — it answers from the
   local artifact store or says so.  [Store_put] validates the offered
   envelope (magic, kind, CRC) before letting it anywhere near disk: a
   corrupt push is acked [false] and discarded, so one bad peer cannot
   poison a store. *)
let handle_store_get t key =
  match t.store with
  | None -> Protocol.Store_missing
  | Some store -> (
      match Dl_store.Store.load store key with
      | None -> Protocol.Store_missing
      | Some data -> Protocol.Store_found (Bytes.to_string data))

let handle_store_put t ~key ~data =
  match t.store with
  | None -> Protocol.Store_ack false
  | Some store -> (
      let bytes = Bytes.of_string data in
      match Dl_store.Codec.inspect ~check_crc:true bytes with
      | Error _ -> Protocol.Store_ack false
      | Ok (kind, version) ->
          Dl_store.Store.put store ~key ~kind ~version bytes;
          Protocol.Store_ack true)

let stats t =
  Metrics.snapshot t.metrics ~queue_depth:(Job_queue.depth t.queue)
    ~in_flight:(Job_queue.running t.queue)

let handle t = function
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Get_stats -> Protocol.Stats_reply (stats t)
  | Protocol.Submit spec -> handle_submit t spec
  | Protocol.Serve_stage { spec; stage } -> handle_serve_stage t spec ~stage
  | Protocol.Store_get key -> handle_store_get t key
  | Protocol.Store_put { key; data } -> handle_store_put t ~key ~data
  | Protocol.Shutdown -> Protocol.Stats_reply (stats t)

(* --- connection threads -------------------------------------------------- *)

let close_conn t conn =
  locked t (fun () ->
      if not conn.closed then begin
        conn.closed <- true;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

let conn_loop t conn =
  let rec loop () =
    match
      Protocol.recv ~max_frame:t.cfg.max_frame
        ?deadline_s:t.cfg.read_deadline_s Protocol.request_codec conn.fd
    with
    | None -> ()
    | Some req ->
        locked t (fun () -> conn.busy <- true);
        let resp =
          try handle t req
          with exn -> Protocol.Server_error (Printexc.to_string exn)
        in
        Protocol.send Protocol.response_codec conn.fd resp;
        locked t (fun () -> conn.busy <- false);
        if req = Protocol.Shutdown then Atomic.set t.stop_flag true else loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () -> conn.busy <- false);
      close_conn t conn)
    (fun () ->
      try loop () with
      | Protocol.Protocol_error _ | Unix.Unix_error _ | End_of_file -> ())

let accept_loop t =
  let rec loop () =
    if stopping t then ()
    else
      match
        (try `Conn (fst (Unix.accept ~cloexec:true t.listen_fd)) with
        | Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> `Retry
        | Unix.Unix_error _ -> `Stop)
      with
      | `Retry -> loop ()
      | `Stop -> ()
      | `Conn fd ->
          if stopping t then (try Unix.close fd with Unix.Unix_error _ -> ())
          else begin
            let conn = { fd; busy = false; thread = None; closed = false } in
            locked t (fun () -> t.conns <- conn :: t.conns);
            conn.thread <- Some (Thread.create (conn_loop t) conn);
            loop ()
          end
  in
  loop ()

(* --- scheduler workers --------------------------------------------------- *)

let worker_loop t () =
  (* One long-lived pool per worker thread: Parallel.t is not re-entrant,
     so pools are owned, never shared, and reused across jobs. *)
  let pool = Parallel.create ~domains:t.cfg.domains_per_worker () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  let stage_outcome : Dl_store.Stage.outcome -> Protocol.stage_outcome =
    function
    | Dl_store.Stage.Hit -> Protocol.Stage_hit
    | Dl_store.Stage.Fetched -> Protocol.Stage_fetched
    | Dl_store.Stage.Miss | Dl_store.Stage.Uncached -> Protocol.Stage_computed
  in
  let rec loop () =
    match Job_queue.next t.queue with
    | `Drained -> ()
    | `Job job ->
        Option.iter (fun f -> f (Job_queue.key job)) t.cfg.on_job_start;
        Metrics.incr_executed t.metrics;
        let result =
          try
            match Job_queue.payload job with
            | Run_full cfg ->
                let cfg = { cfg with Experiment.pool = Some pool } in
                let e = Experiment.run cfg in
                Ok
                  (Full_result
                     (Protocol.payload_of_experiment
                        ~key:(Experiment.request_key cfg) e))
            | Run_stage (cfg, stage) -> (
                let cfg = { cfg with Experiment.pool = Some pool } in
                (* the requested stage's report is the last one *)
                match List.rev (Experiment.run_stage cfg ~stage) with
                | r :: _ ->
                    Ok
                      (Stage_result
                         {
                           stage;
                           key = r.key;
                           outcome = stage_outcome r.outcome;
                           seconds = r.seconds;
                         })
                | [] ->
                    Error
                      (Printf.sprintf "stage %S produced no report" stage))
          with exn ->
            Metrics.incr_failed t.metrics;
            Error (Printexc.to_string exn)
        in
        Job_queue.finish t.queue job result;
        loop ()
  in
  loop ()

(* --- lifecycle ----------------------------------------------------------- *)

(* Remove a leftover socket file, but only when it provably is one (never
   unlink an arbitrary file) and nothing answers on it (never steal a live
   server's address). *)
let prepare_socket path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        failwith (path ^ ": a server is already listening on this socket");
      (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | _ -> failwith (path ^ ": exists and is not a socket; refusing to remove")

let do_stop t =
  Job_queue.drain t.queue;
  (* Wake the accept thread: shutdown makes a blocked accept(2) return on
     Linux; the throwaway connect covers platforms where it does not. *)
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE
   with Unix.Unix_error _ -> ());
  (try Transport.close_quietly (Transport.connect ~timeout_s:1.0 t.bound)
   with Unix.Unix_error _ -> ());
  Option.iter Thread.join t.accept_thread;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* Workers drain every queued and running job, publishing all results. *)
  List.iter Thread.join t.worker_threads;
  (* Give each connection time to write the response it owes, then close
     under it (shutdown first, so a thread blocked in read wakes). *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_idle () =
    let busy = locked t (fun () -> List.exists (fun c -> c.busy) t.conns) in
    if busy && Unix.gettimeofday () < deadline then begin
      Thread.delay 0.01;
      wait_idle ()
    end
  in
  wait_idle ();
  let conns = locked t (fun () -> t.conns) in
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun c -> Option.iter Thread.join c.thread) conns;
  Job_queue.shutdown t.queue;
  (match t.cfg.listen with
  | Transport.Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Transport.Tcp _ -> ());
  locked t (fun () ->
      t.state <- Stopped;
      Condition.broadcast t.cond)

let supervisor_loop t =
  let rec loop () =
    if Atomic.get t.stop_flag then begin
      locked t (fun () -> t.state <- Stopping);
      do_stop t
    end
    else begin
      Thread.delay 0.05;
      loop ()
    end
  in
  loop ()

let start cfg =
  (match cfg.listen with
  | Transport.Unix_socket path -> prepare_socket path
  | Transport.Tcp _ -> ());
  let listen_fd = Transport.listen cfg.listen in
  let bound = Transport.bound_endpoint listen_fd cfg.listen in
  let store = Option.map Dl_store.Store.open_ cfg.cache_dir in
  let t =
    {
      cfg;
      listen_fd;
      bound;
      store;
      queue =
        Job_queue.create ~cache_capacity:cfg.cache_capacity
          ~capacity:cfg.queue_capacity ();
      metrics = Metrics.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      conns = [];
      state = Serving;
      stop_flag = Atomic.make false;
      accept_thread = None;
      worker_threads = [];
      supervisor = None;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.worker_threads <-
    List.init cfg.workers (fun _ -> Thread.create (worker_loop t) ());
  t.supervisor <- Some (Thread.create supervisor_loop t);
  t

let bound t = t.bound
let request_stop t = Atomic.set t.stop_flag true

let wait t =
  locked t (fun () ->
      while t.state <> Stopped do
        Condition.wait t.cond t.mutex
      done);
  Option.iter Thread.join t.supervisor

let stop t =
  request_stop t;
  wait t

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
    (fun () -> wait t)
