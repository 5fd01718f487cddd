(* Serving layer: wire protocol round-trips and corruption rejection, the
   coalescing job queue's admission/deadline/drain semantics, and the live
   server over a Unix-socket loopback — including the acceptance
   properties: a served answer is bit-identical to a direct
   Experiment.run, two identical concurrent requests execute once, a full
   queue rejects rather than blocks, and SIGTERM drains in-flight jobs
   before exit. *)

module P = Dl_serve.Protocol
module Job_queue = Dl_serve.Job_queue
module Server = Dl_serve.Server
module Client = Dl_serve.Client
module Transport = Dl_serve.Transport

let ep path = Transport.Unix_socket path
module Codec = Dl_store.Codec
module Experiment = Dl_core.Experiment

(* Polymorphic compare instead of (=): payloads carry floats and the
   generators may produce nan, which compare equal structurally. *)
let eq a b = compare a b = 0

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

let tmp_socket =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dlserve_test_%d_%d.sock" (Unix.getpid ()) !counter)

(* --- generators ---------------------------------------------------------- *)

let circuit_spec_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun s -> P.Builtin s) (string_size (int_bound 12)));
        ( 1,
          map2
            (fun title text -> P.Inline_bench { title; text })
            (string_size (int_bound 8))
            (string_size (int_bound 200)) );
      ])

let job_spec_gen =
  QCheck.Gen.(
    circuit_spec_gen >>= fun circuit ->
    map2
      (fun (seed, max_random_vectors, deadline_ms)
           (target_yield, collapse_faults, min_weight_ratio) ->
        {
          P.circuit;
          seed;
          max_random_vectors;
          target_yield;
          collapse_faults;
          min_weight_ratio;
          deadline_ms;
        })
      (triple int (int_bound 100_000) (opt (int_bound 1_000_000)))
      (triple float bool float))

let request_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return P.Ping);
        (1, return P.Get_stats);
        (1, return P.Shutdown);
        (4, map (fun s -> P.Submit s) job_spec_gen);
      ])

let summary_gen =
  QCheck.Gen.(
    map2
      (fun text ((fit_r, fit_theta_max), (fit_rmse, fit_rmse_log10), sf) ->
        {
          Dl_store.Artifact.text;
          fit_r;
          fit_theta_max;
          fit_rmse;
          fit_rmse_log10;
          scale_factor = sf;
        })
      (string_size (int_bound 100))
      (triple (pair float float) (pair float bool) float))

let payload_gen =
  QCheck.Gen.(
    map3
      (fun (circuit_title, request_key)
           (vectors, stuck_fault_count, realistic_fault_count)
           ((t_final, theta_final), (gamma_final, theta_iddq_final),
            target_yield) ->
        fun summary (stage_hits, stage_misses) ->
         {
           P.circuit_title;
           vectors;
           stuck_fault_count;
           realistic_fault_count;
           t_final;
           theta_final;
           gamma_final;
           theta_iddq_final;
           target_yield;
           summary;
           request_key;
           stage_hits;
           stage_misses;
         })
      (pair (string_size (int_bound 20)) (string_size (int_bound 40)))
      (triple small_nat small_nat small_nat)
      (triple (pair float float) (pair float float) float)
    <*> summary_gen
    <*> pair small_nat small_nat)

let stats_gen =
  QCheck.Gen.(
    map3
      (fun (accepted, rejected, coalesced)
           (executed, completed, expired)
           ((failed, queue_depth, in_flight), (p50_ms, p99_ms),
            (p999_ms, uptime_s)) ->
        {
          P.accepted;
          rejected;
          coalesced;
          executed;
          completed;
          expired;
          failed;
          queue_depth;
          in_flight;
          p50_ms;
          p99_ms;
          p999_ms;
          uptime_s;
        })
      (triple small_nat small_nat small_nat)
      (triple small_nat small_nat small_nat)
      (triple (triple small_nat small_nat small_nat) (pair float float)
         (pair float float)))

let response_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return P.Pong);
        (1, return P.Expired);
        (1, map (fun s -> P.Server_error s) (string_size (int_bound 60)));
        ( 1,
          map2
            (fun retry_after_ms queue_depth ->
              P.Rejected { retry_after_ms; queue_depth })
            small_nat small_nat );
        (2, map (fun s -> P.Stats_reply s) stats_gen);
        ( 3,
          map3
            (fun payload coalesced service_ms ->
              P.Result { payload; coalesced; service_ms })
            payload_gen bool float );
      ])

let request_arb = QCheck.make ~print:(fun _ -> "<request>") request_gen
let response_arb = QCheck.make ~print:(fun _ -> "<response>") response_gen

(* --- protocol round-trips ------------------------------------------------ *)

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"requests round-trip through the codec" ~count:300
    request_arb (fun req ->
      match Codec.of_bytes P.request_codec (Codec.to_bytes P.request_codec req) with
      | Ok decoded -> eq decoded req
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"responses round-trip through the codec" ~count:300
    response_arb (fun resp ->
      match
        Codec.of_bytes P.response_codec (Codec.to_bytes P.response_codec resp)
      with
      | Ok decoded -> eq decoded resp
      | Error _ -> false)

let sample_request =
  P.Submit
    (P.job_spec ~seed:11 ~max_random_vectors:512 ~target_yield:0.8
       ~deadline_ms:2500
       (P.Inline_bench { title = "t"; text = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n" }))

let test_every_byte_flip_rejected () =
  let data = Codec.to_bytes P.request_codec sample_request in
  for i = 0 to Bytes.length data - 1 do
    let corrupt = Bytes.copy data in
    Bytes.set corrupt i (Char.chr (Char.code (Bytes.get corrupt i) lxor 0x40));
    match Codec.of_bytes P.request_codec corrupt with
    | Ok decoded ->
        if not (eq decoded sample_request) then
          Alcotest.failf "byte flip at %d decoded to a different value" i
        else Alcotest.failf "byte flip at %d went undetected" i
    | Error _ -> ()
  done

let test_truncation_rejected () =
  let data = Codec.to_bytes P.request_codec sample_request in
  for len = 0 to Bytes.length data - 1 do
    match Codec.of_bytes P.request_codec (Bytes.sub data 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes went undetected" len
    | Error _ -> ()
  done

(* --- framing over a real socketpair -------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

let test_frame_io () =
  with_socketpair (fun a b ->
      P.send P.request_codec a P.Ping;
      P.send P.request_codec a sample_request;
      (match P.recv P.request_codec b with
      | Some P.Ping -> ()
      | _ -> Alcotest.fail "first frame was not Ping");
      (match P.recv P.request_codec b with
      | Some req when eq req sample_request -> ()
      | _ -> Alcotest.fail "second frame did not round-trip");
      Unix.close a;
      match P.recv P.request_codec b with
      | None -> ()
      | Some _ -> Alcotest.fail "EOF at frame boundary should be None")

let test_frame_truncated_stream () =
  with_socketpair (fun a b ->
      let frame = Codec.to_bytes P.request_codec sample_request in
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 (Int32.of_int (Bytes.length frame));
      (* header plus half the body, then EOF: an error, not a clean close *)
      let partial = Bytes.length frame / 2 in
      assert (Unix.write a header 0 4 = 4);
      assert (Unix.write a frame 0 partial = partial);
      Unix.close a;
      match P.recv P.request_codec b with
      | exception P.Protocol_error _ -> ()
      | None -> Alcotest.fail "mid-frame EOF must not look like a clean close"
      | Some _ -> Alcotest.fail "truncated frame decoded")

let test_frame_oversized_rejected () =
  with_socketpair (fun a b ->
      let header = Bytes.create 4 in
      Bytes.set_int32_le header 0 0x7f000000l;
      assert (Unix.write a header 0 4 = 4);
      match P.recv ~max_frame:(1 lsl 20) P.request_codec b with
      | exception P.Protocol_error _ -> ()
      | _ -> Alcotest.fail "oversized frame length accepted")

(* --- job queue ----------------------------------------------------------- *)

let with_queue ?cache_capacity ~capacity f =
  let q = Job_queue.create ?cache_capacity ~capacity () in
  Fun.protect ~finally:(fun () -> Job_queue.shutdown q) (fun () -> f q)

let run_one q =
  match Job_queue.next q with
  | `Drained -> Alcotest.fail "queue drained unexpectedly"
  | `Job job ->
      Job_queue.finish q job (Ok (String.uppercase_ascii (Job_queue.payload job)))

let test_queue_basic () =
  with_queue ~capacity:4 (fun q ->
      match Job_queue.submit q ~key:"k1" "payload" with
      | Job_queue.Enqueued ticket ->
          Alcotest.(check int) "depth" 1 (Job_queue.depth q);
          run_one q;
          (match Job_queue.await q ticket with
          | `Ok "PAYLOAD" -> ()
          | _ -> Alcotest.fail "await did not return the finished result");
          (* completed results are served from the cache *)
          (match Job_queue.submit q ~key:"k1" "payload" with
          | Job_queue.Cached "PAYLOAD" -> ()
          | _ -> Alcotest.fail "repeat submission missed the result cache")
      | _ -> Alcotest.fail "first submission was not Enqueued")

(* [next] blocks forever on an empty queue, so the coalescing assertion is
   phrased as: only one job is ever handed out, proved by draining. *)
let test_queue_coalesce_single_execution () =
  with_queue ~capacity:4 (fun q ->
      let t1 =
        match Job_queue.submit q ~key:"k" "a" with
        | Job_queue.Enqueued t -> t
        | _ -> Alcotest.fail "expected Enqueued"
      in
      let t2 =
        match Job_queue.submit q ~key:"k" "b" with
        | Job_queue.Coalesced t -> t
        | _ -> Alcotest.fail "expected Coalesced"
      in
      run_one q;
      (* the payload of the *first* submission is the one that ran *)
      (match (Job_queue.await q t1, Job_queue.await q t2) with
      | `Ok "A", `Ok "A" -> ()
      | _ -> Alcotest.fail "both waiters must see the single execution");
      Job_queue.drain q;
      match Job_queue.next q with
      | `Drained -> ()
      | `Job _ -> Alcotest.fail "a second job leaked out of the queue")

let test_queue_rejects_when_full () =
  with_queue ~capacity:1 (fun q ->
      (match Job_queue.submit q ~key:"k1" "a" with
      | Job_queue.Enqueued _ -> ()
      | _ -> Alcotest.fail "expected Enqueued");
      match Job_queue.submit q ~key:"k2" "b" with
      | Job_queue.Rejected { queue_depth } ->
          Alcotest.(check int) "reported depth" 1 queue_depth
      | _ -> Alcotest.fail "full queue accepted a new key")

let test_queue_deadline_expiry () =
  with_queue ~capacity:4 (fun q ->
      let deadline = Unix.gettimeofday () +. 0.04 in
      let ticket =
        match Job_queue.submit q ~key:"k" ~deadline "a" with
        | Job_queue.Enqueued t -> t
        | _ -> Alcotest.fail "expected Enqueued"
      in
      (* no worker is running: the waiter must time out, not hang *)
      (match Job_queue.await q ticket with
      | `Expired -> ()
      | _ -> Alcotest.fail "expected deadline expiry");
      (* the queued job has no live waiters: cancelled at dispatch *)
      Job_queue.drain q;
      (match Job_queue.next q with
      | `Drained -> ()
      | `Job _ -> Alcotest.fail "expired job must not be dispatched");
      Alcotest.(check int) "cancelled count" 1 (Job_queue.cancelled q))

let test_queue_drain_rejects () =
  with_queue ~capacity:4 (fun q ->
      Job_queue.drain q;
      (match Job_queue.submit q ~key:"k" "a" with
      | Job_queue.Rejected _ -> ()
      | _ -> Alcotest.fail "draining queue accepted a submission");
      match Job_queue.next q with
      | `Drained -> ()
      | `Job _ -> Alcotest.fail "drained queue produced a job")

(* --- live server over loopback ------------------------------------------- *)

let quick_spec = P.job_spec ~seed:7 ~max_random_vectors:32 (P.Builtin "c17")

let with_server ?(workers = 1) ?(queue_capacity = 16) ?on_job_start f =
  let socket = tmp_socket () in
  let cfg =
    Server.config ~workers ~queue_capacity ~domains_per_worker:1 ?on_job_start
      ~listen:(ep socket) ()
  in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server socket)

let submit_result client spec =
  match Client.submit client spec with
  | P.Result served -> served
  | P.Rejected _ -> Alcotest.fail "submission rejected"
  | P.Expired -> Alcotest.fail "submission expired"
  | P.Server_error m -> Alcotest.failf "server error: %s" m
  | _ -> Alcotest.fail "wrong reply kind"

let test_server_ping_and_unknown () =
  with_server (fun _server socket ->
      Client.with_client (ep socket) (fun c ->
          Alcotest.(check bool) "pong" true (Client.ping c);
          match Client.submit c (P.job_spec (P.Builtin "nonesuch")) with
          | P.Server_error msg ->
              Alcotest.(check bool)
                "diagnostic names the benchmark" true
                (contains_sub ~sub:"nonesuch" msg)
          | _ -> Alcotest.fail "unknown benchmark must be a Server_error"))

(* Experiment.config is the gate every served spec passes through: a spec
   it rejects must come back as a Server_error before anything is keyed,
   queued or executed.  (A negative vector budget or deadline cannot be
   framed at all: [P.job_spec] rejects it, see below.) *)
let test_server_rejects_bad_spec () =
  with_server (fun server socket ->
      Client.with_client (ep socket) (fun c ->
          List.iter
            (fun (what, spec, expect) ->
              match Client.submit c spec with
              | P.Server_error msg ->
                  Alcotest.(check bool)
                    (what ^ ": diagnostic names the bad value") true
                    (contains_sub ~sub:expect msg)
              | _ -> Alcotest.failf "%s: bad spec must be a Server_error" what)
            [
              ( "min_weight_ratio 2.0",
                P.job_spec ~min_weight_ratio:2.0 (P.Builtin "c17"),
                "min_weight_ratio must be in [0, 1]" );
              ( "min_weight_ratio NaN",
                P.job_spec ~min_weight_ratio:Float.nan (P.Builtin "c17"),
                "min_weight_ratio must be in [0, 1]" );
              ( "target_yield 1.5",
                P.job_spec ~target_yield:1.5 (P.Builtin "c17"),
                "target yield must be in (0, 1)" );
            ];
          let stats = Server.stats server in
          Alcotest.(check int) "nothing executed" 0 stats.P.executed;
          Alcotest.(check int) "nothing accepted" 0 stats.P.accepted))

(* The codec writes the vector budget and the deadline as unsigned
   varints: [P.job_spec] rejects negative ones with a message the client
   can report, and nothing reaches the server. *)
let test_job_spec_rejects_negative () =
  with_server (fun server socket ->
      Client.with_client (ep socket) (fun _ ->
          Alcotest.check_raises "negative vector budget"
            (Invalid_argument
               "Protocol.job_spec: max_random_vectors must be >= 0")
            (fun () ->
              ignore (P.job_spec ~max_random_vectors:(-1) (P.Builtin "c17")));
          Alcotest.check_raises "negative deadline"
            (Invalid_argument "Protocol.job_spec: deadline_ms must be >= 0")
            (fun () -> ignore (P.job_spec ~deadline_ms:(-5) (P.Builtin "c17")));
          let stats = Server.stats server in
          Alcotest.(check int) "nothing accepted" 0 stats.P.accepted;
          Alcotest.(check int) "nothing rejected" 0 stats.P.rejected;
          Alcotest.(check int) "nothing executed" 0 stats.P.executed;
          Alcotest.(check int) "nothing failed" 0 stats.P.failed))

let test_server_bit_identical_and_inline () =
  with_server (fun _server socket ->
      Client.with_client (ep socket) (fun c ->
          let served = submit_result c quick_spec in
          let direct =
            Experiment.run
              (Experiment.config ~seed:7 ~max_random_vectors:32 ~domains:1
                 (Dl_netlist.Benchmarks.c17 ()))
          in
          let expect =
            P.payload_of_experiment ~key:(Experiment.request_key direct.cfg)
              direct
          in
          if not (eq served.P.payload expect) then
            Alcotest.fail "served answer differs from direct Experiment.run";
          (* inline .bench text is parsed and served the same way *)
          let inline_spec =
            P.job_spec ~seed:7 ~max_random_vectors:32
              (P.Inline_bench
                 { title = "inline17";
                   text =
                     Dl_netlist.Bench_format.to_string
                       (Dl_netlist.Benchmarks.c17 ()) })
          in
          let inline_served = submit_result c inline_spec in
          Alcotest.(check int)
            "inline run sees the same fault universe"
            served.P.payload.P.stuck_fault_count
            inline_served.P.payload.P.stuck_fault_count;
          (* malformed inline text is a diagnostic, not a hang or crash *)
          match
            Client.submit c
              (P.job_spec (P.Inline_bench { title = "bad"; text = "b = NOT(a)" }))
          with
          | P.Server_error _ -> ()
          | _ -> Alcotest.fail "malformed inline bench must be a Server_error"))

(* Poll [pred] until it holds or ~5 s elapse; fail the test on timeout. *)
let wait_for what pred =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting for %s" what

let test_server_concurrent_coalescing () =
  let release = Atomic.make false in
  let started = Atomic.make 0 in
  let on_job_start _key =
    Atomic.incr started;
    while not (Atomic.get release) do
      Thread.delay 0.002
    done
  in
  with_server ~on_job_start (fun server socket ->
      (* if an assertion fires before the hook is released, [stop] would
         wait forever on the spinning worker — always release on exit *)
      Fun.protect ~finally:(fun () -> Atomic.set release true) @@ fun () ->
      let results = Array.make 2 None in
      let submitter i () =
        Client.with_client (ep socket) (fun c ->
            results.(i) <- Some (submit_result c quick_spec))
      in
      let threads = Array.init 2 (fun i -> Thread.create (submitter i) ()) in
      (* hold the job until both identical requests are admitted *)
      wait_for "both submissions admitted" (fun () ->
          (Server.stats server).P.accepted >= 2);
      Atomic.set release true;
      Array.iter Thread.join threads;
      let a, b =
        match (results.(0), results.(1)) with
        | Some a, Some b -> (a, b)
        | _ -> Alcotest.fail "a submitter did not complete"
      in
      if not (eq a.P.payload b.P.payload) then
        Alcotest.fail "coalesced answers differ";
      let s = Server.stats server in
      Alcotest.(check int) "exactly one execution" 1 s.P.executed;
      Alcotest.(check int) "one coalesced admission" 1 s.P.coalesced;
      Alcotest.(check int)
        "exactly one primary (non-coalesced) response" 1
        (Array.fold_left
           (fun acc (r : P.served option) ->
             match r with
             | Some s when not s.P.coalesced -> acc + 1
             | _ -> acc)
           0 results);
      Alcotest.(check int) "single job start" 1 (Atomic.get started))

let test_server_queue_full_rejects () =
  let release = Atomic.make false in
  let on_job_start _ =
    while not (Atomic.get release) do
      Thread.delay 0.002
    done
  in
  with_server ~queue_capacity:1 ~on_job_start (fun server socket ->
      Fun.protect ~finally:(fun () -> Atomic.set release true) @@ fun () ->
      let specs =
        Array.init 3 (fun i ->
            P.job_spec ~seed:(100 + i) ~max_random_vectors:32 (P.Builtin "c17"))
      in
      let results = Array.make 2 None in
      let submitter i =
        Thread.create
          (fun () ->
            Client.with_client (ep socket) (fun c ->
                results.(i) <- Some (Client.submit c specs.(i))))
          ()
      in
      (* sequence the admissions: A must be dispatched (and blocked in the
         hook) before B arrives, so B fills the queue instead of being
         bounced by it *)
      let t_a = submitter 0 in
      wait_for "job A dispatched" (fun () ->
          (Server.stats server).P.in_flight = 1);
      let t_b = submitter 1 in
      wait_for "job B queued" (fun () ->
          (Server.stats server).P.queue_depth = 1);
      (* the queue is full: the third distinct request must be rejected
         immediately, not block *)
      let t0 = Unix.gettimeofday () in
      (Client.with_client (ep socket) @@ fun c ->
       match Client.submit c specs.(2) with
       | P.Rejected { retry_after_ms; queue_depth } ->
           Alcotest.(check int) "reported queue depth" 1 queue_depth;
           Alcotest.(check bool) "retry hint present" true (retry_after_ms >= 50)
       | _ -> Alcotest.fail "full queue did not reject");
      Alcotest.(check bool)
        "rejection was immediate" true
        (Unix.gettimeofday () -. t0 < 2.0);
      Atomic.set release true;
      List.iter Thread.join [ t_a; t_b ];
      Array.iter
        (fun r ->
          match r with
          | Some (P.Result _) -> ()
          | _ -> Alcotest.fail "admitted job did not complete after release")
        results;
      let s = Server.stats server in
      Alcotest.(check int) "one rejection counted" 1 s.P.rejected)

let test_server_deadline_expires_queued_job () =
  let release = Atomic.make false in
  let on_job_start _ =
    while not (Atomic.get release) do
      Thread.delay 0.002
    done
  in
  with_server ~on_job_start (fun server socket ->
      Fun.protect ~finally:(fun () -> Atomic.set release true) @@ fun () ->
      let blocker = Thread.create (fun () ->
          Client.with_client (ep socket) (fun c ->
              ignore (Client.submit c quick_spec))) ()
      in
      wait_for "blocker dispatched" (fun () ->
          (Server.stats server).P.in_flight = 1);
      (* behind the blocked worker, a 50 ms deadline cannot be met *)
      (Client.with_client (ep socket) @@ fun c ->
       match
         Client.submit c
           (P.job_spec ~seed:999 ~max_random_vectors:32 ~deadline_ms:50
              (P.Builtin "c17"))
       with
       | P.Expired -> ()
       | _ -> Alcotest.fail "expected deadline expiry");
      Atomic.set release true;
      Thread.join blocker;
      let s = Server.stats server in
      Alcotest.(check int) "expiry counted" 1 s.P.expired;
      (* the expired job was cancelled at dispatch, never executed *)
      Alcotest.(check int) "only the blocker executed" 1 s.P.executed)

let test_server_sigterm_drains () =
  let socket = tmp_socket () in
  let served_ref = ref None in
  let on_job_start _ =
    (* SIGTERM arrives while the job is mid-flight; the drain must still
       deliver its response before the process side exits *)
    Unix.kill (Unix.getpid ()) Sys.sigterm
  in
  let cfg =
    Server.config ~workers:1 ~domains_per_worker:1 ~on_job_start ~listen:(ep socket) ()
  in
  let runner = Thread.create (fun () -> Server.run cfg) () in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while not (Sys.file_exists socket) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  Client.with_client (ep socket) (fun c ->
      served_ref := Some (submit_result c quick_spec));
  Thread.join runner;
  (match !served_ref with
  | Some served ->
      Alcotest.(check bool)
        "drained job produced a real answer" true
        (served.P.payload.P.vectors > 0)
  | None -> Alcotest.fail "no response before exit");
  Alcotest.(check bool) "socket unlinked on exit" false (Sys.file_exists socket)

let test_server_stale_socket_recovery () =
  let socket = tmp_socket () in
  (* fake a crashed server: a bound-but-dead socket file *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX socket);
  Unix.close dead;
  let cfg = Server.config ~domains_per_worker:1 ~listen:(ep socket) () in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      Client.with_client (ep socket) (fun c ->
          Alcotest.(check bool) "recovered and serving" true (Client.ping c));
      (* a live server must not be stolen from *)
      match Server.start cfg with
      | exception Failure _ -> ()
      | t2 ->
          Server.stop t2;
          Alcotest.fail "second server bound over a live one")

(* --- key plan vs actual run ---------------------------------------------- *)

let test_stage_keys_match_run_reports () =
  let c = Dl_netlist.Benchmarks.c432s_small () in
  let check_plan what cfg =
    let planned = Experiment.stage_keys cfg in
    let e = Experiment.run cfg in
    let actual =
      List.map
        (fun (r : Dl_store.Stage.report) -> (r.stage, r.key))
        e.stage_reports
    in
    Alcotest.(check (list (pair string string)))
      (what ^ ": planned keys equal executed keys")
      actual planned;
    Alcotest.(check string)
      (what ^ ": request_key is the projection key")
      (List.assoc "projection" actual)
      (Experiment.request_key cfg)
  in
  check_plan "base"
    (Experiment.config ~seed:13 ~max_random_vectors:32 ~domains:1 c);
  check_plan "optional stages"
    (Experiment.config ~seed:13 ~max_random_vectors:32 ~domains:1
       ~mc:(Experiment.mc ~dies:500 ())
       ~bootstrap:20 ~ndet:3 c)

let test_stage_keys_engine_sensitivity () =
  (* The fault-sim stage key must depend on the engine variant (the cached
     artifact carries per-engine stats counters), and every upstream stage
     key must not.  Downstream of fault-sim, only projection digests it. *)
  let c = Dl_netlist.Benchmarks.c432s_small () in
  let keys engine =
    Experiment.stage_keys
      (Experiment.config ~seed:13 ~max_random_vectors:32 ~domains:1
         ~sim_engine:engine c)
  in
  let base = keys Dl_fault.Fault_sim.Wide in
  List.iter
    (fun engine ->
      let other = keys engine in
      List.iter
        (fun stage ->
          Alcotest.(check string)
            (Printf.sprintf "%s key is engine-independent" stage)
            (List.assoc stage base) (List.assoc stage other))
        [ "mapping"; "atpg"; "fault-universe"; "layout-ifa"; "swift" ];
      List.iter
        (fun stage ->
          if List.assoc stage base = List.assoc stage other then
            Alcotest.failf "%s key did not change across engine variants"
              stage)
        [ "fault-sim"; "projection" ])
    Dl_fault.Fault_sim.[ Reference; Flat; Event; Pruned ]

let test_serve_loopback_oracle_registered () =
  match Dl_check.Oracle.find "serve-loopback" with
  | None -> Alcotest.fail "serve-loopback oracle is not registered"
  | Some { kind = Dl_check.Oracle.Sweep f; _ } -> (
      match f ~seed:3 with
      | None -> ()
      | Some msg -> Alcotest.failf "oracle failed: %s" msg)
  | Some _ -> Alcotest.fail "serve-loopback should be a sweep check"

(* --- served_to_json validity ---------------------------------------------- *)

(* A strict-enough RFC 8259 parser to referee the hand-rolled emitter:
   objects, arrays, strings (with escape decoding), numbers, true/false/
   null.  Raises Failure on anything else, including trailing garbage. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

let json_parse s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let next () =
    if !pos >= len then failwith "json: eof";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    let g = next () in
    if g <> c then failwith (Printf.sprintf "json: expected %c, got %c" c g)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          (match next () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              let hex = String.init 4 (fun _ -> next ()) in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> failwith "json: bad \\u escape"
              in
              (* The emitter only uses \u for C0 controls; decoding those
                 as a raw byte is exact. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else failwith "json: unexpected non-ASCII \\u escape"
          | c -> failwith (Printf.sprintf "json: bad escape \\%c" c));
          go ())
      | c when Char.code c < 0x20 ->
          failwith "json: raw control char in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
        expect '{';
        skip_ws ();
        if peek () = Some '}' then (expect '}'; Jobj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> List.rev ((k, v) :: acc)
            | c -> failwith (Printf.sprintf "json: bad object sep %c" c)
          in
          Jobj (members [])
        end
    | Some '[' ->
        expect '[';
        skip_ws ();
        if peek () = Some ']' then (expect ']'; Jarr [])
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elems (v :: acc)
            | ']' -> List.rev (v :: acc)
            | c -> failwith (Printf.sprintf "json: bad array sep %c" c)
          in
          Jarr (elems [])
        end
    | Some 't' ->
        String.iter expect "true";
        Jbool true
    | Some 'f' ->
        String.iter expect "false";
        Jbool false
    | Some 'n' ->
        String.iter expect "null";
        Jnull
    | Some _ ->
        let start = !pos in
        while
          !pos < len
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          incr pos
        done;
        if !pos = start then failwith "json: unexpected character";
        let tok = String.sub s start (!pos - start) in
        Jnum
          (match float_of_string_opt tok with
          | Some f -> f
          | None -> failwith (Printf.sprintf "json: bad number %S" tok))
    | None -> failwith "json: eof"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then failwith "json: trailing garbage";
  v

let served_with ~title ~summary_text =
  {
    P.payload =
      {
        P.circuit_title = title;
        vectors = 12;
        stuck_fault_count = 34;
        realistic_fault_count = 56;
        t_final = 0.97;
        theta_final = 0.91;
        gamma_final = 0.88;
        theta_iddq_final = 0.93;
        target_yield = 0.75;
        summary =
          {
            Dl_store.Artifact.text = summary_text;
            fit_r = 1.9;
            fit_theta_max = 0.97;
            fit_rmse = 0.01;
            fit_rmse_log10 = true;
            scale_factor = 1.25;
          };
        request_key = "abc123";
        stage_hits = 3;
        stage_misses = 2;
      };
    coalesced = false;
    service_ms = 7.5;
  }

let adversarial_titles =
  [
    "plain";
    "";
    "double\"quote";
    "back\\slash";
    "new\nline and tab\t";
    "control\x01\x1fchars";
    "utf8 caf\xc3\xa9 \xcf\x84";
    "raw latin-1 \xa5 byte";
    "\\u0000 literal, not an escape";
  ]

(* Regression for the double-escaping bug: [%S] applied to an already
   json-escaped title turned bytes >= 0x80 into invalid "\165"-style
   escapes and re-escaped every backslash. *)
let test_served_json_adversarial_titles () =
  List.iter
    (fun title ->
      let s = served_with ~title ~summary_text:("summary of " ^ title) in
      let text = P.served_to_json s in
      match json_parse text with
      | Jobj fields -> (
          match List.assoc_opt "circuit" fields with
          | Some (Jstr decoded) ->
              Alcotest.(check string)
                (Printf.sprintf "title %S round-trips" title)
                title decoded
          | _ -> Alcotest.failf "no circuit string in %s" text)
      | _ -> Alcotest.failf "top level is not an object: %s" text
      | exception Failure m ->
          Alcotest.failf "invalid JSON for title %S: %s\n%s" title m text)
    adversarial_titles

let qcheck_served_json_parses =
  QCheck.Test.make ~name:"served_to_json always parses" ~count:300
    QCheck.(
      pair
        (string_of_size (Gen.int_bound 30))
        (string_of_size (Gen.int_bound 60)))
    (fun (title, summary_text) ->
      let s = served_with ~title ~summary_text in
      match json_parse (P.served_to_json s) with
      | Jobj fields -> (
          match (List.assoc_opt "circuit" fields, List.assoc_opt "summary" fields) with
          | Some (Jstr t), Some (Jstr sm) -> t = title && sm = summary_text
          | _ -> false)
      | _ -> false)

let test_stats_empty_percentiles_are_zero () =
  let m = Dl_serve.Metrics.create () in
  let s = Dl_serve.Metrics.snapshot m ~queue_depth:0 ~in_flight:0 in
  Alcotest.(check (float 0.0)) "p50 = 0 before first request" 0.0 s.P.p50_ms;
  Alcotest.(check (float 0.0)) "p99 = 0" 0.0 s.P.p99_ms;
  Alcotest.(check (float 0.0)) "p999 = 0" 0.0 s.P.p999_ms;
  (* And the JSON-adjacent rendering path stays finite. *)
  Alcotest.(check bool) "pp_stats renders" true
    (String.length (Format.asprintf "%a" P.pp_stats s) > 0)

(* --- load generator -------------------------------------------------------- *)

module L = Dl_serve.Load_gen

let load_cfg ?(seed = 5) () =
  L.config ~rate:40.0 ~duration:2.0
    ~mix:[ ("c432s_small", 2); ("xor-heavy", 1) ]
    ~seed ~gates:60 ~distinct:3 ~deadline_ms:(100, 400) ()

let test_load_plan_deterministic () =
  let cfg = load_cfg () in
  let a = L.plan cfg and b = L.plan cfg in
  Alcotest.(check bool) "same plan" true (eq a b);
  Alcotest.(check string) "byte-identical trace" (L.trace_to_string cfg a)
    (L.trace_to_string cfg b);
  let c = L.plan (load_cfg ~seed:6 ()) in
  Alcotest.(check bool) "different seed, different trace" false
    (L.trace_to_string cfg a = L.trace_to_string (load_cfg ~seed:6 ()) c)

let test_load_plan_shape () =
  let cfg = load_cfg () in
  let plan = L.plan cfg in
  Alcotest.(check bool) "non-empty" true (Array.length plan > 0);
  Array.iteri
    (fun i (p : L.planned) ->
      Alcotest.(check int) "indexed in order" i p.L.index;
      Alcotest.(check bool) "arrival inside horizon" true
        (p.L.at_s >= 0.0 && p.L.at_s < cfg.L.duration);
      if i > 0 then
        Alcotest.(check bool) "arrivals non-decreasing" true
          (p.L.at_s >= plan.(i - 1).L.at_s);
      Alcotest.(check bool) "class from the mix" true
        (List.mem_assoc p.L.class_name cfg.L.mix);
      match p.L.deadline with
      | Some d -> Alcotest.(check bool) "deadline in range" true (d >= 100 && d <= 400)
      | None -> Alcotest.fail "deadline expected")
    plan;
  (* The distinct-seed pool bounds per-class variety, so coalescing has
     repeats to work with. *)
  let seeds_of cls =
    Array.to_list plan
    |> List.filter_map (fun (p : L.planned) ->
           if p.L.class_name = cls then Some p.L.job_seed else None)
    |> List.sort_uniq compare
  in
  List.iter
    (fun (cls, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed pool bounded" cls)
        true
        (List.length (seeds_of cls) <= cfg.L.distinct))
    cfg.L.mix

let test_load_plan_rate_scales () =
  let at rate =
    Array.length
      (L.plan (L.config ~rate ~duration:4.0 ~mix:[ ("c17", 1) ] ~seed:2 ()))
  in
  Alcotest.(check bool) "10x rate, more arrivals" true (at 50.0 > at 5.0)

let test_load_plan_rejects () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "unknown class" (fun () ->
      L.plan (L.config ~mix:[ ("no-such-class", 1) ] ()));
  expect_invalid "zero rate" (fun () -> L.plan (L.config ~rate:0.0 ()));
  expect_invalid "negative weight" (fun () ->
      L.plan (L.config ~mix:[ ("c17", -1) ] ()));
  expect_invalid "empty mix" (fun () -> L.plan (L.config ~mix:[] ()));
  expect_invalid "bad mix string" (fun () -> ignore (L.mix_of_string "c17:0"))

let test_load_mix_of_string () =
  Alcotest.(check (list (pair string int)))
    "weights parsed"
    [ ("c432s", 3); ("xor-heavy", 1); ("c17", 1) ]
    (L.mix_of_string "c432s:3, xor-heavy:1, c17")

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_request_roundtrip; qcheck_response_roundtrip ]
        @ [
            Alcotest.test_case "every byte flip rejected" `Quick
              test_every_byte_flip_rejected;
            Alcotest.test_case "every truncation rejected" `Quick
              test_truncation_rejected;
            Alcotest.test_case "frame io over socketpair" `Quick test_frame_io;
            Alcotest.test_case "mid-frame EOF is an error" `Quick
              test_frame_truncated_stream;
            Alcotest.test_case "oversized frame rejected" `Quick
              test_frame_oversized_rejected;
          ] );
      ( "job-queue",
        [
          Alcotest.test_case "enqueue, run, await, cache" `Quick
            test_queue_basic;
          Alcotest.test_case "coalesced submissions run once" `Quick
            test_queue_coalesce_single_execution;
          Alcotest.test_case "full queue rejects" `Quick
            test_queue_rejects_when_full;
          Alcotest.test_case "deadline expiry cancels queued job" `Quick
            test_queue_deadline_expiry;
          Alcotest.test_case "drain rejects and signals workers" `Quick
            test_queue_drain_rejects;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping + unknown benchmark" `Quick
            test_server_ping_and_unknown;
          Alcotest.test_case "bad spec rejected before queueing" `Quick
            test_server_rejects_bad_spec;
          Alcotest.test_case "negative budget or deadline rejected" `Quick
            test_job_spec_rejects_negative;
          Alcotest.test_case "served = direct run; inline bench" `Quick
            test_server_bit_identical_and_inline;
          Alcotest.test_case "concurrent identical requests coalesce" `Quick
            test_server_concurrent_coalescing;
          Alcotest.test_case "full queue rejects, not blocks" `Quick
            test_server_queue_full_rejects;
          Alcotest.test_case "deadline expires queued job" `Quick
            test_server_deadline_expires_queued_job;
          Alcotest.test_case "SIGTERM drains in-flight job" `Quick
            test_server_sigterm_drains;
          Alcotest.test_case "stale socket recovery, live socket refused"
            `Quick test_server_stale_socket_recovery;
        ] );
      ( "keys",
        [
          Alcotest.test_case "stage-key plan matches run" `Quick
            test_stage_keys_match_run_reports;
          Alcotest.test_case "fault-sim key digests the engine variant"
            `Quick test_stage_keys_engine_sensitivity;
          Alcotest.test_case "loopback oracle registered and passing" `Slow
            test_serve_loopback_oracle_registered;
        ] );
      ( "json",
        [
          Alcotest.test_case "adversarial titles stay valid JSON" `Quick
            test_served_json_adversarial_titles;
          QCheck_alcotest.to_alcotest qcheck_served_json_parses;
          Alcotest.test_case "empty-window percentiles are 0.0" `Quick
            test_stats_empty_percentiles_are_zero;
        ] );
      ( "load-gen",
        [
          Alcotest.test_case "plan and trace deterministic" `Quick
            test_load_plan_deterministic;
          Alcotest.test_case "plan shape" `Quick test_load_plan_shape;
          Alcotest.test_case "rate scales arrivals" `Quick
            test_load_plan_rate_scales;
          Alcotest.test_case "invalid configs rejected" `Quick
            test_load_plan_rejects;
          Alcotest.test_case "mix parsing" `Quick test_load_mix_of_string;
        ] );
    ]
