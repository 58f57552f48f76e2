(* Replication and failover: the repl codec and follower mark, a
   follower catching up over the wire and serving reads, slow-follower
   eviction, the thread budget of a replicated pair, garbage on the
   replication link from either end, client deadlines, WAL
   append-resume, and the headline acceptance test — kill the leader
   mid-churn at an op boundary, promote the follower, let the
   self-healing client redirect, and the final digest equals an
   uninterrupted single-server run. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Srv = Wdm_server
module Tel = Wdm_telemetry
module Churn = Wdm_traffic.Churn

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

(* Undersized below the Theorem-1 minimum so churn produces both
   admissions and refusals — refused connects are committed ops too,
   and must replicate. *)
let topo = Topology.make_exn ~n:3 ~m:4 ~r:3 ~k:2

let make_net ?telemetry () =
  Network.create
    ~config:{ Network.Config.default with telemetry }
    ~construction:Network.Msw_dominant ~output_model:Model.MSW topo

let socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wdmnet_repl_%d_%d.sock" (Unix.getpid ()) !counter)

let sock () = Srv.Server.Unix_socket (socket_path ())

let unix_path srv =
  match Srv.Server.address srv with
  | Srv.Server.Unix_socket p -> p
  | Srv.Server.Tcp _ -> Alcotest.fail "expected unix socket"

let repl_payload encode msg =
  let b = Buffer.create 32 in
  encode b msg;
  Buffer.contents b

let subscribe_payload =
  repl_payload P.Repl.encode_to_leader
    (P.Repl.Subscribe { epoch = 0; last_seq = -1 })

let temp_dir () =
  let dir = Filename.temp_file "wdmnet_repl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let wait_for ?(timeout = 10.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || (Unix.gettimeofday () -. t0 < timeout)
       && begin
            Thread.delay 0.01;
            go ()
          end
  in
  go ()

let with_client srv f =
  match Srv.Client.connect (Srv.Server.address srv) with
  | Error e ->
    Alcotest.fail ("client connect: " ^ Srv.Client.error_to_string e)
  | Ok c -> Fun.protect ~finally:(fun () -> Srv.Client.close c) (fun () -> f c)

let counter_of sink name =
  Option.value ~default:0 (Tel.Metrics.find_counter (Tel.Sink.snapshot sink) name)

(* --- codec roundtrips ---------------------------------------------------- *)

let test_to_leader_roundtrip () =
  List.iter
    (fun msg ->
      let b = Buffer.create 32 in
      P.Repl.encode_to_leader b msg;
      match P.Repl.to_leader_of_string (Buffer.contents b) with
      | Ok back ->
        Alcotest.(check string)
          "to_leader"
          (Format.asprintf "%a" P.Repl.pp_to_leader msg)
          (Format.asprintf "%a" P.Repl.pp_to_leader back)
      | Error e -> Alcotest.fail e)
    [
      P.Repl.Subscribe { epoch = 0; last_seq = -1 };
      P.Repl.Subscribe { epoch = 123456789; last_seq = 42 };
      P.Repl.Ack { seq = 7; digest = 987654321 };
    ]

let test_to_follower_roundtrip () =
  let c = conn (ep 1 1) [ ep 2 1; ep 5 1 ] in
  List.iter
    (fun msg ->
      let b = Buffer.create 64 in
      P.Repl.encode_to_follower b msg;
      match P.Repl.to_follower_of_string (Buffer.contents b) with
      | Ok back ->
        Alcotest.(check string)
          "to_follower"
          (Format.asprintf "%a" P.Repl.pp_to_follower msg)
          (Format.asprintf "%a" P.Repl.pp_to_follower back)
      | Error e -> Alcotest.fail e)
    [
      P.Repl.Init_snapshot { epoch = 5; seq = 10; state = "\x00\x01binary" };
      P.Repl.Init_resume { epoch = 5; seq = 10 };
      P.Repl.Rep_op { seq = 11; op = P.Op.Connect c };
      P.Repl.Rep_op { seq = 12; op = P.Op.Disconnect 3 };
      P.Repl.Rep_digest { seq = 64; digest = 123456 };
      P.Repl.Goodbye { reason = "slow follower" };
    ]

let test_promote_request_roundtrip () =
  let b = Buffer.create 16 in
  P.Resp.encode_request b P.Resp.Promote;
  let r = P.Wire.reader (Buffer.contents b) in
  (match P.Resp.decode_request r with
  | P.Resp.Promote -> ()
  | _ -> Alcotest.fail "Promote changed shape over the codec");
  P.Wire.expect_end r;
  List.iter
    (fun resp ->
      let b = Buffer.create 32 in
      P.Resp.encode b resp;
      match P.Resp.decode_string (Buffer.contents b) with
      | Ok back ->
        Alcotest.(check bool)
          (Format.asprintf "%a" P.Resp.pp resp)
          true (P.Resp.equal resp back)
      | Error e -> Alcotest.fail e)
    [
      P.Resp.Not_leader { leader = "tcp:10.0.0.1:7000" };
      P.Resp.Not_leader { leader = "" };
      P.Resp.Promoted { seq = 12345 };
    ]

let test_mark_roundtrip () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = Filename.concat dir "follower.wal" in
  Alcotest.(check bool) "no mark yet" true (P.Repl.load_mark ~wal = None);
  P.Repl.save_mark ~wal { P.Repl.epoch = 77; base_seq = 42 };
  (match P.Repl.load_mark ~wal with
  | Some { P.Repl.epoch = 77; base_seq = 42 } -> ()
  | Some m ->
    Alcotest.fail
      (Printf.sprintf "wrong mark: epoch %d base %d" m.P.Repl.epoch
         m.P.Repl.base_seq)
  | None -> Alcotest.fail "mark did not load");
  (* overwrite is atomic and wins *)
  P.Repl.save_mark ~wal { P.Repl.epoch = 78; base_seq = 100 };
  (match P.Repl.load_mark ~wal with
  | Some { P.Repl.epoch = 78; base_seq = 100 } -> ()
  | _ -> Alcotest.fail "overwritten mark did not load");
  (* damage reads as None, never an exception *)
  let oc = open_out (P.Repl.mark_path ~wal) in
  output_string oc "not a mark file";
  close_out oc;
  Alcotest.(check bool) "corrupt mark is None" true
    (P.Repl.load_mark ~wal = None);
  P.Repl.remove_mark ~wal;
  Alcotest.(check bool) "removed" true (P.Repl.load_mark ~wal = None);
  (* removing a removed mark is fine *)
  P.Repl.remove_mark ~wal

(* --- follower catch-up over the wire -------------------------------------- *)

let churn_steps = 400
let seed = 20260807

let run_churn ~sink sut =
  Churn.run ~telemetry:sink
    (Random.State.make [| seed |])
    ~spec:(Topology.spec topo) ~model:Model.MSW
    ~fanout:(Wdm_traffic.Fanout.Zipf { max = 6; s = 1.0 })
    ~steps:churn_steps ~teardown_bias:0.3 sut

let inproc_sut net checksum =
  {
    Churn.connect =
      (fun c ->
        match Network.connect net c with
        | Ok route ->
          checksum := P.Op.route_checksum !checksum route;
          Ok route.Network.id
        | Error e -> Error e);
    disconnect = (fun id -> ignore (Network.disconnect net id));
  }

let test_follower_catches_up () =
  let leader_sink = Tel.Sink.create () in
  let follower_sink = Tel.Sink.create () in
  let leader =
    Srv.Server.start_backend ~telemetry:leader_sink ~digest_every:32
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop leader) @@ fun () ->
  let follower =
    Srv.Server.start_backend ~telemetry:follower_sink
      ~follower:{ Srv.Server.leader = Srv.Server.address leader; wal = None }
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  Alcotest.(check bool) "follower role" true
    (Srv.Server.role follower = Srv.Server.Follower);
  Alcotest.(check bool) "leader role" true
    (Srv.Server.role leader = Srv.Server.Leader);
  (* wait for the subscription handshake (snapshot sent) before the
     churn starts, so every churn op travels the stream — otherwise
     early ops ride the snapshot and the sent-ops counter undershoots *)
  Alcotest.(check bool) "follower linked" true
    (wait_for (fun () ->
         counter_of leader_sink "repl_snapshots_sent_total" >= 1));
  (* drive a seeded churn against the leader *)
  with_client leader (fun c ->
      ignore (run_churn ~sink:(Tel.Sink.create ()) (Srv.Client.churn_sut c)));
  let target = Srv.Server.applied leader in
  Alcotest.(check bool) "leader committed ops" true (target > 0);
  (* the follower converges to the same op count and the same state *)
  Alcotest.(check bool) "follower caught up" true
    (wait_for (fun () -> Srv.Server.applied follower >= target));
  let leader_digest = with_client leader Srv.Client.digest in
  let follower_digest = with_client follower Srv.Client.digest in
  (match (leader_digest, follower_digest) with
  | Ok a, Ok b -> Alcotest.(check int) "digest equal across roles" a b
  | _ -> Alcotest.fail "digest request failed");
  (* a mutation at the follower is refused with a typed redirect *)
  with_client follower (fun c ->
      match
        Srv.Client.request c
          (P.Resp.Admit (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ])))
      with
      | Ok (P.Resp.Not_leader _) -> ()
      | Ok resp ->
        Alcotest.fail
          (Format.asprintf "expected Not_leader, got %a" P.Resp.pp resp)
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
  (* promoting the leader itself is refused *)
  with_client leader (fun c ->
      match Srv.Client.promote c with
      | Error (Srv.Client.Protocol _) -> ()
      | Ok _ -> Alcotest.fail "promoting the leader should fail"
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
  (* telemetry: the leader counted the stream, the follower the applies *)
  Alcotest.(check int) "one snapshot sent" 1
    (counter_of leader_sink "repl_snapshots_sent_total");
  Alcotest.(check bool) "ops streamed" true
    (counter_of leader_sink "repl_ops_sent_total" >= target);
  Alcotest.(check int) "one snapshot received" 1
    (counter_of follower_sink "repl_snapshots_received_total");
  Alcotest.(check bool) "digests verified" true
    (counter_of leader_sink "repl_digest_checks_total" > 0);
  Alcotest.(check int) "no digest failures" 0
    (counter_of leader_sink "repl_digest_failures_total");
  Alcotest.(check int) "no follower mismatches" 0
    (counter_of follower_sink "repl_digest_mismatch_total")

(* --- slow-follower eviction ----------------------------------------------- *)

(* A fake follower: subscribes, reads the snapshot, then goes silent.
   The leader's outbox (bounded tight here by the resume window) fills
   behind the tiny SO_SNDBUF and the leader must evict — admission
   never stalls. *)
let test_slow_follower_eviction () =
  let sink = Tel.Sink.create () in
  let srv =
    Srv.Server.start_backend ~telemetry:sink ~resume_window:8 ~conn_sndbuf:4096
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX (unix_path srv));
  Srv.Protocol.write_all fd Srv.Protocol.follower_hello;
  (match Srv.Protocol.read_exactly fd P.Wire.header_len with
  | Srv.Protocol.Exact hello ->
    Alcotest.(check bool) "server hello" true
      (Result.is_ok (Srv.Protocol.check_server_hello hello))
  | Srv.Protocol.Eof_clean | Srv.Protocol.Eof_torn _ ->
    Alcotest.fail "no server hello");
  Srv.Protocol.send_frame fd subscribe_payload;
  (match Srv.Protocol.recv_frame fd with
  | Srv.Protocol.Frame payload -> (
    match P.Repl.to_follower_of_string payload with
    | Ok (P.Repl.Init_snapshot _) -> ()
    | Ok msg ->
      Alcotest.fail
        (Format.asprintf "expected Init_snapshot, got %a" P.Repl.pp_to_follower
           msg)
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "no init frame");
  (* ... and now the fake follower never reads again *)
  with_client srv (fun c ->
      let connection = conn (ep 1 1) [ ep 4 1 ] in
      let evicted = ref false in
      let rounds = ref 0 in
      while (not !evicted) && !rounds < 20_000 do
        incr rounds;
        (match Srv.Client.request c (P.Resp.Admit (P.Op.Connect connection)) with
        | Ok (P.Resp.Admitted { route; _ }) ->
          ignore
            (Srv.Client.request c
               (P.Resp.Admit (P.Op.Disconnect route.Network.id)))
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
        if !rounds mod 50 = 0 then
          evicted := counter_of sink "repl_evictions_total" > 0
      done;
      Alcotest.(check bool) "slow follower evicted" true
        (!evicted || counter_of sink "repl_evictions_total" > 0);
      (* the leader kept serving throughout and still answers *)
      match Srv.Client.digest c with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e))

(* --- thread budget ---------------------------------------------------------- *)

(* Linux-only; [None] elsewhere and the count is skipped.  Read until
   two samples agree: a thread can linger in /proc for a moment after
   [Thread.join] returns. *)
let threads_now () =
  let count () =
    match Sys.readdir "/proc/self/task" with
    | tasks -> Some (Array.length tasks)
    | exception Sys_error _ -> None
  in
  let rec settle prev =
    Thread.delay 0.05;
    let n = count () in
    if n = prev then n else settle n
  in
  settle (count ())

(* Both ends of replication run on the servers' event loops, and a
   server runs one thread: attaching a follower to a running leader adds
   exactly the follower's loop thread, and stopping the follower
   returns it. *)
let test_follower_thread_budget () =
  let leader_sink = Tel.Sink.create () in
  let leader =
    Srv.Server.start_backend ~telemetry:leader_sink
      ~backend:(P.Backend.Net (make_net ()))
      (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop leader) @@ fun () ->
  let before = threads_now () in
  let follower =
    Srv.Server.start_backend
      ~follower:{ Srv.Server.leader = Srv.Server.address leader; wal = None }
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then Srv.Server.stop follower)
  @@ fun () ->
  (* one op and one digest round trip, so every replication path ran *)
  with_client leader (fun c ->
      ignore
        (Srv.Client.request c
           (P.Resp.Admit (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ])))));
  Alcotest.(check bool) "follower caught up and acked" true
    (wait_for (fun () ->
         Srv.Server.applied follower >= Srv.Server.applied leader
         && counter_of leader_sink "repl_digest_checks_total" >= 1));
  (match (before, threads_now ()) with
  | Some b, Some a -> Alcotest.(check int) "the loop, nothing else" (b + 1) a
  | _ -> ());
  Srv.Server.stop follower;
  stopped := true;
  match before with
  | Some b ->
    Alcotest.(check bool) "stop returns the thread" true
      (wait_for (fun () -> threads_now () = Some b))
  | None -> ()

(* --- promote racing stop ------------------------------------------------------- *)

(* [promote] and [stop] entered from two threads at once: both must
   return, and the promote answers either with the promotion or with
   "server is stopped" — never waits on a loop that has already
   exited.  The start order and a small head start alternate across
   rounds so both interleavings get hit. *)
let test_promote_races_stop () =
  let leader =
    Srv.Server.start_backend ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop leader) @@ fun () ->
  for round = 1 to 100 do
    let follower =
      Srv.Server.start_backend
        ~follower:{ Srv.Server.leader = Srv.Server.address leader; wal = None }
        ~backend:(P.Backend.Net (make_net ())) (sock ())
    in
    let promoted = Atomic.make None and stopped = Atomic.make false in
    let head_start = float_of_int (round mod 4) *. 0.0002 in
    let promote () =
      if round mod 2 = 1 then Thread.delay head_start;
      Atomic.set promoted (Some (Srv.Server.promote follower))
    and stop () =
      if round mod 2 = 0 then Thread.delay head_start;
      Srv.Server.stop follower;
      Atomic.set stopped true
    in
    let threads =
      if round mod 2 = 0 then [ Thread.create promote (); Thread.create stop () ]
      else [ Thread.create stop (); Thread.create promote () ]
    in
    if
      not
        (wait_for ~timeout:5.0 (fun () ->
             Atomic.get promoted <> None && Atomic.get stopped))
    then Alcotest.failf "round %d: promote or stop still blocked after 5 s" round;
    List.iter Thread.join threads;
    match Atomic.get promoted with
    | Some (Ok _) | Some (Error "server is stopped") -> ()
    | Some (Error e) -> Alcotest.failf "round %d: promote answered %S" round e
    | None -> assert false
  done

(* --- garbage on the replication link ---------------------------------------- *)

(* A well-sized frame whose CRC does not match its payload. *)
let bad_crc_frame payload =
  let f = Bytes.of_string (P.Wire.frame payload) in
  Bytes.set f 4 (Char.chr (Char.code (Bytes.get f 4) lxor 0xff));
  Bytes.to_string f

(* A well-framed message with a tag neither direction knows. *)
let unknown_tag_frame = P.Wire.frame "\x7f"

(* Read until the peer closes; [false] if it is still open after 5 s. *)
let closed_by_peer fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> true
    | _ -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
    | exception Unix.Unix_error _ -> false
  in
  go ()

(* A fake follower sending garbage after its 'F' hello is closed on its
   own, while a client on the same loop keeps getting answers. *)
let test_replica_garbage_closes_only_that_link () =
  let sink = Tel.Sink.create () in
  let srv =
    Srv.Server.start_backend ~telemetry:sink
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop srv) @@ fun () ->
  let quit = ref false and answered = ref 0 and failure = ref None in
  let client =
    Thread.create
      (fun () ->
        match Srv.Client.connect (Srv.Server.address srv) with
        | Error e -> failure := Some (Srv.Client.error_to_string e)
        | Ok c ->
          while not !quit do
            match Srv.Client.digest c with
            | Ok _ -> incr answered
            | Error e ->
              failure := Some (Srv.Client.error_to_string e);
              quit := true
          done;
          Srv.Client.close c)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      quit := true;
      Thread.join client)
  @@ fun () ->
  List.iter
    (fun (what, bytes) ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      Unix.connect fd (Unix.ADDR_UNIX (unix_path srv));
      Srv.Protocol.write_all fd Srv.Protocol.follower_hello;
      Srv.Protocol.write_all fd bytes;
      Alcotest.(check bool) (what ^ ": closed by the leader") true
        (closed_by_peer fd);
      let seen = !answered in
      Alcotest.(check bool) (what ^ ": the client is still answered") true
        (wait_for (fun () -> !answered > seen || !failure <> None));
      Alcotest.(check (option string)) (what ^ ": no client error") None
        !failure)
    [
      ("bad CRC", bad_crc_frame subscribe_payload);
      ("unknown tag", unknown_tag_frame);
      ( "ack before subscribe",
        P.Wire.frame
          (repl_payload P.Repl.encode_to_leader
             (P.Repl.Ack { seq = 0; digest = 0 })) );
      ( "bad CRC after subscribe",
        P.Wire.frame subscribe_payload
        ^ bad_crc_frame
            (repl_payload P.Repl.encode_to_leader
               (P.Repl.Ack { seq = 0; digest = 0 })) );
    ];
  Alcotest.(check (option (float 0.))) "no follower left attached" (Some 0.)
    (Tel.Metrics.find_gauge (Tel.Sink.snapshot sink) "repl_followers")

(* A fake leader on a fresh unix socket, for [body] to point a follower
   at: every dial that completes the follower hello gets the server
   hello, and when its first frame is a Subscribe, [on_subscribe] runs
   with the link and the subscribe's [last_seq].  The link closes when
   [on_subscribe] returns; the fake stops when [body] does. *)
let with_fake_leader on_subscribe body =
  let path = socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let quit = ref false in
  let serve_link fd =
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    match Srv.Protocol.read_exactly fd P.Wire.header_len with
    | Srv.Protocol.Exact hello
      when Result.is_ok (Srv.Protocol.check_follower_hello hello) -> (
      Srv.Protocol.write_all fd Srv.Protocol.server_hello;
      match Srv.Protocol.recv_frame fd with
      | Srv.Protocol.Frame p -> (
        match P.Repl.to_leader_of_string p with
        | Ok (P.Repl.Subscribe { last_seq; _ }) -> on_subscribe fd last_seq
        | _ -> ())
      | _ -> ())
    | _ -> ()
  in
  let fake =
    Thread.create
      (fun () ->
        while not !quit do
          match Unix.select [ lfd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ ->
            let fd, _ = Unix.accept lfd in
            (try serve_link fd with Unix.Unix_error _ -> ());
            Unix.close fd
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      quit := true;
      Thread.join fake;
      Unix.close lfd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> body path)

(* A fake leader answers every Subscribe with garbage: a bad-CRC frame,
   then a well-framed unknown tag, alternately.  The follower drops each
   link, redials, keeps answering reads meanwhile, and stops promptly. *)
let test_follower_drops_garbage_link () =
  let links = ref 0 in
  with_fake_leader (fun fd _ ->
      incr links;
      Srv.Protocol.write_all fd
        (if !links mod 2 = 1 then
           bad_crc_frame
             (repl_payload P.Repl.encode_to_follower
                (P.Repl.Rep_digest { seq = 0; digest = 0 }))
         else unknown_tag_frame);
      (* hold the link until the follower hangs up *)
      ignore (Srv.Protocol.recv_frame fd))
  @@ fun path ->
  let sink = Tel.Sink.create () in
  let net = make_net () in
  let digest = Network.digest net in
  let follower =
    Srv.Server.start_backend ~telemetry:sink
      ~follower:{ Srv.Server.leader = Srv.Server.Unix_socket path; wal = None }
      ~backend:(P.Backend.Net net) (sock ())
  in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then Srv.Server.stop follower)
  @@ fun () ->
  Alcotest.(check bool) "dropped and redialed" true
    (wait_for (fun () -> counter_of sink "repl_reconnects_total" >= 2));
  with_client follower (fun c ->
      match Srv.Client.digest c with
      | Ok d -> Alcotest.(check int) "still answering reads" digest d
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e));
  Alcotest.(check int) "nothing applied from garbage" 0
    (Srv.Server.applied follower);
  let t0 = Unix.gettimeofday () in
  Srv.Server.stop follower;
  stopped := true;
  Alcotest.(check bool) "stops promptly" true (Unix.gettimeofday () -. t0 < 2.0)

(* A follower replays each streamed op through [Resp.replay], as crash
   recovery does: a [Rep_op] whose repair outcome the follower does not
   reproduce is a divergence, so it drops the link and resyncs by
   snapshot instead of applying the op silently. *)
let test_follower_resyncs_on_diverged_repair () =
  let fresh = make_net () in
  let frame msg = P.Wire.frame (repl_payload P.Repl.encode_to_follower msg) in
  let links = ref 0 in
  with_fake_leader (fun fd _ ->
      incr links;
      Srv.Protocol.write_all fd
        (frame
           (P.Repl.Init_snapshot
              { epoch = 1; seq = 0;
                state = P.Backend.encode_state (P.Backend.Net fresh) }));
      (* the first link streams an admissible repair recorded as
         dropped *)
      if !links = 1 then
        Srv.Protocol.write_all fd
          (frame
             (P.Repl.Rep_op
                { seq = 1;
                  op =
                    P.Op.Repair
                      { connection = conn (ep 1 1) [ ep 4 1 ];
                        rehomed = false } }));
      (* hold the link, with no read timeout, until the follower hangs
         up *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.0;
      ignore (Srv.Protocol.recv_frame fd))
  @@ fun path ->
  let sink = Tel.Sink.create () in
  let follower =
    Srv.Server.start_backend ~telemetry:sink
      ~follower:{ Srv.Server.leader = Srv.Server.Unix_socket path; wal = None }
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  Alcotest.(check bool) "resynced by snapshot" true
    (wait_for (fun () ->
         counter_of sink "repl_snapshots_received_total" >= 2));
  Alcotest.(check int) "the diverged op is not applied" 0
    (Srv.Server.applied follower);
  with_client follower (fun c ->
      match Srv.Client.digest c with
      | Ok d ->
        Alcotest.(check int) "the leader's state" (Network.digest fresh) d
      | Error e -> Alcotest.fail (Srv.Client.error_to_string e))

(* A follower that installed a snapshot has a position: when the link
   drops, its redial subscribes from the last op it applied, so the
   leader's resume ring can close the gap without another snapshot.  A
   fake leader answers the first subscribe with a snapshot at seq 0 and
   one op, then drops the link, and records every subscribe it gets. *)
let test_follower_redial_resumes () =
  let fresh = make_net () in
  let frame msg = P.Wire.frame (repl_payload P.Repl.encode_to_follower msg) in
  let subscribes = ref [] in
  with_fake_leader (fun fd last_seq ->
      subscribes := !subscribes @ [ last_seq ];
      if List.length !subscribes = 1 then
        Srv.Protocol.write_all fd
          (frame
             (P.Repl.Init_snapshot
                { epoch = 1; seq = 0;
                  state = P.Backend.encode_state (P.Backend.Net fresh) })
          ^ frame
              (P.Repl.Rep_op
                 { seq = 1; op = P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]) }))
        (* and the link drops *)
      else begin
        (* hold the link, with no read timeout, until the follower
           hangs up *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.0;
        ignore (Srv.Protocol.recv_frame fd)
      end)
  @@ fun path ->
  let follower =
    Srv.Server.start_backend
      ~follower:{ Srv.Server.leader = Srv.Server.Unix_socket path; wal = None }
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  Alcotest.(check bool) "redialed" true
    (wait_for (fun () -> List.length !subscribes >= 2));
  Alcotest.(check int) "the streamed op applied" 1 (Srv.Server.applied follower);
  Alcotest.(check (list int))
    "a snapshot first, then a resume from op 1" [ -1; 1 ]
    (List.filteri (fun i _ -> i < 2) !subscribes)

(* --- client deadlines ------------------------------------------------------ *)

let test_connect_timeout () =
  (* a listener that never completes the handshake: the dial succeeds,
     the hello read must hit the deadline, not hang *)
  let path = socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  let t0 = Unix.gettimeofday () in
  match Srv.Client.connect ~deadline:0.2 (Srv.Server.Unix_socket path) with
  | Error Srv.Client.Timeout ->
    Alcotest.(check bool) "timed out promptly" true
      (Unix.gettimeofday () -. t0 < 5.0)
  | Ok c ->
    Srv.Client.close c;
    Alcotest.fail "handshake against a mute listener should time out"
  | Error e ->
    Alcotest.fail ("expected Timeout, got: " ^ Srv.Client.error_to_string e)

let test_request_timeout_closes_client () =
  (* a server that handshakes, then sits on the request *)
  let path = socket_path () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept lfd in
        (match Srv.Protocol.read_exactly fd P.Wire.header_len with
        | Srv.Protocol.Exact _ ->
          Srv.Protocol.write_all fd Srv.Protocol.server_hello;
          (* hold the connection open well past the client deadline *)
          Thread.delay 0.6
        | Srv.Protocol.Eof_clean | Srv.Protocol.Eof_torn _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      Thread.join server)
  @@ fun () ->
  match Srv.Client.connect (Srv.Server.Unix_socket path) with
  | Error e -> Alcotest.fail ("connect: " ^ Srv.Client.error_to_string e)
  | Ok c ->
    (match Srv.Client.request ~deadline:0.2 c P.Resp.Get_digest with
    | Error Srv.Client.Timeout -> ()
    | Ok _ -> Alcotest.fail "unanswered request should time out"
    | Error e ->
      Alcotest.fail ("expected Timeout, got: " ^ Srv.Client.error_to_string e));
    (* the deadline expiring mid-exchange desyncs the stream: the
       client must be closed, and say so *)
    (match Srv.Client.request c P.Resp.Get_digest with
    | Error Srv.Client.Closed -> ()
    | _ -> Alcotest.fail "client should fail fast after a timeout");
    Srv.Client.close c

(* --- store resume and WAL truncation -------------------------------------- *)

let test_store_resume_continues_wal () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = Filename.concat dir "resume.wal" in
  let backend = P.Backend.Net (make_net ()) in
  let store = P.Store.start_backend ~wal backend in
  let log op =
    ignore (P.Resp.replay backend op);
    P.Store.log store op
  in
  log (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]));
  log (P.Op.Connect (conn (ep 2 1) [ ep 5 1 ]));
  P.Store.close store;
  (* reopen the same WAL in append mode *)
  match P.Store.resume_backend ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok (store2, r) ->
    Alcotest.(check int) "replayed the tail" 2 r.P.Store.b_replayed;
    Alcotest.(check int) "same state" (P.Backend.digest backend)
      (P.Backend.digest r.P.Store.backend);
    Alcotest.(check int) "record count continues" 2
      (P.Store.wal_records store2);
    let backend2 = r.P.Store.backend in
    ignore (P.Resp.replay backend2 (P.Op.Connect (conn (ep 3 1) [ ep 6 1 ])));
    P.Store.log store2 (P.Op.Connect (conn (ep 3 1) [ ep 6 1 ]));
    Alcotest.(check int) "appended" 3 (P.Store.wal_records store2);
    let final = P.Backend.digest backend2 in
    P.Store.close store2;
    (* the continued WAL recovers to the continued state *)
    (match P.Store.recover_backend ~wal () with
    | Ok r2 ->
      Alcotest.(check int) "recovered digest" final
        (P.Backend.digest r2.P.Store.backend)
    | Error e ->
      Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e))

let test_wal_truncate_fsyncs_the_cut () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "torn.wal" in
  let w = P.Wal.create path in
  P.Wal.append w (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]));
  P.Wal.append w (P.Op.Disconnect 0);
  P.Wal.close w;
  (* graft a torn record on the end *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o600 path in
  output_string oc "\x40\x00\x00\x00\xde\xad";
  close_out oc;
  let tear =
    match P.Wal.read path with
    | Ok { P.Wal.ops; tear = Some off; _ } ->
      Alcotest.(check int) "intact records" 2 (List.length ops);
      off
    | Ok { tear = None; _ } -> Alcotest.fail "tear not detected"
    | Error { reason; _ } -> Alcotest.fail reason
  in
  P.Wal.truncate_at path tear;
  Alcotest.(check int) "file cut at the tear" tear
    (Unix.stat path).Unix.st_size;
  (match P.Wal.read path with
  | Ok { P.Wal.ops; tear = None; _ } ->
    Alcotest.(check int) "records survive the cut" 2 (List.length ops)
  | Ok { tear = Some _; _ } -> Alcotest.fail "tear survived truncation"
  | Error { reason; _ } -> Alcotest.fail reason);
  (* and the truncated WAL accepts appends again *)
  let w2 = P.Wal.open_append ~records:2 path in
  P.Wal.append w2 (P.Op.Disconnect 1);
  Alcotest.(check int) "count seeded" 3 (P.Wal.records w2);
  P.Wal.close w2;
  match P.Wal.read path with
  | Ok { P.Wal.ops; tear = None; _ } ->
    Alcotest.(check int) "appended past the cut" 3 (List.length ops)
  | Ok { tear = Some _; _ } -> Alcotest.fail "append left a tear"
  | Error { reason; _ } -> Alcotest.fail reason

(* --- the acceptance test: failover under churn ----------------------------- *)

let test_failover_preserves_state () =
  (* reference: the same seeded churn, one process, no failover *)
  let ref_net = make_net () in
  let ref_sum = ref 0 in
  let ref_stats =
    run_churn ~sink:(Tel.Sink.create ()) (inproc_sut ref_net ref_sum)
  in
  let ref_digest = Network.digest ref_net in
  (* system under test: leader + follower, leader dies mid-run *)
  let leader =
    Srv.Server.start_backend ~digest_every:16
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  let follower =
    Srv.Server.start_backend
      ~follower:{ Srv.Server.leader = Srv.Server.address leader; wal = None }
      ~backend:(P.Backend.Net (make_net ())) (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop follower) @@ fun () ->
  let rc =
    Srv.Resilient.create ~dial_timeout:2.0 ~deadline:10.0
      [ Srv.Server.address leader; Srv.Server.address follower ]
  in
  Fun.protect ~finally:(fun () -> Srv.Resilient.close rc) @@ fun () ->
  let sum = ref 0 in
  let base =
    Srv.Resilient.churn_sut
      ~on_admit:(fun route -> sum := P.Op.route_checksum !sum route)
      rc
  in
  (* kill the leader at the 200th sut call — an op boundary: the
     graceful stop answers everything already executed, so the client
     never replays an applied op against the new leader *)
  let calls = ref 0 in
  let kill_at = 200 in
  let failover () =
    incr calls;
    if !calls = kill_at then begin
      Srv.Server.stop leader;
      let target = Srv.Server.applied leader in
      Alcotest.(check bool)
        "follower caught up before promotion" true
        (wait_for (fun () -> Srv.Server.applied follower >= target));
      match Srv.Server.promote follower with
      | Ok seq -> Alcotest.(check int) "promoted at the leader's seq" target seq
      | Error e -> Alcotest.fail ("promote: " ^ e)
    end
  in
  let sut =
    {
      Churn.connect =
        (fun c ->
          failover ();
          base.Churn.connect c);
      disconnect =
        (fun id ->
          failover ();
          base.Churn.disconnect id);
    }
  in
  let stats = run_churn ~sink:(Tel.Sink.create ()) sut in
  Alcotest.(check bool) "failover actually happened" true (!calls > kill_at);
  Alcotest.(check bool) "client healed itself" true
    (Srv.Resilient.reconnects rc > 0);
  Alcotest.(check bool) "new leader accepted mutations" true
    (Srv.Server.role follower = Srv.Server.Leader);
  (* the interrupted run is indistinguishable from the uninterrupted
     one: same driver tallies, same routes, same final state *)
  Alcotest.(check int) "attempts" ref_stats.Churn.attempts stats.Churn.attempts;
  Alcotest.(check int) "accepted" ref_stats.Churn.accepted stats.Churn.accepted;
  Alcotest.(check int) "blocked" ref_stats.Churn.blocked stats.Churn.blocked;
  Alcotest.(check int) "torn down" ref_stats.Churn.torn_down
    stats.Churn.torn_down;
  Alcotest.(check int) "route checksums" !ref_sum !sum;
  match Srv.Resilient.digest rc with
  | Ok d -> Alcotest.(check int) "digest equals uninterrupted run" ref_digest d
  | Error e -> Alcotest.fail (Srv.Client.error_to_string e)

(* A follower with its own WAL restarts from disk (mark + WAL) and
   resumes the stream instead of refetching a snapshot. *)
let test_follower_wal_resume () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = Filename.concat dir "follower.wal" in
  let leader_sink = Tel.Sink.create () in
  let leader =
    Srv.Server.start_backend ~telemetry:leader_sink
      ~backend:(P.Backend.Net (make_net ()))
      (sock ())
  in
  Fun.protect ~finally:(fun () -> Srv.Server.stop leader) @@ fun () ->
  let follower_cfg =
    { Srv.Server.leader = Srv.Server.address leader; wal = Some wal }
  in
  let follower =
    Srv.Server.start_backend ~follower:follower_cfg
      ~backend:(P.Backend.Net (make_net ()))
      (sock ())
  in
  (* phase 1: commit some ops, let the follower persist them *)
  with_client leader (fun c ->
      List.iter
        (fun op -> ignore (Srv.Client.request c (P.Resp.Admit op)))
        [
          P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]);
          P.Op.Connect (conn (ep 2 1) [ ep 5 1 ]);
          P.Op.Connect (conn (ep 3 1) [ ep 6 1 ]);
        ]);
  let target = Srv.Server.applied leader in
  Alcotest.(check bool) "follower caught up" true
    (wait_for (fun () -> Srv.Server.applied follower >= target));
  Srv.Server.stop follower;
  (match Srv.Server.current_store follower with
  | Some store -> P.Store.close store
  | None -> Alcotest.fail "follower with a wal should own a store");
  Alcotest.(check bool) "mark persisted" true (P.Repl.load_mark ~wal <> None);
  (* phase 2: more ops while the follower is down *)
  with_client leader (fun c ->
      ignore (Srv.Client.request c (P.Resp.Admit (P.Op.Disconnect 0))));
  let target2 = Srv.Server.applied leader in
  (* phase 3: restart from disk — the leader must answer with a
     resume, not a snapshot *)
  let snapshots_before = counter_of leader_sink "repl_snapshots_sent_total" in
  let follower2 =
    Srv.Server.start_backend ~follower:follower_cfg
      ~backend:(P.Backend.Net (make_net ()))
      (sock ())
  in
  Fun.protect
    ~finally:(fun () ->
      Srv.Server.stop follower2;
      match Srv.Server.current_store follower2 with
      | Some store -> P.Store.close store
      | None -> ())
  @@ fun () ->
  Alcotest.(check bool) "restarted follower caught up" true
    (wait_for (fun () -> Srv.Server.applied follower2 >= target2));
  Alcotest.(check bool) "leader resumed, no new snapshot" true
    (wait_for (fun () -> counter_of leader_sink "repl_resumes_total" > 0));
  Alcotest.(check int) "snapshot count unchanged" snapshots_before
    (counter_of leader_sink "repl_snapshots_sent_total");
  let leader_digest = with_client leader Srv.Client.digest in
  let follower_digest = with_client follower2 Srv.Client.digest in
  match (leader_digest, follower_digest) with
  | Ok a, Ok b -> Alcotest.(check int) "digest equal after resume" a b
  | _ -> Alcotest.fail "digest request failed"

let () =
  Alcotest.run "wdm_replication"
    [
      ( "codec",
        [
          Alcotest.test_case "to_leader roundtrip" `Quick
            test_to_leader_roundtrip;
          Alcotest.test_case "to_follower roundtrip" `Quick
            test_to_follower_roundtrip;
          Alcotest.test_case "promote request/response" `Quick
            test_promote_request_roundtrip;
          Alcotest.test_case "follower mark" `Quick test_mark_roundtrip;
        ] );
      ( "replication",
        [
          Alcotest.test_case "follower catches up" `Quick
            test_follower_catches_up;
          Alcotest.test_case "slow follower evicted" `Quick
            test_slow_follower_eviction;
          Alcotest.test_case "follower wal resume" `Quick
            test_follower_wal_resume;
          Alcotest.test_case "attaching a follower adds one thread" `Quick
            test_follower_thread_budget;
          Alcotest.test_case "promote racing stop returns" `Quick
            test_promote_races_stop;
          Alcotest.test_case "replica garbage closes only that link" `Quick
            test_replica_garbage_closes_only_that_link;
          Alcotest.test_case "follower drops a garbage link" `Quick
            test_follower_drops_garbage_link;
          Alcotest.test_case "follower resyncs on a diverged repair" `Quick
            test_follower_resyncs_on_diverged_repair;
          Alcotest.test_case "follower redial resumes after a snapshot" `Quick
            test_follower_redial_resumes;
        ] );
      ( "client",
        [
          Alcotest.test_case "connect timeout" `Quick test_connect_timeout;
          Alcotest.test_case "request timeout closes client" `Quick
            test_request_timeout_closes_client;
        ] );
      ( "store",
        [
          Alcotest.test_case "resume continues the WAL" `Quick
            test_store_resume_continues_wal;
          Alcotest.test_case "truncate fsyncs the cut" `Quick
            test_wal_truncate_fsyncs_the_cut;
        ] );
      ( "failover",
        [
          Alcotest.test_case "kill leader, promote, same digest" `Quick
            test_failover_preserves_state;
        ] );
    ]
