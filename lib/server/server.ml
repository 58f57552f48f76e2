module P = Wdm_persist
module Tel = Wdm_telemetry

type address = Tcp of string * int | Unix_socket of string

let pp_address ppf = function
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path

type role = Leader | Follower

type follower_config = { leader : address; wal : string option }

(* What the event loop believes a connection is.  Every accepted fd
   starts as [Chello]; the 8-byte hello routes it to the framed
   request stream, the observability plane, or the replication
   stream.  A follower's own link to its leader is a connection too,
   dialed by the loop rather than accepted. *)
type ckind =
  | Chello  (** awaiting the 8-byte hello *)
  | Creq  (** framed request stream *)
  | Chttp  (** observability scraper (/metrics, /healthz, ...) *)
  | Cfollower  (** leader side: an ['F'] peer that has not subscribed *)
  | Creplica  (** leader side: a subscribed follower *)
  | Cdial  (** follower side: dialing the leader, awaiting its hello *)
  | Clink  (** follower side: the live replication link *)

(* A connection belongs to the loop thread alone: every field below is
   read and written only there. *)
type client = {
  cid : int;
  fd : Unix.file_descr;
  mutable open_ : bool;
  mutable spans : bool;
      (** the hello negotiated the span extension; set before any frame
          is read *)
  mutable c_requests : Tel.Metrics.counter option;
      (** registered after the handshake *)
  mutable digests : (int * int) list;
      (** leader side, replicas only: (seq, digest) sent and awaiting
          the follower's ack *)
  mutable kind : ckind;
  fb : Framebuf.t;  (** incremental receive buffer *)
  out_q : string Queue.t;
      (** pending frames, oldest first; the loop gathers a batch of
          them into one writev(2) instead of copying them through a
          coalescing buffer.  On a replica this is the follower's
          outbox. *)
  mutable out_off : int;  (** bytes of the front frame already written *)
  mutable out_bytes : int;  (** unwritten output across all queued frames *)
  mutable want_close : bool;  (** close once the output drains *)
  mutable kill : bool;  (** close now, dropping pending output *)
  mutable rd_eof : bool;  (** loop: stop reading this connection *)
  mutable in_dirty : bool;  (** already queued on [t.dirty] *)
  mutable deadline : float;  (** HTTP head timeout (absolute); 0 = none *)
}

(* An output queue larger than this means the peer is not reading its
   responses (or asked for more than it can swallow): cut it loose
   rather than buffer without bound.  Twice the largest legal frame,
   so one maximal response always fits. *)
let out_limit = 2 * P.Wire.max_payload

(* A [promote] call from another thread, waiting for the loop to
   answer it; guarded by the server mutex. *)
type promote_waiter = {
  mutable result : (int, string) result option;
  pcond : Condition.t;
}

type instruments = {
  sink : Tel.Sink.t;
  requests : Tel.Metrics.counter;
  responses : Tel.Metrics.counter;
  malformed : Tel.Metrics.counter;
  clients_total : Tel.Metrics.counter;
  accept_errors : Tel.Metrics.counter;
  g_clients_active : Tel.Metrics.gauge;
  h_latency : Tel.Histogram.t;
  (* per-request stage breakdown (tentpole: where a request's time goes) *)
  h_st_decode : Tel.Histogram.t;
  h_st_queue : Tel.Histogram.t;
  h_st_execute : Tel.Histogram.t;
  h_st_wal : Tel.Histogram.t;
  h_st_replicate : Tel.Histogram.t;
  h_st_respond : Tel.Histogram.t;
  slow_requests : Tel.Metrics.counter;
  (* replication, leader side *)
  r_snapshots_sent : Tel.Metrics.counter;
  r_resumes : Tel.Metrics.counter;
  r_ops_sent : Tel.Metrics.counter;
  r_bytes_sent : Tel.Metrics.counter;
  r_evictions : Tel.Metrics.counter;
  r_digest_checks : Tel.Metrics.counter;
  r_digest_failures : Tel.Metrics.counter;
  g_followers : Tel.Metrics.gauge;
  g_lag_ops : Tel.Metrics.gauge;
  g_lag_bytes : Tel.Metrics.gauge;
  (* replication, follower side *)
  r_applied : Tel.Metrics.counter;
  r_snapshots_recv : Tel.Metrics.counter;
  r_reconnects : Tel.Metrics.counter;
  r_digest_mismatch : Tel.Metrics.counter;
  g_follower_lag : Tel.Metrics.gauge;
}

(* One served request's timing record: what the span ring holds, what
   the slow-op log and the Chrome export render.  [sr_start] is the
   sink-clock instant the loop began decoding the frame; stages are
   contiguous slices in emission order. *)
type span_record = {
  sr_span : int option;
  sr_cid : int;
  sr_start : float;
  sr_total : float;
  sr_stages : (string * float) list;
}

(* Every mutable field belongs to the loop thread, except the three the
   server mutex guards: [stopping], [promotes] and [spans_ring] — the
   only state another thread ([stop], [promote], [spans]) enters. *)
type t = {
  mutable backend : P.Backend.t;
      (** the replicated state machine — multistage fabric or mesh;
          replaced when a follower installs a leader snapshot *)
  mutable store : P.Store.t option;
      (** replaced alongside [backend] in follower mode *)
  ins : instruments option;
  tel : Tel.Sink.t option;
  listen_fd : Unix.file_descr;
  mutable bound : address;
  mu : Mutex.t;
  mutable stopping : bool;  (** guarded by [mu] *)
  mutable promotes : promote_waiter list;
      (** [promote] calls the loop has not answered yet, newest first;
          guarded by [mu] *)
  mutable next_cid : int;
  mutable clients : client list;
  mutable served_count : int;
  mutable loop_thread : Thread.t option;
  (* event loop *)
  ev : Evloop.t;
  wake_r : Unix.file_descr;  (** loop side of the wake pipe *)
  wake_w : Unix.file_descr;  (** [stop] and [promote] poke this *)
  mutable dirty : client list;
      (** connections with fresh output or close flags, flushed at the
          top of the next loop pass *)
  scratch : Buffer.t;
      (** the loop's encoder: every frame this server sends is encoded
          here and framed once ({!P.Wire.frame_with}) *)
  max_conns : int option;
  conn_sndbuf : int option;
  (* replication *)
  mutable role : role;
  mutable epoch : int;  (** this leader generation's id *)
  mutable rep_seq : int;  (** committed ops so far (WAL record stream) *)
  ring : (int * P.Op.t) Queue.t;  (** recent (seq, op) for replica resume *)
  resume_window : int;
      (** also the replica outbox bound: a follower with more frames
          than this queued unwritten is evicted *)
  digest_every : int;
  mutable last_digest_seq : int;
  mutable replicas : client list;
  (* follower role *)
  follower_cfg : follower_config option;
  mutable repl_epoch : int;  (** leader generation we last synced to; 0 none *)
  mutable link : client option;
      (** the established link to the leader whose messages the loop
          applies; cleared when the link closes *)
  mutable force_snapshot : bool;  (** next subscribe must ask for a snapshot *)
  mutable leader_seq : int;
      (** follower: highest seq the leader has shown us (op or digest);
          [leader_seq - rep_seq] is the apply lag *)
  (* observability plane *)
  span_buffer : int;
  spans_ring : span_record Queue.t;  (** guarded by the server mutex *)
  slow_ms : float option;
  slow_out : out_channel option;
  slow_owned : bool;  (** [stop] closes [slow_out] only if we opened it *)
  ready_lag : int;
  mutable http_fd : Unix.file_descr option;
  mutable http_bound : address option;
}

let register_instruments sink =
  let reg = sink.Tel.Sink.metrics in
  let c help name = Tel.Metrics.counter reg ~help name in
  let g help name = Tel.Metrics.gauge reg ~help name in
  {
    sink;
    requests = c "Requests decoded for execution" "server_requests_total";
    responses = c "Responses written back" "server_responses_total";
    malformed = c "Undecodable frames received" "server_malformed_total";
    clients_total = c "Client connections accepted" "server_clients_total";
    accept_errors =
      c "Transient accept(2) failures survived and connections rejected \
         by the --max-conns gate"
        "server_accept_errors_total";
    g_clients_active = g "Clients currently connected" "server_clients_active";
    h_latency =
      Tel.Metrics.histogram reg
        ~help:"Time from a request's decode to its response being queued \
               on the connection"
        "server_request_latency_seconds";
    h_st_decode =
      Tel.Metrics.histogram reg ~help:"Frame decode time"
        "server_stage_decode_seconds";
    h_st_queue =
      Tel.Metrics.histogram reg
        ~help:"Wait between a frame's decode and its execution"
        "server_stage_queue_seconds";
    h_st_execute =
      Tel.Metrics.histogram reg ~help:"Network execute time"
        "server_stage_execute_seconds";
    h_st_wal =
      Tel.Metrics.histogram reg ~help:"WAL append (incl. fsync policy) time"
        "server_stage_wal_seconds";
    h_st_replicate =
      Tel.Metrics.histogram reg
        ~help:"Replication ship time (outbox enqueue across followers)"
        "server_stage_replicate_seconds";
    h_st_respond =
      Tel.Metrics.histogram reg
        ~help:"Response encode and queueing time"
        "server_stage_respond_seconds";
    slow_requests =
      c "Requests whose total latency crossed the --slow-ms threshold"
        "server_slow_requests_total";
    r_snapshots_sent =
      c "Full state snapshots sent to attaching followers"
        "repl_snapshots_sent_total";
    r_resumes = c "Follower attaches resumed from the ring" "repl_resumes_total";
    r_ops_sent = c "Replicated ops queued to followers" "repl_ops_sent_total";
    r_bytes_sent =
      c "Replication bytes queued to followers (incl. framing)"
        "repl_bytes_sent_total";
    r_evictions =
      c "Followers dropped for falling too far behind" "repl_evictions_total";
    r_digest_checks =
      c "Follower digest acknowledgements verified" "repl_digest_checks_total";
    r_digest_failures =
      c "Follower digest acknowledgements that disagreed"
        "repl_digest_failures_total";
    g_followers = g "Followers currently attached" "repl_followers";
    g_lag_ops = g "Largest follower outbox backlog, in ops" "repl_lag_ops";
    g_lag_bytes = g "Largest follower outbox backlog, in bytes" "repl_lag_bytes";
    r_applied = c "Replicated ops applied locally" "repl_applied_total";
    r_snapshots_recv =
      c "Leader snapshots installed" "repl_snapshots_received_total";
    r_reconnects =
      c "Replication links re-established after a drop" "repl_reconnects_total";
    r_digest_mismatch =
      c "Leader digests that disagreed with local state"
        "repl_digest_mismatch_total";
    g_follower_lag =
      g "Ops the leader has shown that this follower has not yet applied"
        "repl_follower_lag_ops";
  }

let now t = match t.ins with Some i -> Tel.Sink.now i.sink | None -> 0.
let inc t f = match t.ins with Some i -> Tel.Metrics.inc (f i) | None -> ()

(* Distinct across leader generations on one machine — what guards a
   follower's resume against replaying into a diverged successor. *)
let fresh_epoch () =
  let usec = int_of_float (Unix.gettimeofday () *. 1e6) in
  max 1 ((usec lxor (Unix.getpid () lsl 44)) land ((1 lsl 54) - 1))

let leader_string t =
  match t.follower_cfg with
  | Some { leader; _ } -> Format.asprintf "%a" pp_address leader
  | None -> ""

(* Poke the event loop's wake pipe from [stop] or [promote].
   Non-blocking: a full pipe means the loop has wakeups queued already,
   which is all a wake can ask for. *)
let wake_byte = Bytes.of_string "!"

let wake t =
  try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

(* ----- per-client plumbing --------------------------------------------- *)

let set_conn_gauges t =
  match t.ins with
  | None -> ()
  | Some i ->
    Tel.Metrics.set i.g_clients_active (float_of_int (List.length t.clients));
    Tel.Metrics.set i.g_followers (float_of_int (List.length t.replicas));
    let lag_ops, lag_bytes =
      List.fold_left
        (fun (o, b) c -> (max o (Queue.length c.out_q), max b c.out_bytes))
        (0, 0) t.replicas
    in
    Tel.Metrics.set i.g_lag_ops (float_of_int lag_ops);
    Tel.Metrics.set i.g_lag_bytes (float_of_int lag_bytes)

(* Have the loop flush [c] at the top of its next pass. *)
let flag_dirty t c =
  if not c.in_dirty then begin
    c.in_dirty <- true;
    t.dirty <- c :: t.dirty
  end

let accepts_output c = c.open_ && (not c.want_close) && not c.kill

(* Queue one frame on an accepting connection. *)
let add_out t c data =
  if String.length data > 0 then Queue.add data c.out_q;
  c.out_bytes <- c.out_bytes + String.length data;
  if c.out_bytes > out_limit then c.kill <- true;
  flag_dirty t c

(* Append bytes to a connection's output queue.  Returns whether the
   bytes were accepted — a closed or closing connection swallows them,
   exactly as a direct write would have swallowed EPIPE. *)
let enqueue_out t c data =
  let accepted = accepts_output c in
  if accepted then add_out t c data;
  accepted

(* Close a connection once its queued output has been written, so
   responses already queued still go out. *)
let mark_want_close t c =
  if c.open_ && not c.want_close then begin
    c.want_close <- true;
    flag_dirty t c
  end

(* Close a connection at the next flush, dropping its pending output. *)
let kill_conn t c =
  if c.open_ then begin
    c.kill <- true;
    flag_dirty t c
  end

(* ----- leader-side replication ----------------------------------------- *)

let frame_to_follower t msg =
  P.Wire.frame_with t.scratch P.Repl.encode_to_follower msg

let frame_to_leader t msg =
  P.Wire.frame_with t.scratch P.Repl.encode_to_leader msg

(* Queue one frame on every live replica.  A replica already holding
   [resume_window] unwritten frames is evicted through the kill path
   instead — the loop never waits for a slow consumer, and one that far
   behind needs a snapshot on reconnect anyway. *)
let offer_frame t frame =
  List.iter
    (fun c ->
      if accepts_output c then
        if Queue.length c.out_q >= t.resume_window then begin
          c.kill <- true;
          flag_dirty t c;
          inc t (fun i -> i.r_evictions)
        end
        else begin
          add_out t c frame;
          match t.ins with
          | Some i ->
            Tel.Metrics.inc i.r_ops_sent;
            Tel.Metrics.add i.r_bytes_sent (String.length frame)
          | None -> ()
        end)
    t.replicas;
  set_conn_gauges t

let offer_digest t =
  let digest = P.Backend.digest t.backend in
  let seq = t.rep_seq in
  let frame = frame_to_follower t (P.Repl.Rep_digest { seq; digest }) in
  List.iter
    (fun c ->
      if accepts_output c && Queue.length c.out_q < t.resume_window then begin
        add_out t c frame;
        c.digests <- (seq, digest) :: c.digests
      end)
    t.replicas

(* Called for every committed op, after the WAL append: the
   replication stream is the WAL, frame by frame. *)
let replicate t op =
  t.rep_seq <- t.rep_seq + 1;
  Queue.add (t.rep_seq, op) t.ring;
  if Queue.length t.ring > t.resume_window then ignore (Queue.pop t.ring);
  if t.replicas <> [] then begin
    offer_frame t (frame_to_follower t (P.Repl.Rep_op { seq = t.rep_seq; op }));
    if t.rep_seq - t.last_digest_seq >= t.digest_every then begin
      t.last_digest_seq <- t.rep_seq;
      offer_digest t
    end
  end

(* A follower's Subscribe: decide resume vs snapshot at a point where
   no op can slip between the decision and the stream start — the loop
   is the only writer. *)
let handle_attach t client ~epoch ~last_seq =
  if t.role <> Leader then begin
    ignore
      (enqueue_out t client
         (frame_to_follower t (P.Repl.Goodbye { reason = "not the leader" })));
    mark_want_close t client
  end
  else begin
    let ring_floor = t.rep_seq - Queue.length t.ring in
    let init =
      if epoch = t.epoch && last_seq >= ring_floor && last_seq <= t.rep_seq
      then begin
        inc t (fun i -> i.r_resumes);
        let backlog =
          Queue.fold
            (fun acc (seq, op) ->
              if seq > last_seq then
                frame_to_follower t (P.Repl.Rep_op { seq; op }) :: acc
              else acc)
            [] t.ring
        in
        frame_to_follower t
          (P.Repl.Init_resume { epoch = t.epoch; seq = last_seq })
        :: List.rev backlog
      end
      else begin
        inc t (fun i -> i.r_snapshots_sent);
        [
          frame_to_follower t
            (P.Repl.Init_snapshot
               {
                 epoch = t.epoch;
                 seq = t.rep_seq;
                 state = P.Backend.encode_state t.backend;
               });
        ]
      end
    in
    let digest = P.Backend.digest t.backend in
    let dig_frame =
      frame_to_follower t (P.Repl.Rep_digest { seq = t.rep_seq; digest })
    in
    if accepts_output client then begin
      (* from here on the connection is a replica, not a client *)
      t.clients <- List.filter (fun c -> c != client) t.clients;
      t.replicas <- client :: t.replicas;
      List.iter (add_out t client) (init @ [ dig_frame ]);
      client.digests <- [ (t.rep_seq, digest) ];
      set_conn_gauges t
    end
  end

(* A follower's digest ack; it only touches the replica's own record.
   Returns [false] when the follower diverged and must be dropped. *)
let handle_ack t client ~seq ~digest =
  let sent = List.assoc_opt seq client.digests in
  client.digests <- List.remove_assoc seq client.digests;
  match sent with
  | None -> true (* an ack we no longer remember sending *)
  | Some sent ->
    inc t (fun i -> i.r_digest_checks);
    sent = digest
    || begin
         inc t (fun i -> i.r_digest_failures);
         inc t (fun i -> i.r_evictions);
         false
       end

(* ----- follower-side replication --------------------------------------- *)

(* Follower role: the replication stream diverged (bad seq,
   undecodable state, digest mismatch).  Make the next subscribe demand
   a fresh snapshot; the [false] tells the caller to drop the link. *)
let resync t =
  t.force_snapshot <- true;
  false

(* Apply one replication message as the loop decodes it.  Returns
   whether to keep the link: [false] on divergence, on the leader's
   Goodbye, and for a link that is no longer the current one (promotion
   cut it; whatever it still carries is moot). *)
let handle_repl t link msg =
  let current = match t.link with Some c -> c == link | None -> false in
  current
  && begin
       (* every message that names a leader seq tells us how far ahead
          the leader is; the gap to [rep_seq] is the apply lag /readyz
          gates on *)
       (match msg with
       | P.Repl.Init_snapshot { seq; _ }
       | P.Repl.Init_resume { seq; _ }
       | P.Repl.Rep_op { seq; _ }
       | P.Repl.Rep_digest { seq; _ } ->
         if seq > t.leader_seq then t.leader_seq <- seq
       | P.Repl.Goodbye _ -> ());
       let keep =
         match msg with
         | P.Repl.Init_snapshot { epoch; seq; state } -> (
           match P.Backend.restore ?telemetry:t.tel state with
           | Error _ -> resync t
           | exception Invalid_argument _ -> resync t
           | Ok backend ->
             t.backend <- backend;
             t.rep_seq <- seq;
             t.repl_epoch <- epoch;
             (* a position again: a redial resumes from [rep_seq] *)
             t.force_snapshot <- false;
             inc t (fun i -> i.r_snapshots_recv);
             (match t.follower_cfg with
             | Some { wal = Some wal; _ } ->
               (match t.store with
               | Some s -> ( try P.Store.close s with Sys_error _ -> ())
               | None -> ());
               t.store <-
                 Some (P.Store.start_backend ?telemetry:t.tel ~wal backend);
               P.Repl.save_mark ~wal { P.Repl.epoch; base_seq = seq }
             | _ -> ());
             true)
         | P.Repl.Init_resume { epoch; seq } ->
           if seq <> t.rep_seq then resync t
           else begin
             t.repl_epoch <- epoch;
             true
           end
         | P.Repl.Rep_op { seq; op } -> (
           if seq <> t.rep_seq + 1 then resync t
           else
             match P.Resp.replay t.backend op with
             | Ok () ->
               t.rep_seq <- seq;
               inc t (fun i -> i.r_applied);
               Option.iter (fun s -> P.Store.log s op) t.store;
               true
             | Error _ -> resync t)
         | P.Repl.Rep_digest { seq; digest } ->
           let own = P.Backend.digest t.backend in
           if seq <> t.rep_seq || own <> digest then begin
             inc t (fun i -> i.r_digest_mismatch);
             resync t
           end
           else begin
             ignore
               (enqueue_out t link
                  (frame_to_leader t (P.Repl.Ack { seq; digest = own })));
             true
           end
         | P.Repl.Goodbye _ -> false
       in
       (match t.ins with
       | Some i ->
         Tel.Metrics.set i.g_follower_lag
           (float_of_int (max 0 (t.leader_seq - t.rep_seq)))
       | None -> ());
       keep
     end

let sockaddr_of_address = function
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)

(* ----- request execution ----------------------------------------------- *)

(* Frame a response and queue it on the connection; the loop writes it
   at the top of its next pass, so it never blocks on a peer's socket.
   A batch reply counts once per sub-response so the counter reconciles
   with [server_requests_total] whichever way the ops arrived. *)
let send_response t client resp =
  if enqueue_out t client (P.Wire.frame_with t.scratch P.Resp.encode resp) then
    match t.ins with
    | Some i ->
      let n =
        match (resp : P.Resp.t) with
        | P.Resp.Batch_reply rs -> List.length rs
        | _ -> 1
      in
      Tel.Metrics.add i.responses n
    | None -> ()

(* How far behind the slowest consumer is: on a follower the gap to
   the leader's newest shown seq, on a leader the deepest replica
   outbox. *)
let current_lag t =
  match t.role with
  | Follower -> max 0 (t.leader_seq - t.rep_seq)
  | Leader ->
    List.fold_left (fun acc c -> max acc (Queue.length c.out_q)) 0 t.replicas

(* Role, epoch, applied seq and lag ride alongside the metrics so a
   poller (wdmnet top, the CI smoke) can assert convergence without a
   digest round-trip; a follower reports the leader generation it
   synced to. *)
let stats_renderer t () =
  let base =
    match t.ins with
    | None -> []
    | Some i -> (
      match Tel.Metrics.to_json (Tel.Sink.snapshot i.sink) with
      | Tel.Json.Obj kvs -> kvs
      | j -> [ ("metrics", j) ])
  in
  let role, epoch =
    match t.role with
    | Leader -> ("leader", t.epoch)
    | Follower -> ("follower", t.repl_epoch)
  in
  Tel.Json.to_string
    (Tel.Json.Obj
       ([
          ("role", Tel.Json.String role);
          ("epoch", Tel.Json.Int epoch);
          ("applied", Tel.Json.Int t.rep_seq);
          ("lag", Tel.Json.Int (current_lag t));
        ]
       @ base))

(* ----- span recording -------------------------------------------------- *)

let slow_line sr =
  Tel.Json.to_string
    (Tel.Json.Obj
       ([ ("ts", Tel.Json.Float sr.sr_start) ]
       @ (match sr.sr_span with
         | Some s -> [ ("span", Tel.Json.Int s) ]
         | None -> [])
       @ [
           ("client", Tel.Json.Int sr.sr_cid);
           ("total_ms", Tel.Json.Float (sr.sr_total *. 1000.));
           ( "stages_ms",
             Tel.Json.Obj
               (List.map
                  (fun (k, v) -> (k, Tel.Json.Float (v *. 1000.)))
                  sr.sr_stages) );
         ]))

(* One request as contiguous Stage slices, correlated by span id and
   client in [args]: the trace mirror and [/spans] both render it so. *)
let trace_stages trace sr =
  let span_detail =
    (match sr.sr_span with
    | Some s -> [ ("span", string_of_int s) ]
    | None -> [])
    @ [ ("client", string_of_int sr.sr_cid) ]
  in
  let ts = ref sr.sr_start in
  List.iter
    (fun (name, d) ->
      Tel.Trace.record trace ~ts:!ts ~dur:d
        ~detail:(("stage", name) :: span_detail)
        Tel.Trace.Stage;
      ts := !ts +. d)
    sr.sr_stages

(* Ring-buffer the record, mirror it to the trace sink as one Stage
   slice per stage, and append the slow-op JSONL line when the total
   crosses the threshold.  Only called when instruments exist — with
   telemetry off the request path never builds a record at all. *)
let record_span t i sr =
  List.iter
    (fun (name, d) ->
      let h =
        match name with
        | "decode" -> i.h_st_decode
        | "queue" -> i.h_st_queue
        | "execute" -> i.h_st_execute
        | "wal" -> i.h_st_wal
        | "replicate" -> i.h_st_replicate
        | _ -> i.h_st_respond
      in
      Tel.Histogram.observe h d)
    sr.sr_stages;
  (* under the mutex: [spans] reads the ring from other threads *)
  Mutex.lock t.mu;
  Queue.add sr t.spans_ring;
  if Queue.length t.spans_ring > t.span_buffer then
    ignore (Queue.pop t.spans_ring);
  Mutex.unlock t.mu;
  Option.iter (fun trace -> trace_stages trace sr) i.sink.Tel.Sink.trace;
  match t.slow_ms with
  | Some threshold when sr.sr_total *. 1000. >= threshold -> (
    Tel.Metrics.inc i.slow_requests;
    match t.slow_out with
    | Some oc ->
      output_string oc (slow_line sr);
      output_char oc '\n';
      flush oc
    | None -> ())
  | _ -> ()

(* Promotion, on the loop: cut the replication link, take a fresh
   epoch, start leading.  The store and network continue as they are —
   the newest boundary-consistent state this follower reached is
   exactly what it starts serving. *)
let do_promote t =
  if t.role = Leader then Error "already the leader"
  else begin
    t.role <- Leader;
    t.epoch <- fresh_epoch ();
    Option.iter (kill_conn t) t.link;
    t.link <- None;
    Queue.clear t.ring;
    t.last_digest_seq <- t.rep_seq;
    (match t.follower_cfg with
    | Some { wal = Some wal; _ } -> P.Repl.remove_mark ~wal
    | _ -> ());
    Ok t.rep_seq
  end

let execute_request t req =
  match (req : P.Resp.request) with
  | P.Resp.Promote -> (
    match do_promote t with
    | Ok seq -> P.Resp.Promoted { seq }
    | Error e -> P.Resp.Server_error e)
  | P.Resp.Admit _ when t.role = Follower ->
    P.Resp.Not_leader { leader = leader_string t }
  | _ -> P.Resp.execute_backend ~stats:(stats_renderer t) t.backend req

(* Commit one executed request: WAL append, then replication fan-out.
   Batches unroll here, sub-op by sub-op, so the WAL and the stream
   see exactly the records a sequential client would have produced. *)
let commit t req resp =
  if t.role = Leader then
    match P.Resp.committed req resp with
    | None -> ()
    | Some op ->
      Option.iter (fun s -> P.Store.log s op) t.store;
      replicate t op

let request_weight (req : P.Resp.request) =
  match req with P.Resp.Batch subs -> List.length subs | _ -> 1

(* Execute one decoded request, commit it (WAL, then replication) and
   queue its response: the response can only leave at the loop's next
   flush, after the WAL append and any fsync the policy asked for.
   [decoded] is the instant the frame finished decoding, [decode] how
   long that took. *)
let handle_request t client req ~decoded ~span ~decode =
  match t.ins with
  | None ->
    (* untimed path: no clock reads, no record — behaviourally the
       pre-tracing server *)
    let resp =
      match (req : P.Resp.request) with
      | P.Resp.Batch subs ->
        P.Resp.Batch_reply
          (List.map
             (fun sub ->
               let r = execute_request t sub in
               commit t sub r;
               r)
             subs)
      | _ ->
        let r = execute_request t req in
        commit t req r;
        r
    in
    send_response t client resp;
    t.served_count <- t.served_count + request_weight req
  | Some i ->
    let t_start = now t in
    (* a batch interleaves execute / wal / replicate per sub-op;
       accumulate the commit slices so the stage histograms keep their
       meaning whichever way the ops arrived *)
    let wal_acc = ref 0. and repl_acc = ref 0. in
    let commit_timed sub r =
      if t.role = Leader then
        match P.Resp.committed sub r with
        | None -> ()
        | Some op ->
          let t0 = now t in
          Option.iter (fun s -> P.Store.log s op) t.store;
          let t1 = now t in
          replicate t op;
          wal_acc := !wal_acc +. (t1 -. t0);
          repl_acc := !repl_acc +. (now t -. t1)
    in
    let resp =
      match (req : P.Resp.request) with
      | P.Resp.Batch subs ->
        P.Resp.Batch_reply
          (List.map
             (fun sub ->
               let r = execute_request t sub in
               commit_timed sub r;
               r)
             subs)
      | _ ->
        let r = execute_request t req in
        commit_timed req r;
        r
    in
    let t_exec = now t in
    send_response t client resp;
    let t_done = now t in
    t.served_count <- t.served_count + request_weight req;
    Tel.Histogram.observe i.h_latency (t_done -. decoded);
    let start = decoded -. decode in
    record_span t i
      {
        sr_span = span;
        sr_cid = client.cid;
        sr_start = start;
        sr_total = t_done -. start;
        sr_stages =
          [
            ("decode", decode);
            ("queue", max 0. (t_start -. decoded));
            ("execute", max 0. (t_exec -. t_start -. !wal_acc -. !repl_acc));
            ("wal", !wal_acc);
            ("replicate", !repl_acc);
            ("respond", t_done -. t_exec);
          ];
      }

(* Protocol damage on a request connection: answer it (best effort) and
   close once that answer is written. *)
let malformed t client reason =
  inc t (fun i -> i.malformed);
  send_response t client (P.Resp.Server_error reason);
  mark_want_close t client

(* EMFILE/ENFILE (fd exhaustion), ECONNABORTED (peer gave up while
   queued) and EINTR are conditions a server rides out, not reasons to
   die; anything else is still survived with the same short sleep so a
   persistent error cannot spin the loop hot. *)
let accept_transient = function
  | Unix.EMFILE | Unix.ENFILE | Unix.ECONNABORTED | Unix.EINTR -> true
  | _ -> false

(* ----- observability plane (HTTP 1.0) ---------------------------------- *)

(* Leader: WAL recovery runs synchronously before [start] returns, so a
   leader that answers at all has recovered.  Follower: ready only once
   the replication link is live, it has synced to some leader
   generation, and the apply lag is within [ready_lag]; [promote] flips
   the role and with it the answer. *)
let ready t =
  match t.role with
  | Leader -> true
  | Follower ->
    t.link <> None && t.repl_epoch <> 0
    && t.leader_seq - t.rep_seq <= t.ready_lag

(* The span ring rendered as a Chrome trace: each request is its
   contiguous stage slices, correlated by span id in [args]. *)
let spans_chrome t =
  Mutex.lock t.mu;
  let records = List.of_seq (Queue.to_seq t.spans_ring) in
  Mutex.unlock t.mu;
  let trace = Tel.Trace.create () in
  List.iter (trace_stages trace) records;
  Tel.Trace.to_chrome trace

let http_route t path =
  match path with
  | "/healthz" -> ("200 OK", "text/plain; charset=utf-8", "ok\n")
  | "/readyz" ->
    let body =
      Printf.sprintf "role=%s applied=%d lag=%d\n"
        (match t.role with Leader -> "leader" | Follower -> "follower")
        t.rep_seq
        (max 0 (t.leader_seq - t.rep_seq))
    in
    if ready t then ("200 OK", "text/plain; charset=utf-8", "ready\n" ^ body)
    else
      ("503 Service Unavailable", "text/plain; charset=utf-8", "behind\n" ^ body)
  | "/metrics" ->
    let body =
      match t.ins with
      | None -> ""
      | Some i -> Tel.Metrics.to_prometheus (Tel.Sink.snapshot i.sink)
    in
    ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
  | "/spans" -> ("200 OK", "application/json", spans_chrome t)
  | _ -> ("404 Not Found", "text/plain; charset=utf-8", "not found\n")

(* ----- event loop ------------------------------------------------------ *)

(* Loop-local state.  [conns] is keyed by fd; because the kernel
   recycles fds, every deferred reference to a client is validated by
   physical equality against this table before use.  The
   [dialed]/[next_dial]/[backoff] trio is a follower's link to its
   leader: dialed without blocking, redialed with capped exponential
   backoff. *)
type loopstate = {
  conns : (Unix.file_descr, client) Hashtbl.t;
  scratch : Bytes.t;  (** shared read buffer; bytes move to [c.fb] *)
  mutable reads_disabled : bool;
      (** [stop] was seen: no more reads or accepts; flush, close, exit
          by [finish_deadline] *)
  mutable finish_deadline : float;
  mutable last_sweep : float;
  mutable dialed : client option;  (** the link, from dial until close *)
  mutable next_dial : float;  (** no redial before this instant *)
  mutable backoff : float;
  mutable linked_once : bool;  (** a later subscribe is a reconnect *)
}

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 (Bytes.length b) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* A follower's dial failed before its link went live: retry after the
   backoff, which doubles up to 2 s. *)
let dial_failed ls =
  ls.next_dial <- Unix.gettimeofday () +. ls.backoff;
  ls.backoff <- min 2.0 (ls.backoff *. 2.)

(* Every connection closes here, once.  Closing a follower's link
   schedules its redial.  Every message the link delivered was applied
   as it was decoded, so the next subscribe's [last_seq] already counts
   the stream's whole tail. *)
let loop_close t ls c =
  (match Hashtbl.find_opt ls.conns c.fd with
  | Some c' when c' == c ->
    Hashtbl.remove ls.conns c.fd;
    Evloop.remove t.ev c.fd
  | _ -> ());
  let was_open = c.open_ in
  c.open_ <- false;
  t.clients <- List.filter (fun x -> x != c) t.clients;
  t.replicas <- List.filter (fun x -> x != c) t.replicas;
  set_conn_gauges t;
  if was_open then (try Unix.close c.fd with Unix.Unix_error _ -> ());
  (match t.link with Some l when l == c -> t.link <- None | _ -> ());
  match ls.dialed with
  | Some d when d == c ->
    ls.dialed <- None;
    if c.kind <> Clink then dial_failed ls
    else ls.next_dial <- Unix.gettimeofday () +. ls.backoff
  | _ -> ()

let owned_by_loop ls c =
  match Hashtbl.find_opt ls.conns c.fd with
  | Some c' -> c' == c
  | None -> false

(* Gather-write: bytes written, -1 EAGAIN, -2 EINTR, -3 dead peer.
   The stub keeps the runtime lock (the iovec points into the heap),
   which a nonblocking fd makes harmless. *)
external writev_frames : Unix.file_descr -> string array -> int -> int
  = "wdm_writev"

(* How many queued frames one writev gathers; must not exceed the
   stub's WDM_IOV_MAX. *)
let max_iov = 64

(* Write as much queued output as the kernel will take.  Up to
   [max_iov] queued frames go to writev as one iovec — the syscall
   gathers what would otherwise mean copying every pending response
   through a coalescing buffer.  Only fully-written frames are popped,
   so a partial write (tiny SO_SNDBUF) resumes from [out_off] of the
   front frame. *)
let conn_flush t ls c =
  let continue = ref (owned_by_loop ls c) in
  while !continue do
    let nframes = min (Queue.length c.out_q) max_iov in
    let batch = Array.make nframes "" in
    let i = ref 0 in
    (try
       Queue.iter
         (fun s ->
           if !i >= nframes then raise Exit;
           batch.(!i) <- s;
           incr i)
         c.out_q
     with Exit -> ());
    if c.kill then begin
      loop_close t ls c;
      continue := false
    end
    else if nframes = 0 then begin
      if c.want_close then loop_close t ls c
      else
        Evloop.modify t.ev c.fd
          ~read:((not c.rd_eof) && not ls.reads_disabled)
          ~write:false;
      continue := false
    end
    else begin
      match writev_frames c.fd batch c.out_off with
      | -2 (* EINTR *) -> ()
      | -1 | 0 (* EAGAIN, or a kernel that took nothing *) ->
        Evloop.modify t.ev c.fd
          ~read:((not c.rd_eof) && not ls.reads_disabled)
          ~write:true;
        continue := false
      | n when n < 0 ->
        (* EPIPE/ECONNRESET: the peer is gone; pending output is moot *)
        loop_close t ls c;
        continue := false
      | n ->
        (* pop the frames the kernel swallowed whole; a partial tail
           frame stays as the new head with its offset advanced *)
        c.out_bytes <- c.out_bytes - n;
        let rem = ref n in
        while !rem > 0 do
          let head = Queue.peek c.out_q in
          let avail = String.length head - c.out_off in
          if !rem >= avail then begin
            ignore (Queue.pop c.out_q);
            c.out_off <- 0;
            rem := !rem - avail
          end
          else begin
            c.out_off <- c.out_off + !rem;
            rem := 0
          end
        done
    end
  done

(* Flush the connections flagged since the last pass: every response
   the previous pass's requests queued, in one writev per connection.
   [in_dirty] is reset first, so a flag raised during the flush
   re-queues the connection rather than being lost. *)
let refresh_dirty t ls =
  let dirty = t.dirty in
  t.dirty <- [];
  List.iter (fun c -> c.in_dirty <- false) dirty;
  List.iter (fun c -> if owned_by_loop ls c then conn_flush t ls c) dirty

(* Decode every complete frame buffered on a request connection and
   execute each request as soon as it is decoded, in arrival order. *)
let process_frames t c =
  let continue = ref true in
  while !continue do
    match Framebuf.next_frame c.fb with
    | Framebuf.Need _ -> continue := false
    | Framebuf.Bad reason ->
      c.rd_eof <- true;
      malformed t c reason;
      continue := false
    | Framebuf.Frame payload -> (
      let t0 = now t in
      let r = P.Wire.reader payload in
      match
        let req = P.Resp.decode_request r in
        (* requests are self-delimiting, so the negotiated trailing
           span id sits cleanly after the request proper *)
        let span = if c.spans then Some (P.Wire.get_int r) else None in
        P.Wire.expect_end r;
        (req, span)
      with
      | req, span ->
        let w = request_weight req in
        Option.iter (fun cr -> Tel.Metrics.add cr w) c.c_requests;
        (match t.ins with
        | Some i -> Tel.Metrics.add i.requests w
        | None -> ());
        let decoded = now t in
        handle_request t c req ~decoded ~span ~decode:(decoded -. t0)
      | exception P.Wire.Decode_error { offset; reason } ->
        c.rd_eof <- true;
        malformed t c (Printf.sprintf "%s at payload offset %d" reason offset);
        continue := false)
  done

(* Answer an observability request with whatever head has arrived —
   the request line is all we parse — and close once it drains.
   HTTP/1.0, Connection: close: a scraper per connection. *)
let http_answer t ls c =
  let request = Framebuf.contents c.fb in
  let status, ctype, body =
    match String.split_on_char ' ' request with
    | "GET" :: path :: _ ->
      (* strip any query string: /readyz?verbose -> /readyz *)
      let path =
        match String.index_opt path '?' with
        | Some q -> String.sub path 0 q
        | None -> path
      in
      http_route t path
    | _ ->
      ( "400 Bad Request",
        "text/plain; charset=utf-8",
        "only GET is served here\n" )
  in
  let response =
    Printf.sprintf
      "HTTP/1.0 %s\r\n\
       Content-Type: %s\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n\
       %s"
      status ctype (String.length body) body
  in
  c.rd_eof <- true;
  c.deadline <- 0.;
  (* order matters: [enqueue_out] refuses bytes once [want_close] is up *)
  ignore (enqueue_out t c response);
  mark_want_close t c;
  conn_flush t ls c

let http_head_done c =
  Framebuf.length c.fb >= 4096
  ||
  let s = Framebuf.contents c.fb in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  has "\r\n\r\n" || has "\n\n"

(* Decode every complete replication frame buffered on a replica
   (leader side) or on the link to the leader (follower side), and act
   on each as it is decoded.  Any garbage — bad framing, an undecodable
   or out-of-place message — closes that one connection; the loop
   itself never stalls on it. *)
let rec process_repl_frames t ls c =
  match Framebuf.next_frame c.fb with
  | Framebuf.Need _ -> ()
  | Framebuf.Bad _ -> loop_close t ls c
  | Framebuf.Frame payload ->
    let keep =
      if c.kind = Clink then
        match P.Repl.to_follower_of_string payload with
        | Ok msg -> handle_repl t c msg
        | Error _ -> false
      else
        match (c.kind, P.Repl.to_leader_of_string payload) with
        | Cfollower, Ok (P.Repl.Subscribe { epoch; last_seq }) ->
          c.kind <- Creplica;
          handle_attach t c ~epoch ~last_seq;
          true
        | Creplica, Ok (P.Repl.Ack { seq; digest }) ->
          handle_ack t c ~seq ~digest
        | _ -> false
    in
    if keep then process_repl_frames t ls c else loop_close t ls c

(* Follower side, on the leader's hello: make this the link the loop
   applies, and subscribe from the last applied position, which counts
   every op the previous link delivered. *)
let subscribe t ls c =
  let go = (not ls.reads_disabled) && t.role = Follower in
  if go then begin
    t.link <- Some c;
    let epoch = t.repl_epoch in
    let last_seq = if t.force_snapshot then -1 else t.rep_seq in
    c.kind <- Clink;
    ignore
      (enqueue_out t c
         (frame_to_leader t (P.Repl.Subscribe { epoch; last_seq })));
    if ls.linked_once then inc t (fun i -> i.r_reconnects);
    ls.linked_once <- true;
    ls.backoff <- 0.05
  end;
  go

(* Route freshly buffered bytes according to what the connection turned
   out to be.  Runs after every successful read. *)
let rec conn_dispatch t ls c =
  match c.kind with
  | Chello ->
    if Framebuf.length c.fb >= P.Wire.header_len then begin
      let hello = Framebuf.take c.fb P.Wire.header_len in
      if Protocol.check_client_hello hello = Ok () then begin
        c.kind <- Creq;
        c.spans <- Protocol.hello_has_spans hello;
        match t.ins with
        | Some i ->
          c.c_requests <-
            Some
              (Tel.Metrics.counter i.sink.Tel.Sink.metrics
                 ~help:"Requests received from this client"
                 (Printf.sprintf "server_client_requests_total{client=\"%d\"}"
                    c.cid));
          Tel.Metrics.inc i.clients_total
        | None -> ()
      end
      else if Protocol.check_follower_hello hello = Ok () then
        c.kind <- Cfollower;
      if c.kind = Chello then loop_close t ls c
      else begin
        (* always advertise the span capability; a pre-flags client
           reads the flag byte as the reserved padding it has always
           ignored *)
        ignore (enqueue_out t c Protocol.server_hello_spans);
        conn_dispatch t ls c
      end
    end
  | Cdial ->
    if Framebuf.length c.fb >= P.Wire.header_len then
      let hello = Framebuf.take c.fb P.Wire.header_len in
      if Protocol.check_server_hello hello = Ok () && subscribe t ls c then
        conn_dispatch t ls c
      else loop_close t ls c
  | Creq -> process_frames t c
  | Cfollower | Creplica | Clink -> process_repl_frames t ls c
  | Chttp -> if http_head_done c then http_answer t ls c

(* Drain readable bytes into the connection's buffer, a bounded number
   of chunks per readiness event so one firehose client cannot starve
   the rest (level-triggered backends re-report the remainder).  The
   requests in those chunks execute before the next read, so a client
   can run at most four chunks ahead of the server. *)
let conn_readable t ls c =
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && not c.rd_eof do
    if !rounds >= 4 then continue := false
    else begin
      incr rounds;
      match Unix.read c.fd ls.scratch 0 (Bytes.length ls.scratch) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
        loop_close t ls c;
        continue := false
      | 0 ->
        c.rd_eof <- true;
        continue := false;
        (match c.kind with
        | Chttp -> http_answer t ls c
        | Creq ->
          (* half a frame followed by EOF is protocol damage, not a
             clean goodbye; either way the close waits for the
             responses already queued *)
          if Framebuf.length c.fb > 0 then
            malformed t c "peer closed mid-frame"
          else mark_want_close t c
        | Chello | Cfollower | Creplica | Cdial | Clink -> loop_close t ls c)
      | n ->
        Framebuf.add_subbytes c.fb ls.scratch ~off:0 ~len:n;
        conn_dispatch t ls c;
        if not (owned_by_loop ls c) then continue := false
    end
  done;
  (* a connection we stopped reading keeps only its write interest *)
  if owned_by_loop ls c && c.rd_eof then
    match Evloop.interest t.ev c.fd with
    | Some (true, w) -> Evloop.modify t.ev c.fd ~read:false ~write:w
    | _ -> ()

(* Register a fresh nonblocking socket with the loop. *)
let add_conn t ls fd kind =
  let c =
    {
      cid = t.next_cid;
      fd;
      open_ = true;
      spans = false;
      c_requests = None;
      digests = [];
      kind;
      fb = Framebuf.create ();
      out_q = Queue.create ();
      out_off = 0;
      out_bytes = 0;
      want_close = false;
      kill = false;
      rd_eof = false;
      in_dirty = false;
      deadline = 0.;
    }
  in
  t.next_cid <- t.next_cid + 1;
  Hashtbl.replace ls.conns fd c;
  Evloop.add t.ev fd ~read:(not ls.reads_disabled) ~write:false;
  c

(* Follower side: dial the leader without blocking.  The hello leaves
   through the ordinary output path, where a refused or failed connect
   surfaces as a dead peer and ends in [loop_close] like any other
   failure of the link. *)
let dial t ls leader =
  match
    let domain, sockaddr = sockaddr_of_address leader in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    try
      Unix.set_nonblock fd;
      (try Unix.connect fd sockaddr
       with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | fd ->
    let c = add_conn t ls fd Cdial in
    ls.dialed <- Some c;
    ignore (enqueue_out t c Protocol.follower_hello)
  | exception (Unix.Unix_error _ | Not_found) -> dial_failed ls

let accept_ready t ls lfd ~http =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (err, _, _) ->
      inc t (fun i -> i.accept_errors);
      Thread.delay (if accept_transient err then 0.05 else 0.25);
      continue := false
    | fd, _peer ->
      let over =
        (* the gate protects the request plane; scrapes stay
           answerable even at the connection cap *)
        (not http)
        &&
        match t.max_conns with
        | Some m -> Hashtbl.length ls.conns >= m
        | None -> false
      in
      if over then begin
        inc t (fun i -> i.accept_errors);
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        (* raises on unix sockets; harmless to skip there *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        (match t.conn_sndbuf with
        | Some n when not http -> (
          try Unix.setsockopt_int fd Unix.SO_SNDBUF n
          with Unix.Unix_error _ -> ())
        | _ -> ());
        let c = add_conn t ls fd (if http then Chttp else Chello) in
        if http then c.deadline <- Unix.gettimeofday () +. 5.0
        else begin
          t.clients <- c :: t.clients;
          set_conn_gauges t
        end
      end
  done

(* An HTTP peer that never finishes its head gets answered with what
   arrived once its deadline passes — the event-loop translation of
   the old per-connection SO_RCVTIMEO. *)
let sweep t ls nw =
  if nw -. ls.last_sweep >= 1.0 then begin
    ls.last_sweep <- nw;
    let expired =
      Hashtbl.fold
        (fun _ c acc ->
          if c.kind = Chttp && c.deadline > 0. && nw > c.deadline then c :: acc
          else acc)
        ls.conns []
    in
    List.iter (fun c -> http_answer t ls c) expired
  end

let handle_event t ls (fd, rd, wr) =
  if fd = t.wake_r then begin
    if rd then drain_wake t
  end
  else if fd = t.listen_fd then begin
    if rd && not ls.reads_disabled then accept_ready t ls fd ~http:false
  end
  else if match t.http_fd with Some h -> fd = h | None -> false then begin
    if rd && not ls.reads_disabled then accept_ready t ls fd ~http:true
  end
  else
    match Hashtbl.find_opt ls.conns fd with
    | None -> ()
    | Some c ->
      if wr then conn_flush t ls c;
      if rd && owned_by_loop ls c then conn_readable t ls c

let loop_run t =
  let ls =
    {
      conns = Hashtbl.create 64;
      scratch = Bytes.create 65536;
      reads_disabled = false;
      finish_deadline = 0.;
      last_sweep = 0.;
      dialed = None;
      next_dial = 0.;
      backoff = 0.05;
      linked_once = false;
    }
  in
  Unix.set_nonblock t.listen_fd;
  Evloop.add t.ev t.wake_r ~read:true ~write:false;
  Evloop.add t.ev t.listen_fd ~read:true ~write:false;
  (match t.http_fd with
  | Some h ->
    Unix.set_nonblock h;
    Evloop.add t.ev h ~read:true ~write:false
  | None -> ());
  let finished = ref false in
  while not !finished do
    Mutex.lock t.mu;
    let stopping = t.stopping in
    let promotes = List.rev t.promotes in
    t.promotes <- [];
    Mutex.unlock t.mu;
    List.iter
      (fun w ->
        let result = do_promote t in
        Mutex.lock t.mu;
        w.result <- Some result;
        Condition.broadcast w.pcond;
        Mutex.unlock t.mu)
      promotes;
    if stopping && not ls.reads_disabled then begin
      (* No new connections, no new requests.  Every request read so
         far has executed, so each replica's stream is final: end it
         with a Goodbye.  What remains is flushing, bounded by a grace
         deadline so one unreadable peer cannot hold shutdown
         hostage. *)
      ls.reads_disabled <- true;
      ls.finish_deadline <- Unix.gettimeofday () +. 5.0;
      Evloop.modify t.ev t.listen_fd ~read:false ~write:false;
      (match t.http_fd with
      | Some h -> Evloop.modify t.ev h ~read:false ~write:false
      | None -> ());
      Hashtbl.iter
        (fun fd c ->
          c.rd_eof <- true;
          match Evloop.interest t.ev fd with
          | Some (true, w) -> Evloop.modify t.ev fd ~read:false ~write:w
          | _ -> ())
        ls.conns;
      let goodbye =
        frame_to_follower t (P.Repl.Goodbye { reason = "shutdown" })
      in
      List.iter
        (fun c ->
          ignore (enqueue_out t c goodbye);
          mark_want_close t c)
        t.replicas
    end;
    (* a follower without a link (re)dials once its backoff has passed *)
    let redial =
      (not stopping) && t.role = Follower && Option.is_none t.link
      && Option.is_none ls.dialed
    in
    (match t.follower_cfg with
    | Some cfg when redial && Unix.gettimeofday () >= ls.next_dial ->
      dial t ls cfg.leader
    | _ -> ());
    refresh_dirty t ls;
    let timeout_ms =
      if stopping then 10
      else if redial && Option.is_none ls.dialed then
        let ms = (ls.next_dial -. Unix.gettimeofday ()) *. 1000. in
        max 1 (min 100 (int_of_float ms + 1))
      else 100
    in
    let events = Evloop.wait t.ev ~timeout_ms in
    List.iter (fun ev -> handle_event t ls ev) events;
    let nw = Unix.gettimeofday () in
    sweep t ls nw;
    if stopping then begin
      let drained =
        Hashtbl.fold (fun _ c acc -> acc && c.out_bytes = 0) ls.conns true
      in
      if drained || nw > ls.finish_deadline then begin
        let cs = Hashtbl.fold (fun _ c acc -> c :: acc) ls.conns [] in
        List.iter (fun c -> loop_close t ls c) cs;
        finished := true
      end
    end
  done;
  Evloop.close t.ev

(* ----- lifecycle ------------------------------------------------------- *)

let bind_listen addr =
  let domain, sockaddr = sockaddr_of_address addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_socket path -> if Sys.file_exists path then Unix.unlink path);
  Unix.bind fd sockaddr;
  Unix.listen fd 512;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (a, p) -> Tcp (Unix.string_of_inet_addr a, p)
    | Unix.ADDR_UNIX _ -> addr
  in
  (fd, bound)

let start_backend ?telemetry ?store ?(digest_every = 64)
    ?(resume_window = 1024) ?follower ?http ?(ready_lag = 64) ?slow_ms
    ?slow_log ?(span_buffer = 1024) ?max_conns ?conn_sndbuf ~backend addr =
  let invalid what = invalid_arg ("Server.start_backend: " ^ what) in
  (match max_conns with
  | Some m when m < 1 -> invalid "max_conns must be >= 1"
  | _ -> ());
  if digest_every < 1 then invalid "digest_every must be >= 1";
  if resume_window < 1 then invalid "resume_window must be >= 1";
  if follower <> None && store <> None then
    invalid "a follower manages its own store";
  if ready_lag < 0 then invalid "ready_lag must be >= 0";
  if span_buffer < 1 then invalid "span_buffer must be >= 1";
  (match slow_ms with
  | Some ms when ms < 0. -> invalid "slow_ms must be >= 0"
  | _ -> ());
  (* a peer that vanishes mid-response must surface as EPIPE on the
     write, not as a process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* A restarting follower with a WAL resumes from its own disk: the
     mark says where in the leader's stream its log began, the local
     recovery replays what it had applied, and the subscribe asks only
     for the remainder. *)
  let backend, store, repl_epoch, rep_seq =
    match follower with
    | Some { wal = Some wal; _ } -> (
      match P.Repl.load_mark ~wal with
      | None -> (backend, None, 0, -1)
      | Some { P.Repl.epoch; base_seq } -> (
        match P.Store.resume_backend ?telemetry ~wal () with
        | Error _ -> (backend, None, 0, -1)
        | Ok (store, recovery) ->
          ( recovery.P.Store.backend,
            Some store,
            epoch,
            base_seq + P.Store.wal_records store )))
    | Some { wal = None; _ } -> (backend, None, 0, -1)
    | None ->
      let base = match store with Some s -> P.Store.wal_records s | None -> 0 in
      (backend, store, 0, base)
  in
  let listen_fd, bound = bind_listen addr in
  let http_fd, http_bound =
    match http with
    | None -> (None, None)
    | Some haddr ->
      let fd, hbound = bind_listen haddr in
      (Some fd, Some hbound)
  in
  let slow_out, slow_owned =
    match slow_ms with
    | None -> (None, false)
    | Some _ -> (
      match slow_log with
      | Some path -> (Some (open_out path), true)
      | None -> (Some stderr, false))
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      backend;
      store;
      ins = Option.map register_instruments telemetry;
      tel = telemetry;
      listen_fd;
      bound;
      mu = Mutex.create ();
      stopping = false;
      promotes = [];
      next_cid = 1;
      clients = [];
      served_count = 0;
      loop_thread = None;
      ev = Evloop.create ();
      wake_r;
      wake_w;
      dirty = [];
      scratch = Buffer.create 4096;
      max_conns;
      conn_sndbuf;
      role = (match follower with Some _ -> Follower | None -> Leader);
      epoch = fresh_epoch ();
      rep_seq = max 0 rep_seq;
      ring = Queue.create ();
      resume_window;
      digest_every;
      last_digest_seq = max 0 rep_seq;
      replicas = [];
      follower_cfg = follower;
      repl_epoch;
      link = None;
      force_snapshot = rep_seq < 0;
      leader_seq = max 0 rep_seq;
      span_buffer;
      spans_ring = Queue.create ();
      slow_ms;
      slow_out;
      slow_owned;
      ready_lag;
      http_fd;
      http_bound;
    }
  in
  t.loop_thread <- Some (Thread.create (fun () -> loop_run t) ());
  t

let address t = t.bound
let http_address t = t.http_bound
let role t = t.role
let applied t = t.rep_seq
let backend t = t.backend

let current_store t = t.store

let spans t =
  Mutex.lock t.mu;
  let records = List.of_seq (Queue.to_seq t.spans_ring) in
  Mutex.unlock t.mu;
  List.map
    (fun sr -> (sr.sr_span, sr.sr_cid, sr.sr_start, sr.sr_total, sr.sr_stages))
    records

(* Hand the switch to the loop and wait for its answer.  The wake is
   written under the mutex while [stopping] is still false, so [stop]
   cannot have closed the pipe yet; [stop] answers every waiter the
   loop has not taken, and every later call. *)
let promote t =
  let w = { result = None; pcond = Condition.create () } in
  Mutex.lock t.mu;
  if t.stopping then w.result <- Some (Error "server is stopped")
  else begin
    t.promotes <- w :: t.promotes;
    wake t
  end;
  while w.result = None do
    Condition.wait w.pcond t.mu
  done;
  Mutex.unlock t.mu;
  Option.get w.result

let stop t =
  Mutex.lock t.mu;
  let first = not t.stopping in
  t.stopping <- true;
  List.iter
    (fun w ->
      w.result <- Some (Error "server is stopped");
      Condition.broadcast w.pcond)
    t.promotes;
  t.promotes <- [];
  Mutex.unlock t.mu;
  if first then begin
    (* the loop wakes through its pipe, sees [stopping], stops accepting
       and reading, ends every replica's stream, flushes what remains
       and exits; write sides stay open so every request already read
       still gets its response — an answered request is one the client
       will not retry against the next leader *)
    wake t;
    Option.iter Thread.join t.loop_thread;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.bound with
    | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    (match t.http_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (match t.http_bound with
    | Some (Unix_socket path) -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ());
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    match t.slow_out with
    | Some oc ->
      (try flush oc with Sys_error _ -> ());
      if t.slow_owned then ( try close_out oc with Sys_error _ -> ())
    | None -> ()
  end

let served t = t.served_count
