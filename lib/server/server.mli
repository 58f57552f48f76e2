(** The control-plane service: a live {!Wdm_persist.Backend.t} (the
    multistage fabric or a mesh network) behind a TCP or Unix-domain
    socket, optionally replicated to follower nodes.

    Concurrency model — one thread (DESIGN.md §12): a single event-loop
    thread owns every socket, in either role — clients, scrapers,
    follower subscriptions on a leader, and a follower's own link to
    its leader — and is the only thread that executes requests or
    touches the network and the WAL store.  It accepts, reads
    readiness-notified connections into per-connection buffers
    ({!Framebuf}), and executes each request at the point where it
    decodes the frame: execute, WAL append, replication fan-out, then
    the response goes on the connection's output queue.  The loop
    flushes the queued responses at the top of its next pass, so a
    response never leaves before its WAL record (and any fsync the
    policy asks for); consecutive responses coalesce into one writev,
    which is what makes pipelined
    ({!Wdm_persist.Resp.request.Batch}) clients fast.  The network
    needs no locks and every client observes its own requests in
    order.  A client that writes faster than the server executes is
    held back by TCP flow control: the loop reads a bounded number of
    chunks per readiness event and executes them before reading more.
    Connection count is bounded by [max_conns] (accept-time gate), not
    by a thread per client: idle connections cost one buffer each, no
    stack, so thousands can sit idle ({!Evloop} uses [epoll] on Linux,
    [select] elsewhere).  The loop also waits out every WAL fsync and
    snapshot, so under [Wal.Fsync_every 1] an observability scrape
    waits behind them too.  Other threads enter only through {!stop},
    {!promote} and the span ring ({!spans}), under one mutex plus a
    wake pipe.

    With [store], every state-changing request is also appended to the
    WAL after it executes (a refused connect is still recorded — WAL
    semantics record requests, replay re-derives outcomes), so a served
    session crash-recovers exactly like a recorded in-process run.
    What is recorded — and replicated — is {!Wdm_persist.Resp.committed}
    of the request and its response: requests that failed to execute
    at all (a disconnect of an unknown or already-released route, a
    fault op with out-of-range indices) are answered but never logged,
    since replaying them would fail and read as WAL corruption on
    recovery.

    {b Replication} (DESIGN.md §10): a peer greeting with the ['F']
    hello subscribes to the committed-op stream.  The leader answers
    with a full state snapshot (or a resume point when the follower's
    position is still inside the in-memory ring) and then ships every
    committed op, interleaving state digests every [digest_every] ops;
    the follower acknowledges each digest.  A follower connection is
    an ordinary loop connection: each committed op's frame goes on its
    output queue and the loop writes them with the same writev path as
    responses, so the queue is the follower's outbox.  A follower with
    more than [resume_window] frames queued unwritten is {e evicted}
    (closed), never allowed to stall the leader.  A node started with
    [follower] has its loop dial the leader without blocking, applies
    each message of the stream as its loop decodes it, each op through
    {!Wdm_persist.Resp.replay} — the leader's execute path, so an op
    that fails or diverges from its record resyncs the follower by
    snapshot (the single-writer invariant holds on both roles),
    persists to its own
    WAL when [follower.wal] is set, serves read-only requests, refuses
    mutations with [Not_leader], and redials with capped exponential
    backoff (50 ms doubling to 2 s) when the link drops.
    {!promote} (or a wire [Promote] request) turns the follower into a
    leader from the newest consistent state it reached.

    With [telemetry], the server feeds [server_requests_total] (plus a
    per-client [server_client_requests_total{client="N"}] family),
    [server_responses_total], [server_malformed_total],
    [server_clients_total], [server_accept_errors_total], the
    [server_clients_active] gauge, and the
    [server_request_latency_seconds] histogram (from a request's decode
    to its response being queued on the connection).  Replication
    adds, leader-side, [repl_followers] / [repl_lag_ops] /
    [repl_lag_bytes] gauges and [repl_snapshots_sent_total],
    [repl_resumes_total], [repl_ops_sent_total],
    [repl_bytes_sent_total], [repl_evictions_total],
    [repl_digest_checks_total], [repl_digest_failures_total] counters;
    follower-side, [repl_applied_total],
    [repl_snapshots_received_total], [repl_reconnects_total],
    [repl_digest_mismatch_total] and a [repl_follower_lag_ops] gauge.
    The network's own [wdmnet_*] instruments live on whatever sink the
    network was created with.

    {b Observability} (DESIGN.md §11): with [telemetry], every served
    request is also timed per stage — frame decode, the wait between
    decode and execution, execute, WAL append, replication ship,
    response encode and queueing — into
    [server_stage_<stage>_seconds] histograms and a bounded in-memory
    span ring ([span_buffer] records, exported as Chrome trace events
    through {!spans} / the [/spans] endpoint, and mirrored to the
    sink's trace when one is attached).  Clients negotiating the span
    extension ({!Protocol.flag_spans}) stamp each request with a span
    id that correlates the server-side record with the caller.  [http]
    starts a minimal HTTP 1.0 endpoint serving [/metrics] (Prometheus
    text), [/healthz], a role-aware [/readyz] (see {!ready}) and
    [/spans]; [slow_ms] enables a JSONL slow-request log (to [slow_log]
    or stderr) carrying the span id and the per-stage breakdown of
    every request at or over the threshold. *)

type address =
  | Tcp of string * int  (** host, port; port [0] binds an ephemeral *)
  | Unix_socket of string  (** path; unlinked stale socket on bind *)

val pp_address : Format.formatter -> address -> unit

val sockaddr_of_address : address -> Unix.socket_domain * Unix.sockaddr
(** The one host resolver: a dotted address as is, any other host
    through [gethostbyname].  The listener, a follower's dial and the
    client's all resolve through it.
    @raise Not_found when the host does not resolve. *)

type role = Leader | Follower

type follower_config = {
  leader : address;  (** where to subscribe for the op stream *)
  wal : string option;
      (** the follower's own WAL: every replicated op is logged, and a
          restart resumes from it (plus the [<wal>.repl] mark) instead
          of refetching a snapshot.  [None] keeps state in memory
          only. *)
}

type t

val start_backend :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?store:Wdm_persist.Store.t ->
  ?digest_every:int ->
  ?resume_window:int ->
  ?follower:follower_config ->
  ?http:address ->
  ?ready_lag:int ->
  ?slow_ms:float ->
  ?slow_log:string ->
  ?span_buffer:int ->
  ?max_conns:int ->
  ?conn_sndbuf:int ->
  backend:Wdm_persist.Backend.t ->
  address ->
  t
(** Serves [backend], either state kind: a mesh backend serves the same
    wire protocol (mesh results are mapped onto the multistage route
    vocabulary; fault ops are refused with [Server_error]).

    Binds, listens and spawns the event-loop thread (with [follower],
    the loop also dials the leader).  [max_conns] caps concurrently
    open request-plane connections: past it, accepted fds are closed
    immediately (counted in [server_accept_errors_total]); the
    observability plane is exempt so health stays scrapable at the
    cap.  [conn_sndbuf] sets
    [SO_SNDBUF] on accepted connections, follower subscriptions
    included (tests use a tiny value to exercise the loop's
    partial-write path and to make a slow follower deterministic).
    [digest_every] (default 64) is the committed-op interval between
    replicated state digests; [resume_window] (default 1024) how many
    recent ops the leader keeps for follower resume, and how many
    frames a follower may have queued unwritten before it is evicted
    — one that far behind needs a snapshot on reconnect anyway.  The
    caller keeps ownership of [store] (close it after {!stop}); a
    [follower] node instead manages its own store for [follower.wal] —
    read it back with {!current_store}.

    Observability: [http] binds a second listener for the [/metrics],
    [/healthz], [/readyz], [/spans] plane; [ready_lag] (default 64) is
    the apply-lag bound within which a follower reports ready;
    [slow_ms] (with optional [slow_log] path) enables the slow-request
    JSONL log; [span_buffer] (default 1024) bounds the span ring.
    @raise Invalid_argument when a numeric option is [< 1]
    ([ready_lag]/[slow_ms]: [< 0]), or when both [store] and
    [follower] are given.
    @raise Unix.Unix_error when an address cannot be bound. *)


val address : t -> address
(** The actual bound address — with [Tcp (host, 0)] the kernel-chosen
    port is filled in. *)

val http_address : t -> address option
(** The observability endpoint's bound address, when [http] was given. *)

val role : t -> role

val applied : t -> int
(** Committed ops so far: ops this node executed as leader plus ops it
    applied from a leader's stream.  A follower whose [applied] equals
    the leader's has caught up. *)

val backend : t -> Wdm_persist.Backend.t
(** The live state machine.  On a follower this is {e replaced} when a
    snapshot installs, so do not cache it across attaches; reading
    state through a {!Client} request is always safe, reading it
    in-process is only safe once the server is stopped or known
    quiescent. *)

val current_store : t -> Wdm_persist.Store.t option
(** The store currently in use: the one passed to {!start_backend}, or
    the one a follower created for its [wal].  After {!stop},
    checkpoint and close it here. *)

val promote : t -> (int, string) result
(** Make this follower the leader: cut the replication link, adopt a
    fresh epoch, start accepting mutations and follower subscriptions
    from the newest consistent state.  Returns {!applied} at the
    moment of promotion.  [Error] when already the leader, or
    ["server is stopped"] when {!stop} has begun — also for a call
    that was waiting when it began.  Blocks until the loop performs
    the switch, so on return every subsequent request sees the new
    role.  Safe to call from any thread, concurrently with {!stop}. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting and reading connections
    (requests already read are still answered — an answered request is
    one a retrying client will not replay against the next leader),
    answer any waiting {!promote} with an [Error], end each follower's
    stream with a [Goodbye], flush every connection's output within a
    5 s grace period, and join the loop thread.  After [stop] returns
    no thread touches the network or the store, so the caller can
    checkpoint and close them safely.  Idempotent. *)

val served : t -> int
(** Requests answered so far (monotone; stable after {!stop}).  A
    pipelined [Batch] counts once per sub-request, so the number is
    the same however the ops were carried. *)

val ready : t -> bool
(** What [/readyz] answers.  A leader is ready as soon as it serves
    (WAL recovery, when any, completed before {!start_backend}
    returned).  A follower is ready while its replication link is live,
    it has synced to a leader generation, and its apply lag — the
    newest seq the leader has shown minus {!applied} — is within
    [ready_lag].
    {!promote} flips a follower to ready-as-leader. *)

val spans :
  t -> (int option * int * float * float * (string * float) list) list
(** The span ring, oldest first: [(span id, client id, start, total,
    stages)] per request, where [stages] are [(name, seconds)] slices
    in [decode; queue; execute; wal; replicate; respond] order.  Spans
    are recorded only when the server has [telemetry].  Taken under
    the server mutex, so any thread may call it — cheap, but a
    snapshot, not a live view. *)

val spans_chrome : t -> string
(** The span ring as Chrome [trace_event] JSON (what [/spans] serves):
    one [stage] slice per stage, span-id correlated, loadable in
    [chrome://tracing] / Perfetto. *)
