(** Synchronous control-plane client: one request, one framed
    response, in order, over a {!Server.address}, with per-request
    deadlines.

    Failures are typed: [Timeout] is a deadline expiring ([SO_RCVTIMEO]
    on the socket — the dial has its own [dial_timeout]), [Transport]
    is the connection failing (refused, reset, EOF mid-exchange),
    [Protocol] is the peer speaking nonsense (bad hello, CRC mismatch,
    undecodable payload), and [Closed] is a request on a client a
    previous failure already shut down.  A request the server
    {e answered} — even with a refusal or [Not_leader] — is [Ok _]
    carrying the typed {!Wdm_persist.Resp.t}.  A transport failure or
    timeout mid-exchange leaves the byte stream unusable, so it also
    closes the client: every request after it fails fast with
    [Closed].  {!Resilient} wraps this with reconnection and leader
    redirect; this client stays one-socket, fail-fast. *)

module Network = Wdm_multistage.Network

type error =
  | Timeout  (** the deadline expired before the response arrived *)
  | Closed  (** the client was closed (by {!close} or a prior failure) *)
  | Transport of string  (** the connection failed *)
  | Protocol of string  (** the peer violated the wire protocol *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type t

val connect :
  ?dial_timeout:float -> ?deadline:float -> Server.address -> (t, error) result
(** Dials (bounded by [dial_timeout], default 5s) and performs the
    hello handshake.  [deadline] (default 30s) becomes the default
    per-request deadline, and already bounds the handshake read. *)

val close : t -> unit

val spans : t -> bool
(** Whether the span extension was negotiated: both hellos carried
    {!Protocol.flag_spans}.  When [false] (e.g. a pre-flags server)
    requests go out without the trailing span id and still work. *)

val last_span : t -> int option
(** The span id sent with the most recent {!request}; [None] before
    the first request or when spans are off.  Correlates a response
    with the server's slow-op log and stage trace. *)

val request :
  ?deadline:float ->
  t ->
  Wdm_persist.Resp.request ->
  (Wdm_persist.Resp.t, error) result
(** One request, one response.  [deadline] overrides the connect-time
    default for this and subsequent requests. *)

val request_batch :
  ?deadline:float ->
  t ->
  Wdm_persist.Resp.request list ->
  (Wdm_persist.Resp.t list, error) result
(** Pipelining: the requests travel in one
    {!Wdm_persist.Resp.request.Batch} frame and come back as one
    response list of the same arity, in request order.  [Ok []] for an
    empty list without touching the wire; [Error (Protocol _)] without
    sending when the list exceeds {!Wdm_persist.Resp.max_batch}.  A
    reply of the wrong shape or arity closes the client like a torn
    frame would — request/response pairing can no longer be trusted.
    The list must not itself contain a [Batch]. *)

val digest : t -> (int, error) result
(** [request Get_digest] narrowed to its payload. *)

val stats_json : t -> (string, error) result
(** [request Get_stats] narrowed to its payload. *)

val promote : t -> (int, error) result
(** [request Promote] narrowed: [Ok seq] when the follower took over,
    [Error (Protocol _)] when the node refused (already the leader). *)

val churn_sut :
  ?on_admit:(Network.route -> unit) ->
  t ->
  (int, Network.error) Wdm_traffic.Churn.sut
(** {!Wdm_persist.Resp.churn_sut} over {!request}: a seeded
    {!Wdm_traffic.Churn.run} drives a remote network exactly as it
    would an in-process one, and reads each answer the way the
    in-process run does (admitted → [Ok id], refused → [Error e] with
    the same typed {!Network.error}).  [on_admit] observes every
    admitted route (e.g. to fold {!Wdm_persist.Op.route_checksum} for
    equivalence checks).  Transport failures and unexpected answers
    raise [Failure] — a loadgen run against a dead server must abort,
    not tally refusals.  For a sut that survives failover, see
    {!Resilient.churn_sut}. *)

val churn_sut_pipelined :
  ?on_admit:(Network.route -> unit) ->
  ?depth:int ->
  t ->
  (int, Network.error) Wdm_traffic.Churn.sut * (unit -> unit)
(** {!churn_sut} over {!request_batch}: disconnects are buffered (up
    to [depth], default 64) and flushed — in issue order, inside the
    same [Batch], ahead of the next connect — so the server executes
    exactly the op sequence the sequential sut produces and digests
    stay comparable, while round-trips collapse by roughly the batch
    arity.  Connects are answered synchronously (the generator needs
    the admitted id).  Returns the sut and a [flush] to drain buffered
    disconnects; call it after {!Wdm_traffic.Churn.run} returns,
    before comparing digests.  Failure semantics match {!churn_sut}. *)
