(** Control-plane requests and responses, in the WAL's dialect.

    The server speaks the persistence layer's language: a request is
    one CRC32-framed {!Op} payload (plus two read-only control
    requests in a reserved tag range), a response is one framed value
    of {!t}.  Reusing the {!Op} and {!Backend} sub-codecs means a bench
    trace, a WAL record and a network request are interchangeable
    byte strings — anything that can replay a WAL can drive a server,
    and vice versa.

    DESIGN.md §9 documents the full wire exchange (header handshake,
    frame layout, batching semantics). *)

module Network = Wdm_multistage.Network

(** {1 Requests} *)

type request =
  | Admit of Op.t
      (** a state-changing op, encoded exactly as in the WAL
          (tags 1-5) *)
  | Get_digest
      (** whole-state fingerprint ({!Backend.digest}) of the live
          state — tag [0xF1] *)
  | Get_stats
      (** server-side telemetry snapshot as JSON — tag [0xF2] *)
  | Promote
      (** ask a follower to become the leader — tag [0xF3]; answered
          with {!t.Promoted} by a follower, [Server_error] by a node
          that is already the leader *)
  | Batch of request list
      (** pipelining: up to {!max_batch} requests carried in one frame
          — tag [0xF4] — executed in order and answered with a single
          {!t.Batch_reply} of the same arity.  Nesting is rejected at
          both encode and decode. *)

val max_batch : int
(** Upper bound on {!request.Batch} arity (and [Batch_reply]'s). *)

val encode_request : Buffer.t -> request -> unit
(** @raise Invalid_argument on an oversized or nested [Batch]. *)

val decode_request : Wire.reader -> request
(** Consumes exactly one request.  @raise Wire.Decode_error on
    malformed input, including nested or oversized batches. *)

(** {1 Responses} *)

type t =
  | Admitted of { route : Network.route; moved : int }
      (** a connect-like op was admitted; [moved] is the number of
          existing connections rerouted to make room (always [0] for
          plain [Connect]) *)
  | Refused of Network.error  (** a connect-like op was refused *)
  | Released of Network.route  (** a disconnect succeeded *)
  | Release_failed of Network.disconnect_error
  | Fault_applied of { torn_down : int }
      (** an [Inject_fault] took effect; [torn_down] live routes were
          lost to it *)
  | Fault_cleared  (** a [Clear_fault] took effect *)
  | Digest_is of int
  | Stats_json of string
  | Server_error of string
      (** the request could not be executed at all (malformed frame,
          out-of-range fault indices, ...); the payload is
          human-readable *)
  | Not_leader of { leader : string }
      (** a follower refusing a state-changing request; [leader] is
          the address to retry against when the follower knows it
          ([""] otherwise) *)
  | Promoted of { seq : int }
      (** a follower accepted {!request.Promote} and now leads, with
          [seq] ops applied *)
  | Batch_reply of t list
      (** tag [12]: one response per request of a {!request.Batch}, in
          request order — the pipelined path's single coalesced answer *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : Buffer.t -> t -> unit

val decode : Wire.reader -> t
(** @raise Wire.Decode_error on malformed input. *)

val decode_string : string -> (t, string) result
(** Decodes a whole payload; trailing bytes are an error. *)

(** {1 Execution} *)

val execute_backend :
  ?stats:(unit -> string) -> Backend.t -> request -> t
(** The one place request semantics live, and the one path by which an
    op reaches an engine: a leader executes through it, and a follower
    and crash recovery replay through it ({!replay}).  On the
    multistage fabric, [Connect] and [Repair] map to {!Network.connect}
    / {!Network.connect_rearrangeable} and answer [Admitted]/[Refused];
    [Disconnect] answers [Released]/[Release_failed]; fault ops answer
    [Fault_applied]/[Fault_cleared].  A mesh backend answers [Connect],
    [Repair] (a fresh admit: no rearrangement pass) and [Disconnect]
    through the mesh engine, with results mapped onto the multistage
    route vocabulary ({!Backend.net_route_of_mesh}); its fault ops
    answer [Server_error], since a mesh has no switch fabric to fault.
    [Get_digest] answers {!Backend.digest}.  [Get_stats] answers with
    [stats ()] (default: ["{}"] — the server passes its metrics
    renderer).  [Invalid_argument] from fault validation is caught and
    answered as [Server_error] — a bad request must not take the server
    down.  [Promote] answers [Server_error]: promotion changes a
    server's role, not state, so the server intercepts it before this
    function ever sees it.  [Batch] maps [execute_backend] over its
    requests and answers [Batch_reply] — the server instead unrolls
    batches itself so each sub-op hits the WAL and replication stream
    individually. *)

val committed : request -> t -> Op.t option
(** The op an executed request commits, if any: the one rule for what
    the WAL and the replication stream record.  An [Admit] answered
    [Admitted], [Refused], [Released], [Fault_applied] or
    [Fault_cleared] commits its op, a [Repair] with [rehomed] set to
    the outcome this execution produced ([true] exactly when
    [Admitted]).  Everything else commits nothing: a [Release_failed]
    or [Server_error] op failed to execute, and replaying it would fail
    again and read as corruption — one such client request would poison
    the WAL for good.  A refused connect is committed; it replays as the
    same refusal.  Control requests and whole batches commit nothing
    (the server commits a batch sub-op by sub-op). *)

(** {1 Driving the churn generator} *)

val admitted : t -> (Network.route, Network.error) result
(** A connect-like answer as the churn driver reads it: [Admitted] is
    [Ok route], [Refused e] is [Error e].
    @raise Failure on any other answer. *)

val released : t -> unit
(** A disconnect answer as the churn driver reads it: [Released] is
    [()].  @raise Failure on any other answer. *)

val churn_sut :
  ?on_admit:(Network.route -> unit) ->
  (request -> t) ->
  (int, Network.error) Wdm_traffic.Churn.sut
(** The churn driver's switch under test over any executor: [connect c]
    sends [Admit (Connect c)] and reads the answer with {!admitted}
    (an admitted route's id, after [on_admit route]); [disconnect id]
    sends [Admit (Disconnect id)] and reads it with {!released}.  The
    executor may be {!execute_backend} on a local engine, optionally
    journalling {!committed}, or a socket; so an in-process run, a
    served one and a recorded one read answers the same way. *)

val replay : Backend.t -> Op.t -> (unit, string) result
(** Re-executes one recorded op through {!execute_backend}.  [Ok]
    exactly when {!committed} returns the op that was recorded: the op
    executed, and a [Repair] reproduced its recorded outcome.  Crash
    recovery and a follower's stream apply both replay through it, so
    a recorded op that fails to execute or diverges is an [Error]
    naming why — never a silent divergence. *)
