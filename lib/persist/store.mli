(** Durable network state: snapshot files, a live WAL session, and
    crash recovery.

    A store pairs one WAL ([<wal>]) with its snapshot files
    ([<wal>.snap.<seq>]).  A snapshot file is the {!Wire} header (kind
    ['S']) plus a single CRC32-framed payload: the snapshot sequence
    number, the WAL byte offset it covers, and the encoded
    {!Wdm_multistage.Network.snapshot}.  Recovery loads the newest
    snapshot consistent with the WAL and replays the ops past its
    offset; a torn trailing WAL record is truncated, mid-stream
    corruption fails loudly with the byte offset. *)

module Network = Wdm_multistage.Network

(** {1 State codec} *)

val encode_state : Network.snapshot -> string
(** The deterministic byte encoding of a network snapshot (without the
    seq / WAL-offset metadata). *)

val decode_state : string -> (Network.snapshot, string) result

val encode_route : Buffer.t -> Network.route -> unit
val decode_route : Wire.reader -> Network.route
(** The allocated-route sub-codec of the snapshot format, also reused
    by {!Resp} for wire responses, so a route serializes identically
    in a snapshot file and on a control-plane socket.
    [decode_route] @raise Wire.Decode_error on malformed input. *)

val digest : Network.t -> int
(** {!Backend.digest} of a multistage network ({!Network.digest}): a
    whole-state fingerprint, in time independent of the number of live
    routes, for "did recovery reproduce the same network" checks (the
    CI smoke test compares these across a record / kill / recover
    cycle).  Digests agree only between builds with the same digest
    definition. *)

val snapshot_path : wal:string -> seq:int -> string
(** [<wal>.snap.<seq>]. *)

val write_snapshot : path:string -> seq:int -> wal_offset:int ->
  Network.snapshot -> unit

val read_snapshot :
  string -> (int * int * Network.snapshot, string) result
(** [(seq, wal_offset, snapshot)], or why the file is unusable. *)

(** {1 Recording session} *)

type t

val start :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?policy:Wal.flush_policy ->
  ?retain:int ->
  wal:string ->
  Network.t ->
  t
(** [start_backend] specialized to the multistage fabric. *)

val start_backend :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?policy:Wal.flush_policy ->
  ?retain:int ->
  wal:string ->
  Backend.t ->
  t
(** Begins a fresh recording: truncates [wal], deletes stale
    [<wal>.snap.*] files, and writes snapshot 0 of the network's
    current state.  [retain] (default 2) is how many of the most
    recent snapshots each checkpoint keeps on disk ([max_int] keeps
    them all — what a crash-at-every-boundary test wants).
    [telemetry] feeds the WAL instruments plus
    [persist_snapshots_total] and [persist_snapshot_latency_seconds].
    @raise Invalid_argument when [retain < 1]. *)

val log : t -> Op.t -> unit
(** Appends one op.  Call it for every state-changing request, before
    or after applying — the codec records requests, and replay
    re-derives outcomes deterministically. *)

val checkpoint : t -> Network.t -> unit
val checkpoint_backend : t -> Backend.t -> unit
(** Flushes the WAL and writes the next snapshot at the current WAL
    offset.  The [retain] most recent snapshots are kept (the default
    of 2 means a corrupt newest snapshot still leaves a recovery
    path); older ones are deleted. *)

val wal_records : t -> int
val wal_offset : t -> int
(** Current end-of-WAL byte offset (flushes first). *)

val snapshot_seq : t -> int
(** Sequence number the next {!checkpoint} will write. *)

val close : t -> unit

(** {1 Recovery} *)

type recovery = {
  network : Network.t;
  snapshot_seq : int;  (** which snapshot seeded the state *)
  snapshot_offset : int;  (** WAL offset the snapshot covered *)
  replayed : int;  (** WAL ops applied past the snapshot *)
  tear : int option;
      (** byte offset of a torn trailing record, if one was found
          (and truncated, unless [~truncate:false]) *)
}

type backend_recovery = {
  backend : Backend.t;
  b_snapshot_seq : int;
  b_snapshot_offset : int;
  b_replayed : int;
  b_tear : int option;
}
(** {!recovery} for either state kind; the snapshot's own tag decides
    whether a multistage fabric or a mesh network comes back. *)

type recovery_error =
  | No_snapshot of string
      (** no usable snapshot file — nothing to seed the state from *)
  | Corrupt of { path : string; offset : int; reason : string }
      (** mid-stream damage in the named file at the given byte
          offset; recovery refuses to guess past it *)

val pp_recovery_error : Format.formatter -> recovery_error -> unit

val recover :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?truncate:bool ->
  wal:string ->
  unit ->
  (recovery, recovery_error) result
(** Loads the newest snapshot whose WAL offset is a record boundary of
    the (valid prefix of the) WAL, restores it, and replays the tail.
    A torn trailing record is truncated from the file ([truncate]
    defaults to [true]) so the recovered process can keep appending.
    An unusable newest snapshot falls back to the previous one.
    [telemetry] instruments the restored network and feeds
    [persist_recoveries_total] and
    [persist_restore_latency_seconds].  Errors with [No_snapshot] if
    the WAL holds a mesh session — use {!recover_backend}. *)

val recover_backend :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?truncate:bool ->
  wal:string ->
  unit ->
  (backend_recovery, recovery_error) result
(** {!recover} without committing to a state kind. *)

val resume_backend :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?policy:Wal.flush_policy ->
  ?retain:int ->
  wal:string ->
  unit ->
  (t * backend_recovery, recovery_error) result
(** {!resume} without committing to a state kind. *)

val resume :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?policy:Wal.flush_policy ->
  ?retain:int ->
  wal:string ->
  unit ->
  (t * recovery, recovery_error) result
(** {!recover}, then continue the {e same} WAL in append mode instead
    of starting a fresh one — a restarting service keeps its history.
    The snapshot sequence continues past the newest file on disk, and
    an immediate checkpoint pins the recovered state at the current
    WAL offset.  @raise Invalid_argument when [retain < 1]. *)
