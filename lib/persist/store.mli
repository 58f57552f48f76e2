(** Durable backend state: snapshot files, a live WAL session, and
    crash recovery.

    A store pairs one WAL ([<wal>]) with its snapshot files
    ([<wal>.snap.<seq>]).  A snapshot file is the {!Wire} header (kind
    ['S']) plus a single CRC32-framed payload: the snapshot sequence
    number, the WAL byte offset it covers, and the backend's
    {!Backend.encode_state} bytes, whose own tag says whether a
    multistage fabric or a mesh network comes back.  Recovery loads the
    newest snapshot consistent with the WAL and replays the ops past
    its offset through {!Resp.replay}, the path a leader executes on; a
    torn trailing WAL record is truncated, mid-stream corruption or a
    replay that fails or diverges fails loudly with the byte offset.
    The WAL is read by {!Wal.read} alone. *)

val snapshot_path : wal:string -> seq:int -> string
(** [<wal>.snap.<seq>]. *)

(** {1 Recording session} *)

type t

val start_backend :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?policy:Wal.flush_policy ->
  ?retain:int ->
  wal:string ->
  Backend.t ->
  t
(** Begins a fresh recording: truncates [wal], deletes stale
    [<wal>.snap.*] files, and writes snapshot 0 of the backend's
    current state.  [retain] (default 2) is how many of the most
    recent snapshots each checkpoint keeps on disk ([max_int] keeps
    them all — what a crash-at-every-boundary test wants).
    [telemetry] feeds the WAL instruments plus
    [persist_snapshots_total] and [persist_snapshot_latency_seconds].
    @raise Invalid_argument when [retain < 1]. *)

val log : t -> Op.t -> unit
(** Appends one op.  Call it for every committed op
    ({!Resp.committed}), before or after applying — the codec records
    requests, and replay re-derives outcomes deterministically. *)

val checkpoint_backend : t -> Backend.t -> unit
(** Flushes the WAL and writes the next snapshot at the current WAL
    offset.  The [retain] most recent snapshots are kept (the default
    of 2 means a corrupt newest snapshot still leaves a recovery
    path); older ones are deleted. *)

val wal_records : t -> int
val wal_offset : t -> int
(** Current end-of-WAL byte offset (flushes first). *)

val snapshot_seq : t -> int
(** Sequence number the next {!checkpoint_backend} will write. *)

val close : t -> unit

(** {1 Recovery} *)

type backend_recovery = {
  backend : Backend.t;
  b_snapshot_seq : int;  (** which snapshot seeded the state *)
  b_snapshot_offset : int;  (** WAL offset the snapshot covered *)
  b_replayed : int;  (** WAL ops replayed past the snapshot *)
  b_tear : int option;
      (** byte offset of a torn trailing record, if one was found
          (and truncated, unless [~truncate:false]) *)
}

type recovery_error =
  | No_snapshot of string
      (** no usable snapshot file — nothing to seed the state from *)
  | Corrupt of { path : string; offset : int; reason : string }
      (** mid-stream damage in the named file at the given byte
          offset, or a WAL record whose replay failed or diverged
          from its record; recovery refuses to guess past it *)

val pp_recovery_error : Format.formatter -> recovery_error -> unit

val recover_backend :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?truncate:bool ->
  wal:string ->
  unit ->
  (backend_recovery, recovery_error) result
(** Loads the newest snapshot whose WAL offset is a record boundary of
    the (valid prefix of the) WAL, restores it, and replays the tail
    with {!Resp.replay}.  A torn trailing record is truncated from the
    file ([truncate] defaults to [true]) so the recovered process can
    keep appending.  An unusable newest snapshot falls back to the
    previous one.  [telemetry] instruments the restored backend and
    feeds [persist_recoveries_total] and
    [persist_restore_latency_seconds]. *)

val resume_backend :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?policy:Wal.flush_policy ->
  ?retain:int ->
  wal:string ->
  unit ->
  (t * backend_recovery, recovery_error) result
(** {!recover_backend}, then continue the {e same} WAL in append mode
    instead of starting a fresh one — a restarting service keeps its
    history.  The writer's record count is the recovery scan's, so the
    WAL is read once.  The snapshot sequence continues past the newest
    file on disk, and an immediate checkpoint pins the recovered state
    at the current WAL offset.  @raise Invalid_argument when
    [retain < 1]. *)
