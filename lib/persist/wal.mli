(** The operation write-ahead log.

    A WAL file is the {!Wire} header (kind ['W']) followed by one
    CRC32-framed {!Op} record per operation, appended in execution
    order.  Recovery ({!Store.recover_backend}) replays the tail past
    the newest snapshot; this module only reads and writes the file.

    Durability is the caller's trade to make, so flushing is a
    pluggable {!flush_policy}: a simulation recording a trace wants
    [Buffered], a service that must not lose admitted circuits wants
    [Fsync_every 1] and pays the disk's price for it — the
    [persist_fsync_latency_seconds] histogram shows exactly how
    much. *)

type flush_policy =
  | Buffered  (** OS-buffered; data reaches the file on {!close} *)
  | Flush_every of int  (** channel flush every [n] records (default [1]) *)
  | Fsync_every of int  (** flush every record, [fsync] every [n] records *)

type writer

val create : ?telemetry:Wdm_telemetry.Sink.t -> ?policy:flush_policy ->
  string -> writer
(** Truncates [path] and writes a fresh header.  [policy] defaults to
    [Flush_every 1].  [telemetry] feeds [persist_wal_records_total],
    [persist_wal_bytes_total] and [persist_fsync_latency_seconds].
    @raise Invalid_argument on a non-positive policy interval. *)

val open_append :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?policy:flush_policy ->
  ?records:int ->
  string ->
  writer
(** Reopens an existing WAL for appending (header verified, channel
    positioned at end-of-file) — what {!Store.resume_backend} uses to
    continue a recovered session instead of truncating its history.
    [records] seeds the writer's record count, so {!records} and the
    [Flush_every] cadence continue where the previous session left
    off.  @raise Invalid_argument when [path] is not a WAL (missing or
    bad header) or on a non-positive policy interval. *)

val append : writer -> Op.t -> unit
val records : writer -> int
(** Records appended so far. *)

val tell : writer -> int
(** Byte offset after the last appended record — what a snapshot taken
    now must store as its WAL offset.  Flushes first, so the offset
    never points past the file's durable content. *)

val sync : writer -> unit
(** Flush and [fsync] now, regardless of policy. *)

val close : writer -> unit

(** {1 Reading} *)

type read_outcome = {
  ops : (int * Op.t) list;  (** (byte offset of the record, op) *)
  tear : int option;
      (** byte offset of an incomplete trailing record, if any *)
  valid_end : int;
      (** end of the valid prefix: the tear offset, or the file's
          length *)
}

type read_error = {
  offset : int;
      (** byte offset of the damage: [0] for an unreadable file or a
          bad header, else the start of the failing record *)
  reason : string;
}

val read : string -> (read_outcome, read_error) result
(** Reads a whole WAL: the one WAL scanner, which recovery
    ({!Store.recover_backend}) and the tests share.  A torn trailing
    record is reported, not an error; a bad header, an implausible
    length, a CRC mismatch on a complete record or an undecodable op is
    an [Error] at the failing byte offset.  Never raises. *)

val truncate_at : string -> int -> unit
(** Cuts the file at a tear offset so a recovered process can append.
    The shortened file and its directory are both [fsync]ed before
    returning: a crash immediately after recovery must not resurrect
    the torn bytes the recovery decided to discard. *)
