(** The replication wire vocabulary and the follower's on-disk mark.

    After a follower identifies itself with the ['F'] hello
    ({!Wdm_server.Protocol}), the conversation is CRC32-framed
    {!Wire} records in both directions: the follower sends one
    {!to_leader.Subscribe}, the leader answers with either a full
    state ({!to_follower.Init_snapshot}) or a resume point
    ({!to_follower.Init_resume}) and then streams committed ops; the
    follower acknowledges digest checkpoints with {!to_leader.Ack}.
    Sequence numbers count committed ops since the leader's store
    began — the same record stream its WAL holds — so "seq" means the
    same position on the wire, in the leader's WAL and in the
    follower's replayed state.  DESIGN.md §10 documents the protocol
    and its consistency argument. *)

(** {1 Follower to leader} *)

type to_leader =
  | Subscribe of { epoch : int; last_seq : int }
      (** [epoch] is the leader generation the follower last spoke to
          (0 when it has none); [last_seq] the last op it has applied,
          or [-1] to demand a fresh snapshot.  A leader only honours a
          resume from its own epoch. *)
  | Ack of { seq : int; digest : int }
      (** The follower's state digest after applying op [seq], sent in
          response to {!to_follower.Rep_digest}. *)

val encode_to_leader : Buffer.t -> to_leader -> unit
val decode_to_leader : Wire.reader -> to_leader
val to_leader_of_string : string -> (to_leader, string) result
val pp_to_leader : Format.formatter -> to_leader -> unit

(** {1 Leader to follower} *)

type to_follower =
  | Init_snapshot of { epoch : int; seq : int; state : string }
      (** Full state ({!Backend.encode_state} bytes) as of op [seq];
          the stream continues from [seq + 1]. *)
  | Init_resume of { epoch : int; seq : int }
      (** The follower's [last_seq] was honoured; the stream continues
          from [seq + 1] atop its existing state. *)
  | Rep_op of { seq : int; op : Op.t }
  | Rep_digest of { seq : int; digest : int }
      (** Leader's state digest after op [seq]; the follower compares
          against its own and must answer with {!to_leader.Ack}. *)
  | Goodbye of { reason : string }
      (** The leader is dropping this follower deliberately (slow
          consumer, shutdown) — reconnect is the follower's call. *)

val encode_to_follower : Buffer.t -> to_follower -> unit
val decode_to_follower : Wire.reader -> to_follower
val to_follower_of_string : string -> (to_follower, string) result
val pp_to_follower : Format.formatter -> to_follower -> unit

(** {1 Follower mark}

    A follower persists ops to its own WAL, but that WAL alone does
    not say {e where in the leader's stream} its origin snapshot sat.
    The mark ([<wal>.repl], header kind ['M']) records that: after a
    local recovery the follower resumes from [base_seq] + the number
    of records in its truncated WAL.  Written atomically (temp file +
    rename), so a crash mid-write leaves the previous mark. *)

type mark = { epoch : int; base_seq : int }

val mark_path : wal:string -> string
val save_mark : wal:string -> mark -> unit
val load_mark : wal:string -> mark option
(** [None] when the file is missing, unreadable or malformed — the
    follower then asks for a fresh snapshot, which is always safe. *)

val remove_mark : wal:string -> unit
