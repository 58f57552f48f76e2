(** Binary primitives shared by the WAL and snapshot codecs.

    Everything on disk is little-endian.  Files open with an 8-byte
    header ([magic], a kind byte, a version byte, two reserved zero
    bytes) followed by CRC32-framed records: a 4-byte payload length, a
    4-byte CRC32 of the payload, then the payload itself.  The framing
    is what lets recovery classify damage: an incomplete frame at end
    of file is a torn write (truncate and carry on), a complete frame
    whose CRC does not match is corruption (fail loudly with the byte
    offset).  DESIGN.md documents the full format. *)

exception Decode_error of { offset : int; reason : string }
(** Raised by the [get_*] readers; [offset] is relative to the start of
    the string being decoded. *)

(** {1 Writing} *)

val put_u8 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [0, 255]. *)

val put_u32 : Buffer.t -> int -> unit
(** Little-endian. @raise Invalid_argument outside [0, 2{^32}-1]. *)

val put_int : Buffer.t -> int -> unit
(** 8 bytes, little-endian, sign-extended.  Restricted to
    [|v| < 2{^55}] so every value round-trips exactly on 64-bit OCaml.
    @raise Invalid_argument outside that range. *)

(** {1 Reading} *)

type reader = { src : string; mutable pos : int }

val reader : ?pos:int -> string -> reader
val get_u8 : reader -> int
val get_u32 : reader -> int
val get_int : reader -> int
val expect_end : reader -> unit
(** @raise Decode_error if any input remains. *)

(** {1 File header} *)

val header_len : int
(** 8 bytes. *)

val header : kind:char -> string
(** Kinds in use: ['W'] (op WAL), ['S'] (network snapshot), ['M']
    (follower replication mark), plus the socket hellos ['C'] / ['R'] /
    ['F'] ({!Wdm_server.Protocol}). *)

val header_with_flags : kind:char -> flags:int -> string
(** Like {!header} with byte 6 (reserved-zero since v0) carrying a
    capability bitmap — e.g. the hello span-extension flag
    ({!Wdm_server.Protocol.flag_spans}).  Decoders that predate flags
    ignore the byte, so a flagged header is universally accepted.
    @raise Invalid_argument outside [0, 255]. *)

val header_flags : string -> int
(** The flags byte of a header string; [0] for a pre-flags header or a
    string too short to carry one. *)

val check_header : kind:char -> string -> (unit, string) result
(** Validates magic, kind and version of a whole-file string.  The
    flags byte is deliberately not validated — unknown flags must not
    reject a file or a hello. *)

(** {1 Framing} *)

val max_payload : int
(** Upper bound on a plausible record payload (64 MiB).  A length
    field beyond it is classified as corruption, not as a torn write —
    a flipped length byte must not silently swallow the rest of the
    file as "torn". *)

val frame_with : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a -> string
(** [frame_with scratch encode v] clears [scratch], runs [encode scratch v]
    and returns the length + CRC header followed by the encoded payload,
    ready to write: the one framing path behind every WAL record,
    snapshot file, socket response and replication frame.  The framed
    string is allocated once, the payload is copied into it once, and
    the CRC is computed over it in place.  [scratch] belongs to the
    caller (a server, a WAL writer, a client) and keeps its capacity
    between calls; a payload longer than 64 KiB resets it afterwards
    ({!Buffer.reset}), so one large frame does not pin its memory. *)

val frame : string -> string
(** [frame payload] is {!frame_with} over a fresh buffer holding
    [payload]. *)

type frame_result =
  | Frame of { payload : string; next : int }  (** [next]: offset after *)
  | Torn of int  (** incomplete trailing record starting at this offset *)
  | Corrupt of { offset : int; reason : string }
  | End

val read_frame : string -> pos:int -> frame_result
(** Classifies the bytes at [pos] of a whole-file string. *)
