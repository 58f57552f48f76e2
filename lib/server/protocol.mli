(** Socket-side framing for the control plane.

    The on-wire format is the persistence layer's: after an 8-byte
    header handshake (client hello kind ['C'], server hello kind
    ['R'] — same magic and version byte as the WAL's), each direction
    carries {!Wdm_persist.Wire} CRC32-framed records.  A request
    payload is one {!Wdm_persist.Resp.request}, a response payload one
    {!Wdm_persist.Resp.t}.  This module only moves and validates
    frames; what is inside them is {!Wdm_persist.Resp}'s business.

    All blocking primitives here retry [EINTR]: a signal mid-syscall
    (SIGUSR1 promote, SIGTERM's grace window) must neither tear down a
    healthy connection nor leave half a frame on the wire. *)

val client_hello : string
val server_hello : string

val follower_hello : string
(** Kind ['F']: the connecting peer is a replica asking for the WAL
    stream ({!Wdm_persist.Repl}), not a request/response client.  The
    server answers with the same ['R'] hello either way. *)

val check_client_hello : string -> (unit, string) result
val check_server_hello : string -> (unit, string) result
val check_follower_hello : string -> (unit, string) result

(** {1 Span capability}

    The hello's byte 6 was reserved-zero padding; it now carries
    capability flags ({!Wdm_persist.Wire.header_with_flags}).
    [check_*_hello] ignores it, so flagged and plain hellos
    interoperate in both directions.  When both sides flagged
    {!flag_spans}, every request payload carries a trailing 8-byte
    span id minted by the client ({!Client}); a plain peer on either
    side silently downgrades the connection to span-less framing. *)

val flag_spans : int
(** Bit [0x01]: the sender can mint / decode trailing span ids. *)

val client_hello_spans : string
val server_hello_spans : string

val hello_has_spans : string -> bool
(** Whether a received hello advertised {!flag_spans}. *)

val write_all : Unix.file_descr -> string -> unit
(** Loops over short writes, retrying [EINTR].
    @raise Unix.Unix_error as [Unix.write] for every other failure. *)

type exactly =
  | Exact of string  (** all [n] bytes arrived *)
  | Eof_clean  (** EOF before any byte — a clean close *)
  | Eof_torn of int  (** EOF after [got] bytes — the peer died mid-value *)

val read_exactly : Unix.file_descr -> int -> exactly
(** Reads exactly [n] bytes, retrying short reads and [EINTR].  A torn
    tail is an ordinary constructor, not an exception: every caller
    must classify it, which is how a half-frame-then-close lands in
    {!recv}'s [Bad] path rather than killing the reader. *)

val send_frame : Unix.file_descr -> string -> unit
(** Frames ({!Wdm_persist.Wire.frame}) and writes one payload. *)

type recv = Frame of string | Eof | Bad of string

val recv_frame : Unix.file_descr -> recv
(** Reads one frame off the socket: [Eof] at a clean record boundary,
    [Bad] on an implausible length, a CRC mismatch, or a peer that
    died mid-frame — the stream is unrecoverable past a [Bad]. *)
