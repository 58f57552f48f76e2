(** The network operation vocabulary and its binary codec.

    One value of {!t} is one state-changing (or deliberately refused)
    call against an engine ({!Backend.t}): the bench harness records
    them to measure routing throughput, the WAL persists them for crash
    recovery, and the tests replay them to pin down determinism.  All
    three share this codec, so a trace recorded anywhere replays
    anywhere.

    Replay correctness rests on the engines' determinism contract
    (DESIGN.md §6): connects are recorded as *requests*, not results —
    re-executing the same request sequence against the same starting
    state reallocates byte-identical routes and ids, which
    {!Resp.replay} relies on and {!route_checksum} verifies.  This
    module only names and encodes ops; {!Resp.execute_backend} is the
    one place an op reaches an engine. *)

open Wdm_core
module Network = Wdm_multistage.Network

type t =
  | Connect of Connection.t
      (** a [Network.connect] request (recorded whether or not it was
          admitted: refused requests leave no state but do advance
          telemetry, and replaying them costs nothing) *)
  | Disconnect of int  (** [Network.disconnect] by route id *)
  | Inject_fault of Wdm_faults.Fault.t
  | Clear_fault of Wdm_faults.Fault.t
  | Repair of { connection : Connection.t; rehomed : bool }
      (** a repair attempt for a fault victim via
          [Network.connect_rearrangeable]; [rehomed] records the
          original outcome, and {!Resp.replay} refuses a replay that
          produces the other one *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Codec}

    [encode] appends the payload bytes of one op (tag byte, then the
    op-specific fields); framing and CRC are {!Wire}'s job. *)

val encode : Buffer.t -> t -> unit

val encode_connection : Buffer.t -> Connection.t -> unit
val decode_connection : Wire.reader -> Connection.t

val encode_fault : Buffer.t -> Wdm_faults.Fault.t -> unit
val decode_fault : Wire.reader -> Wdm_faults.Fault.t

val encode_endpoint : Buffer.t -> Wdm_core.Endpoint.t -> unit
val decode_endpoint : Wire.reader -> Wdm_core.Endpoint.t
(** The endpoint, connection and fault sub-codecs, shared with the
    snapshot format ({!Store}) and the control-plane responses
    ({!Resp}) so a value serializes identically everywhere. *)

val decode : Wire.reader -> t
(** Consumes exactly one op.  @raise Wire.Decode_error on malformed
    input (bad tag, out-of-range field, structurally invalid
    connection). *)

val decode_string : string -> (t, string) result
(** Decodes a whole payload; trailing bytes are an error. *)

val route_checksum : int -> Network.route -> int
(** Folds one admitted route into a running hop checksum (the bench
    harness's byte-identical-routes check, promoted here so bench,
    recovery tests and CI smoke checks agree on the formula). *)
