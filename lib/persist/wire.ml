exception Decode_error of { offset : int; reason : string }

(* ----- writing --------------------------------------------------------- *)

let put_u8 b v =
  if v < 0 || v > 0xff then invalid_arg "Wire.put_u8: out of range";
  Buffer.add_uint8 b v

let put_u32 b v =
  if v < 0 || v > 0xffffffff then invalid_arg "Wire.put_u32: out of range";
  Buffer.add_int32_le b (Int32.of_int v)

let int_limit = 1 lsl 55

let put_int b v =
  if v >= int_limit || v <= -int_limit then
    invalid_arg "Wire.put_int: out of range";
  Buffer.add_int64_le b (Int64.of_int v)

(* ----- reading --------------------------------------------------------- *)

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }

let error r reason = raise (Decode_error { offset = r.pos; reason })

let need r n =
  if r.pos + n > String.length r.src then error r "truncated value"

let get_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  v

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xffffffff

let get_u32 r =
  need r 4;
  let v = u32_at r.src r.pos in
  r.pos <- r.pos + 4;
  v

let get_int r =
  need r 8;
  (* values are restricted to |v| < 2^55 on encode, so the top byte is
     pure sign extension: anything else is corrupt input *)
  let top = Char.code (String.unsafe_get r.src (r.pos + 7)) in
  if top <> 0 && top <> 0xff then error r "int out of range";
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let expect_end r =
  if r.pos <> String.length r.src then error r "trailing bytes in record"

(* ----- file header ----------------------------------------------------- *)

let magic = "WDMP"
let version = 1
let header_len = 8

let header ~kind = Printf.sprintf "%s%c%c\000\000" magic kind (Char.chr version)

(* Byte 6 of the 8-byte header was reserved-zero from v0; it now
   carries optional capability flags.  [check_header] never inspects
   it, so a flagged header is accepted by every deployed decoder and a
   plain header reads back as flags = 0 — that asymmetry is the whole
   backward-compatibility story for the span extension. *)
let header_with_flags ~kind ~flags =
  if flags < 0 || flags > 0xff then
    invalid_arg "Wire.header_with_flags: flags outside [0, 255]";
  Printf.sprintf "%s%c%c%c\000" magic kind (Char.chr version) (Char.chr flags)

let header_flags s = if String.length s >= 7 then Char.code s.[6] else 0

let check_header ~kind s =
  if String.length s < header_len then Error "file shorter than its header"
  else if String.sub s 0 4 <> magic then Error "bad magic"
  else if s.[4] <> kind then
    Error (Printf.sprintf "wrong file kind '%c' (want '%c')" s.[4] kind)
  else if Char.code s.[5] <> version then
    Error (Printf.sprintf "unsupported format version %d" (Char.code s.[5]))
  else Ok ()

(* ----- framing --------------------------------------------------------- *)

let max_payload = 1 lsl 26

(* A scratch buffer that a large frame grew past this is reset after
   use, so that one snapshot ship or stats document does not pin its
   size for the owner's lifetime. *)
let scratch_keep = 1 lsl 16

(* The one framing path: encode into the caller's scratch, allocate the
   framed string once, blit the payload into it and checksum it there.
   The string alias handed to [Crc32] is dead before the CRC field is
   written. *)
let frame_with scratch encode v =
  Buffer.clear scratch;
  encode scratch v;
  let len = Buffer.length scratch in
  let f = Bytes.create (len + 8) in
  Buffer.blit scratch 0 f 8 len;
  if len > scratch_keep then Buffer.reset scratch;
  let crc = Crc32.update 0 (Bytes.unsafe_to_string f) ~pos:8 ~len in
  Bytes.set_int32_le f 0 (Int32.of_int len);
  Bytes.set_int32_le f 4 (Int32.of_int crc);
  Bytes.unsafe_to_string f

let frame payload =
  frame_with (Buffer.create (String.length payload)) Buffer.add_string payload

type frame_result =
  | Frame of { payload : string; next : int }
  | Torn of int
  | Corrupt of { offset : int; reason : string }
  | End

let read_frame src ~pos =
  let total = String.length src in
  if pos = total then End
  else if pos + 8 > total then Torn pos
  else begin
    let len = u32_at src pos in
    if len = 0 || len > max_payload then
      Corrupt
        { offset = pos;
          reason = Printf.sprintf "implausible record length %d" len }
    else if pos + 8 + len > total then Torn pos
    else if Crc32.update 0 src ~pos:(pos + 8) ~len <> u32_at src (pos + 4) then
      Corrupt { offset = pos; reason = "CRC mismatch" }
    else
      Frame { payload = String.sub src (pos + 8) len; next = pos + 8 + len }
  end
