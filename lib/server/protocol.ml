module Wire = Wdm_persist.Wire
module Crc32 = Wdm_persist.Crc32

let client_hello = Wire.header ~kind:'C'
let server_hello = Wire.header ~kind:'R'
let follower_hello = Wire.header ~kind:'F'
let check_client_hello s = Wire.check_header ~kind:'C' s
let check_server_hello s = Wire.check_header ~kind:'R' s
let check_follower_hello s = Wire.check_header ~kind:'F' s

(* Span capability: advertised in the hello's flags byte (reserved-zero
   padding to pre-flags peers, so either side may be old).  The
   extension is live on a connection only when BOTH hellos carried the
   bit; only then does the client append a trailing span id to each
   request payload. *)
let flag_spans = 0x01
let client_hello_spans = Wire.header_with_flags ~kind:'C' ~flags:flag_spans
let server_hello_spans = Wire.header_with_flags ~kind:'R' ~flags:flag_spans
let hello_has_spans s = Wire.header_flags s land flag_spans <> 0

(* Every blocking syscall below retries EINTR: a signal landing
   mid-write (SIGUSR1 promote, SIGTERM's grace window, an interval
   timer) must not tear down a healthy connection or leave half a
   frame on the wire. *)

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    match Unix.write_substring fd s !written (n - !written) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | w -> written := !written + w
  done

let rec read_retry fd buf off len =
  match Unix.read fd buf off len with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf off len
  | r -> r

(* Fills [buf.(0 .. n-1)] from the socket; the count that arrived
   before EOF. *)
let fill fd buf n =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < n do
    match read_retry fd buf !got (n - !got) with
    | 0 -> eof := true
    | r -> got := !got + r
  done;
  !got

type exactly = Exact of string | Eof_clean | Eof_torn of int

let read_exactly fd n =
  let buf = Bytes.create n in
  match fill fd buf n with
  | got when got = n -> Exact (Bytes.unsafe_to_string buf)
  | 0 -> Eof_clean
  | got -> Eof_torn got

let send_frame fd payload = write_all fd (Wire.frame payload)

type recv = Frame of string | Eof | Bad of string

let u32_at b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xffffffff

(* The socket variant of [Wire.read_frame]: same 4-byte length + 4-byte
   CRC prelude, but a torn tail here means the peer died mid-frame —
   there is no file to truncate, so it is reported as damage.  The
   prelude is read into 8 bytes and parsed in place; the CRC is checked
   over the payload bytes as read. *)
let recv_frame fd =
  let prelude = Bytes.create 8 in
  match fill fd prelude 8 with
  | 0 -> Eof
  | got when got < 8 -> Bad "peer closed mid-frame-header"
  | _ ->
    let len = u32_at prelude 0 in
    if len = 0 || len > Wire.max_payload then
      Bad (Printf.sprintf "implausible record length %d" len)
    else
      let buf = Bytes.create len in
      if fill fd buf len < len then Bad "peer closed mid-payload"
      else
        let payload = Bytes.unsafe_to_string buf in
        if Crc32.update 0 payload ~pos:0 ~len <> u32_at prelude 4 then
          Bad "CRC mismatch"
        else Frame payload
