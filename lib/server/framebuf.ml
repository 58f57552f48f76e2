module Wire = Wdm_persist.Wire
module Crc32 = Wdm_persist.Crc32

(* A growable byte accumulator with amortized-O(1) appends and an
   incremental frame decoder.  Data lives in [buf.(start .. start+len)];
   consuming advances [start] and appending compacts lazily, so a
   steady stream of small frames never reallocates. *)
type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

let create ?(capacity = 4096) () =
  { buf = Bytes.create (max 8 capacity); start = 0; len = 0 }

let length t = t.len

let compact t =
  if t.start > 0 then begin
    Bytes.blit t.buf t.start t.buf 0 t.len;
    t.start <- 0
  end

let ensure t extra =
  if t.start + t.len + extra > Bytes.length t.buf then begin
    compact t;
    if t.len + extra > Bytes.length t.buf then begin
      let cap = ref (max 8 (Bytes.length t.buf)) in
      while t.len + extra > !cap do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.buf 0 grown 0 t.len;
      t.buf <- grown
    end
  end

let add_subbytes t src ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Framebuf.add_subbytes";
  ensure t len;
  Bytes.blit src off t.buf (t.start + t.len) len;
  t.len <- t.len + len

let add_string t s =
  let len = String.length s in
  ensure t len;
  Bytes.blit_string s 0 t.buf (t.start + t.len) len;
  t.len <- t.len + len

let drop t n =
  t.start <- t.start + n;
  t.len <- t.len - n;
  if t.len = 0 then t.start <- 0

let take t n =
  if n < 0 || n > t.len then invalid_arg "Framebuf.take";
  let s = Bytes.sub_string t.buf t.start n in
  drop t n;
  s

let contents t = Bytes.sub_string t.buf t.start t.len

let index t c =
  let rec go i =
    if i >= t.len then None
    else if Bytes.get t.buf (t.start + i) = c then Some i
    else go (i + 1)
  in
  go 0

let u32_at t i =
  Int32.to_int (Bytes.get_int32_le t.buf (t.start + i)) land 0xffffffff

type frame = Frame of string | Bad of string | Need of int

(* The streaming sibling of [Wire.read_frame]: same 4-byte length +
   4-byte CRC prelude, but over a buffer that may end mid-frame.
   [Need n] means at least [n] more bytes must arrive before a verdict;
   a peer that closes while we still [Need] died mid-frame.  The CRC is
   checked over the buffered bytes before the payload is copied out; a
   mismatched frame is consumed all the same. *)
let next_frame t =
  if t.len < 8 then Need (8 - t.len)
  else begin
    let len = u32_at t 0 in
    if len = 0 || len > Wire.max_payload then
      Bad (Printf.sprintf "implausible record length %d" len)
    else if t.len < 8 + len then Need (8 + len - t.len)
    else begin
      let crc =
        Crc32.update 0 (Bytes.unsafe_to_string t.buf) ~pos:(t.start + 8) ~len
      in
      if crc <> u32_at t 4 then begin
        drop t (8 + len);
        Bad "CRC mismatch"
      end
      else begin
        drop t 8;
        Frame (take t len)
      end
    end
  end
