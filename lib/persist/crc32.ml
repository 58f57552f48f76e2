(* Slicing-by-8: row [k] of the table is the CRC of a byte followed by
   [k] zero bytes, so one step folds eight input bytes, read as one
   little-endian word, into the register with eight lookups.  Row 0 is
   the classic byte-at-a-time table. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let row k i = Array.unsafe_get table ((k * 256) + (i land 0xff))

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update: range out of bounds";
  let c = ref (crc lxor 0xffffffff) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let w = String.get_int64_le s !i in
    let lo = (Int64.to_int w land 0xffffffff) lxor !c in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      row 7 lo lxor row 6 (lo lsr 8) lxor row 5 (lo lsr 16)
      lxor row 4 (lo lsr 24) lxor row 3 hi lxor row 2 (hi lsr 8)
      lxor row 1 (hi lsr 16) lxor row 0 (hi lsr 24);
    i := !i + 8
  done;
  (* the last len mod 8 bytes *)
  while !i < stop do
    c := row 0 (!c lxor Char.code (String.unsafe_get s !i)) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xffffffff

let string s = update 0 s ~pos:0 ~len:(String.length s)
