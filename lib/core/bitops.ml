(* Branch-light bit tricks for the packed link-state planes.  All
   functions operate on non-negative OCaml ints, i.e. at most 62 usable
   bits on 64-bit platforms — enough for one wavelength plane (k <= 62)
   or one word of a larger bitset. *)

let word_bits = 62
let words_for n = (n + word_bits - 1) / word_bits
let word_of i = i / word_bits
let bit_of i = 1 lsl (i mod word_bits)

(* SWAR popcount (Hacker's Delight, fig. 5-2), widened to OCaml's
   63-bit ints.  The final multiply gathers the per-byte sums into the
   top byte; shifting by 56 works because a 63-bit int holds at most 63
   set bits, which fits in that byte. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* Index of the least-significant set bit, by binary search on halves.
   Undefined on 0 (returns [word_bits]); callers guard. *)
let ctz x =
  if x = 0 then word_bits
  else begin
    let n = ref 0 in
    let x = ref x in
    if !x land 0xFFFFFFFF = 0 then begin
      n := !n + 32;
      x := !x lsr 32
    end;
    if !x land 0xFFFF = 0 then begin
      n := !n + 16;
      x := !x lsr 16
    end;
    if !x land 0xFF = 0 then begin
      n := !n + 8;
      x := !x lsr 8
    end;
    if !x land 0xF = 0 then begin
      n := !n + 4;
      x := !x lsr 4
    end;
    if !x land 0x3 = 0 then begin
      n := !n + 2;
      x := !x lsr 2
    end;
    if !x land 0x1 = 0 then n := !n + 1;
    !n
  end

let mask ~width =
  if width < 0 || width > word_bits then
    invalid_arg "Bitops.mask: width must be in [0, 62]";
  (1 lsl width) - 1

(* First clear bit position (0-based) among the low [width] bits of
   [x], or None when all [width] are set. *)
let lowest_clear ~width x =
  let free = lnot x land mask ~width in
  if free = 0 then None else Some (ctz free)

let iter_set ~width f x =
  let rem = ref (x land mask ~width) in
  while !rem <> 0 do
    let b = ctz !rem in
    f b;
    rem := !rem land lnot (1 lsl b)
  done
