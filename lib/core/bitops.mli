(** Bit tricks for packed wavelength planes and endpoint bitsets.

    All functions treat an OCaml [int] as a word of up to 62 usable
    bits, which bounds the packed representations built on top (one
    wavelength plane needs [k <= 62] bits; larger universes use arrays
    of words). *)

val word_bits : int
(** Usable bits per word: 62. *)

val words_for : int -> int
(** [words_for n] is the number of words, [ceil (n / word_bits)], that
    hold an [n]-bit set. *)

val word_of : int -> int
(** [word_of i] is the word of a multi-word set holding bit [i]
    (0-based): [i / word_bits]. *)

val bit_of : int -> int
(** [bit_of i] is bit [i]'s mask within that word:
    [1 lsl (i mod word_bits)]. *)

val popcount : int -> int
(** Number of set bits (SWAR, no lookup table, no branches). *)

val ctz : int -> int
(** 0-based index of the least-significant set bit.  [ctz 0 = 62] by
    convention; callers must treat 0 specially. *)

val mask : width:int -> int
(** [mask ~width] has the low [width] bits set.
    @raise Invalid_argument unless [0 <= width <= 62]. *)

val lowest_clear : width:int -> int -> int option
(** [lowest_clear ~width x] is the 0-based position of the first clear
    bit among the low [width] bits of [x], or [None] when they are all
    set.  This is the packed equivalent of a linear first-free scan. *)

val iter_set : width:int -> (int -> unit) -> int -> unit
(** [iter_set ~width f x] applies [f] to each set-bit position among
    the low [width] bits of [x], in increasing order. *)
