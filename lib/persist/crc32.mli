(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial).

    The persistence layer frames every on-disk record with a CRC so
    recovery can tell a torn write from silent corruption.  The sealed
    build environment has no zlib binding, so the implementation lives
    here, in pure OCaml: slicing-by-8, eight table lookups per 8-byte
    little-endian load from one 8×256 table built when the module
    initialises; the same polynomial and the same checksums as the
    textbook byte-at-a-time loop.  Values are plain non-negative
    [int]s in [0, 2{^32}) — OCaml's 63-bit native int holds them
    exactly. *)

val update : int -> string -> pos:int -> len:int -> int
(** [update crc s ~pos ~len] extends a running checksum over
    [s.[pos .. pos+len-1]].  Start from [0]; the pre/post conditioning
    of the standard algorithm is handled internally, so checksums
    compose: [update (update 0 a ...) b ...] equals the checksum of
    the concatenation. *)

val string : string -> int
(** [update 0 s ~pos:0 ~len:(String.length s)]. *)
