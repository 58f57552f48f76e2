open Wdm_core

(* The pool is a bitset over a fixed universe array.  [to_list] must
   reproduce — contents AND order — what the churn drivers previously
   computed as [List.filter (fun e -> not (Eset.mem e used)) universe]:
   the generator's draws (List.nth choices, hash-grouping insertion
   order) depend on that list, and seeded replay identity depends on
   the draws. *)

type t = {
  items : Endpoint.t array;
  pos : (Endpoint.t, int) Hashtbl.t;
  words : int array;  (* bit [i] of the bitset: items.(i) free *)
  mutable free_count : int;
}

let create universe =
  let items = Array.of_list universe in
  let n = Array.length items in
  let pos = Hashtbl.create (max 16 (2 * n)) in
  Array.iteri (fun i e -> Hashtbl.replace pos e i) items;
  if Hashtbl.length pos <> n then
    invalid_arg "Free_pool.create: universe has duplicates";
  let words = Array.make (max 1 (Bitops.words_for n)) 0 in
  for i = 0 to n - 1 do
    let w = Bitops.word_of i in
    words.(w) <- words.(w) lor Bitops.bit_of i
  done;
  { items; pos; words; free_count = n }

let index t e =
  match Hashtbl.find_opt t.pos e with
  | Some i -> i
  | None -> invalid_arg "Free_pool: endpoint outside the universe"

let is_free t e =
  let i = index t e in
  t.words.(Bitops.word_of i) land Bitops.bit_of i <> 0

let remove t e =
  let i = index t e in
  let w = Bitops.word_of i and b = Bitops.bit_of i in
  if t.words.(w) land b <> 0 then begin
    t.words.(w) <- t.words.(w) land lnot b;
    t.free_count <- t.free_count - 1
  end

let add t e =
  let i = index t e in
  let w = Bitops.word_of i and b = Bitops.bit_of i in
  if t.words.(w) land b = 0 then begin
    t.words.(w) <- t.words.(w) lor b;
    t.free_count <- t.free_count + 1
  end

let free_count t = t.free_count

let to_list t =
  let acc = ref [] in
  for w = 0 to Array.length t.words - 1 do
    Bitops.iter_set ~width:Bitops.word_bits
      (fun b -> acc := t.items.((w * Bitops.word_bits) + b) :: !acc)
      t.words.(w)
  done;
  List.rev !acc
