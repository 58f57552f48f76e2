(* Order statistics over measured samples. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

(* A growable array: samples, spans and trace steps are appended in
   the hot loop, so it never allocates per element once warm. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (max 4096 (2 * v.n)) x in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = if i < v.n then v.a.(i) else invalid_arg "Vec.get"
  let set v i x = if i < v.n then v.a.(i) <- x else invalid_arg "Vec.set"
  let length v = v.n
  let to_array v = Array.sub v.a 0 v.n
end

(* Quantile [q] of [xs] with the nearest-rank rule. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let median xs = quantile 0.5 xs

(* Quantile over samples that each stand for [w] requests: requests
   answered by one batch frame share that frame's latency. *)
let weighted_quantile q samples =
  let s = Array.copy samples in
  Array.sort (fun (a, _) (b, _) -> compare a b) s;
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 s in
  if total = 0 then nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec go i acc =
      let v, w = s.(i) in
      if acc + w >= rank || i = Array.length s - 1 then v else go (i + 1) (acc + w)
    in
    go 0 0
  end

(* [weighted_quantile q] of each of up to ten consecutive runs of at
   least 1000 samples, and the median of those: one stalled stretch
   moves it less than it moves the pooled quantile. *)
let chunked_quantile q samples =
  let n = Array.length samples in
  let k = max 1 (min 10 (n / 1000)) in
  median
    (Array.init k (fun i ->
         let lo = i * n / k and hi = (i + 1) * n / k in
         weighted_quantile q (Array.sub samples lo (hi - lo))))
