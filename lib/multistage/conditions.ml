type construction = Msw_dominant | Maw_dominant
type evaluation = { x : int; bound : float; m_min : int }

let check_common ~n ~r name =
  if n < 1 || r < 1 then invalid_arg ("Conditions." ^ name ^ ": n, r must be >= 1")

let theorem1_term ~n ~r ~x =
  check_common ~n ~r "theorem1_term";
  if x < 1 then invalid_arg "Conditions.theorem1_term: x must be >= 1";
  float_of_int (n - 1)
  *. (float_of_int x +. (float_of_int r ** (1. /. float_of_int x)))

let theorem2_term ~n ~r ~k ~x =
  check_common ~n ~r "theorem2_term";
  if k < 1 then invalid_arg "Conditions.theorem2_term: k must be >= 1";
  if x < 1 then invalid_arg "Conditions.theorem2_term: x must be >= 1";
  let unavailable = ((n * k) - 1) * x / k in
  float_of_int unavailable
  +. (float_of_int (n - 1) *. (float_of_int r ** (1. /. float_of_int x)))

let x_range ~n ~r =
  check_common ~n ~r "x_range";
  if n = 1 then (1, 1) else (1, Stdlib.min (n - 1) r)

let minimize ~n ~r term =
  let lo, hi = x_range ~n ~r in
  let best = ref { x = lo; bound = term lo; m_min = 0 } in
  for x = lo + 1 to hi do
    let b = term x in
    if b < !best.bound then best := { x; bound = b; m_min = 0 }
  done;
  (* m must strictly exceed the bound, and the topology needs m >= n. *)
  let m_min = Stdlib.max n (int_of_float (Float.floor !best.bound) + 1) in
  { !best with m_min }

let msw_dominant ~n ~r = minimize ~n ~r (fun x -> theorem1_term ~n ~r ~x)
let maw_dominant ~n ~r ~k = minimize ~n ~r (fun x -> theorem2_term ~n ~r ~k ~x)

let evaluate construction ~n ~r ~k =
  match construction with
  | Msw_dominant -> msw_dominant ~n ~r
  | Maw_dominant -> maw_dominant ~n ~r ~k

let asymptotic_x ~r =
  if r < 2 then 1.
  else begin
    let lr = Float.log (float_of_int r) in
    let llr = Float.log lr in
    if llr <= 0. then 1. else Stdlib.max 1. (lr /. llr)
  end

let asymptotic_bound ~n ~r =
  check_common ~n ~r "asymptotic_bound";
  if r < 2 then float_of_int (n - 1)
  else begin
    let lr = Float.log (float_of_int r) in
    let llr = Float.log lr in
    if llr <= 0. then 3. *. float_of_int (n - 1)
    else 3. *. float_of_int (n - 1) *. lr /. llr
  end

let pp_evaluation ppf e =
  Format.fprintf ppf "x=%d bound=%.3f m_min=%d" e.x e.bound e.m_min
