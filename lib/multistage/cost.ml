open Wdm_core

type stage = { crosspoints : int; converters : int }

type breakdown = {
  input : stage;
  middle : stage;
  output : stage;
  total_crosspoints : int;
  total_converters : int;
}

let module_crosspoints model ~k ~ins ~outs =
  match (model : Model.t) with
  | MSW -> k * ins * outs
  | MSDW | MAW -> k * k * ins * outs

let module_converters model ~k ~ins ~outs =
  match (model : Model.t) with
  | MSW -> 0
  | MSDW -> ins * k  (* before the splitters, on the module's input side *)
  | MAW -> outs * k  (* behind the combiners, on the module's output side *)

let stage_of model ~k ~ins ~outs ~count =
  {
    crosspoints = count * module_crosspoints model ~k ~ins ~outs;
    converters = count * module_converters model ~k ~ins ~outs;
  }

let breakdown ~construction ~output_model (topo : Topology.t) =
  let inner_model =
    match (construction : Network.construction) with
    | Network.Msw_dominant -> Model.MSW
    | Network.Maw_dominant -> Model.MAW
  in
  let input = stage_of inner_model ~k:topo.k ~ins:topo.n ~outs:topo.m ~count:topo.r in
  let middle = stage_of inner_model ~k:topo.k ~ins:topo.r ~outs:topo.r ~count:topo.m in
  let output = stage_of output_model ~k:topo.k ~ins:topo.m ~outs:topo.n ~count:topo.r in
  {
    input;
    middle;
    output;
    total_crosspoints = input.crosspoints + middle.crosspoints + output.crosspoints;
    total_converters = input.converters + middle.converters + output.converters;
  }

let msdw_converters_input_side (topo : Topology.t) = topo.r * topo.m * topo.k
let msdw_converters_optimized (topo : Topology.t) = topo.r * topo.n * topo.k

let msw_dominant_crosspoints_closed_form ~output_model (topo : Topology.t) =
  let { Topology.n; m; r; k } = topo in
  match (output_model : Model.t) with
  | MSW -> k * m * r * ((2 * n) + r)
  | MSDW | MAW -> k * m * r * (((k + 1) * n) + r)

let recommended ~construction ~output_model ~big_n ~k =
  if big_n < 1 then Error "Cost.recommended: N must be >= 1"
  else begin
    let root = int_of_float (Float.round (sqrt (float_of_int big_n))) in
    if root * root <> big_n then
      Error (Printf.sprintf "Cost.recommended: N = %d is not a perfect square" big_n)
    else begin
      let n = root and r = root in
      let eval = Conditions.evaluate construction ~n ~r ~k in
      let topo = Topology.make_exn ~n ~m:eval.m_min ~r ~k in
      Ok (topo, eval, breakdown ~construction ~output_model topo)
    end
  end

let crossbar_crosspoints ~output_model ~big_n ~k =
  Wdm_core.Cost.crossbar_crosspoints output_model ~n:big_n ~k

let crossbar_converters ~output_model ~big_n ~k =
  Wdm_core.Cost.crossbar_converters output_model ~n:big_n ~k

let pp_breakdown ppf b =
  Format.fprintf ppf
    "crosspoints %d (in %d / mid %d / out %d), converters %d (in %d / mid %d / out %d)"
    b.total_crosspoints b.input.crosspoints b.middle.crosspoints
    b.output.crosspoints b.total_converters b.input.converters
    b.middle.converters b.output.converters
