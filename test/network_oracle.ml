(* The bool-array link planes and list-based middle selection the
   multistage engine served k > 62 fabrics with before its planes became
   multi-word bitsets, kept as the differential oracle.  An oracle is
   rebuilt from a [Network.snapshot] (routes and faults), predicts what
   the engine must answer to the next connect — the route, or the
   refusal with its [Blocked] picture — and exposes the per-link counts
   that [Network.stage1_in_use] and [Network.destination_multiset_plane]
   must agree with.  Only the engine's [min-intersection] and
   [first-fit] strategies are modelled. *)

open Wdm_core
open Wdm_multistage
module Fault = Wdm_faults.Fault
module Eset = Set.Make (Endpoint)

type t = {
  topo : Topology.t;
  construction : Network.construction;
  output_model : Model.t;
  x_limit : int;
  strategy : string;
  rearrange_limit : int;
  (* [s1_*.(i-1).(j-1).(w-1)]: link (input module i, middle j);
     [s2_*.(j-1).(p-1).(w-1)]: link (middle j, output module p) *)
  s1_busy : bool array array array;
  s1_dead : bool array array array;
  s2_busy : bool array array array;
  s2_dead : bool array array array;
  failed_middles : int list;
  failed_inputs : int list;
  failed_outputs : int list;
  dead_converters : (int * int) list;
  mutable busy_sources : Eset.t;
  mutable busy_dests : Eset.t;
  mutable routes : Network.route list;
  mutable next_id : int;
}

let planes rows cols k =
  Array.init rows (fun _ -> Array.init cols (fun _ -> Array.make k false))

(* ----- occupancy --------------------------------------------------------- *)

let set_route t (route : Network.route) busy =
  let mark plane ~row ~col ~wl =
    if plane.(row - 1).(col - 1).(wl - 1) = busy then
      failwith
        (Printf.sprintf "oracle: route %d finds slot (%d, %d, l%d) %s"
           route.Network.id row col wl
           (if busy then "busy" else "free"));
    plane.(row - 1).(col - 1).(wl - 1) <- busy
  in
  List.iter
    (fun { Network.middle = j; stage1_wl; serves } ->
      mark t.s1_busy ~row:route.Network.input_switch ~col:j ~wl:stage1_wl;
      List.iter (fun (p, w2) -> mark t.s2_busy ~row:j ~col:p ~wl:w2) serves)
    route.Network.hops;
  let conn = route.Network.connection in
  let update = if busy then Eset.add else Eset.remove in
  t.busy_sources <- update conn.Connection.source t.busy_sources;
  t.busy_dests <-
    List.fold_left (fun s d -> update d s) t.busy_dests
      conn.Connection.destinations

(* [t.routes] stays in ascending id order, as a snapshot lists them. *)
let occupy t (route : Network.route) =
  set_route t route true;
  let rec insert = function
    | (r : Network.route) :: rest when r.Network.id < route.Network.id ->
      r :: insert rest
    | rest -> route :: rest
  in
  t.routes <- insert t.routes

let release t (route : Network.route) =
  set_route t route false;
  t.routes <-
    List.filter
      (fun (r : Network.route) -> r.Network.id <> route.Network.id)
      t.routes

(* Live routes never hold a dead slot: injection tears them down. *)
let of_snapshot (s : Network.snapshot) =
  let topo = s.Network.s_topology in
  let r = topo.Topology.r and m = topo.Topology.m and k = topo.Topology.k in
  let faults = s.Network.s_faults in
  let pick f = List.filter_map f faults in
  let t =
    {
      topo;
      construction = s.Network.s_construction;
      output_model = s.Network.s_output_model;
      x_limit = s.Network.s_x_limit;
      strategy = s.Network.s_strategy;
      rearrange_limit = s.Network.s_rearrange_limit;
      s1_busy = planes r m k;
      s1_dead = planes r m k;
      s2_busy = planes m r k;
      s2_dead = planes m r k;
      failed_middles = pick (function Fault.Middle j -> Some j | _ -> None);
      failed_inputs = pick (function Fault.Input_module i -> Some i | _ -> None);
      failed_outputs =
        pick (function Fault.Output_module p -> Some p | _ -> None);
      dead_converters =
        pick (function
          | Fault.Converter { middle; output } -> Some (middle, output)
          | _ -> None);
      busy_sources = Eset.empty;
      busy_dests = Eset.empty;
      routes = [];
      next_id = s.Network.s_next_id;
    }
  in
  List.iter
    (function
      | Fault.Stage1_laser { input; middle; wl } ->
        t.s1_dead.(input - 1).(middle - 1).(wl - 1) <- true
      | Fault.Stage2_laser { middle; output; wl } ->
        t.s2_dead.(middle - 1).(output - 1).(wl - 1) <- true
      | _ -> ())
    faults;
  List.iter (fun route -> set_route t route true) s.Network.s_routes;
  t.routes <- s.Network.s_routes;
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun { Network.middle = j; stage1_wl; serves } ->
          if
            t.s1_dead.(route.Network.input_switch - 1).(j - 1).(stage1_wl - 1)
            || List.exists
                 (fun (p, w2) -> t.s2_dead.(j - 1).(p - 1).(w2 - 1))
                 serves
          then
            failwith
              (Printf.sprintf "oracle: live route %d holds a dead slot"
                 route.Network.id))
        route.Network.hops)
    t.routes;
  t

let stage1_in_use t ~input_switch ~middle =
  Array.fold_left
    (fun n b -> if b then n + 1 else n)
    0
    t.s1_busy.(input_switch - 1).(middle - 1)

let destination_multiset_plane t ~middle ~wl =
  let ms = ref (Multiset.create ~r:t.topo.Topology.r ~k:1) in
  for p = 1 to t.topo.Topology.r do
    if t.s2_busy.(middle - 1).(p - 1).(wl - 1) then ms := Multiset.add !ms p
  done;
  !ms

(* ----- coverage ---------------------------------------------------------- *)

let live_free busy dead ~row ~col ~wl =
  (not busy.(row - 1).(col - 1).(wl - 1)) && not dead.(row - 1).(col - 1).(wl - 1)

let first_free busy dead ~row ~col =
  let busy = busy.(row - 1).(col - 1) and dead = dead.(row - 1).(col - 1) in
  let rec go i =
    if i >= Array.length busy then None
    else if (not busy.(i)) && not dead.(i) then Some (i + 1)
    else go (i + 1)
  in
  go 0

let s1_free t ~input_switch ~middle ~wl =
  live_free t.s1_busy t.s1_dead ~row:input_switch ~col:middle ~wl

let s2_free t ~middle ~out_switch ~wl =
  live_free t.s2_busy t.s2_dead ~row:middle ~col:out_switch ~wl

let s1_first_free t ~input_switch ~middle =
  first_free t.s1_busy t.s1_dead ~row:input_switch ~col:middle

let s2_first_free t ~middle ~out_switch =
  first_free t.s2_busy t.s2_dead ~row:middle ~col:out_switch

let middle_available t ~input_switch ~src_wl j =
  (not (List.mem j t.failed_middles))
  &&
  match t.construction with
  | Network.Msw_dominant -> s1_free t ~input_switch ~middle:j ~wl:src_wl
  | Network.Maw_dominant -> s1_first_free t ~input_switch ~middle:j <> None

let prospective_stage1_wl t ~input_switch ~src_wl j =
  match t.construction with
  | Network.Msw_dominant -> Some src_wl
  | Network.Maw_dominant -> s1_first_free t ~input_switch ~middle:j

let middle_covers t ~input_switch ~src_wl j p =
  (not (List.mem p t.failed_outputs))
  &&
  match t.construction with
  | Network.Msw_dominant -> s2_free t ~middle:j ~out_switch:p ~wl:src_wl
  | Network.Maw_dominant -> (
    let converter_dead = List.mem (j, p) t.dead_converters in
    match t.output_model with
    | Model.MSW ->
      s2_free t ~middle:j ~out_switch:p ~wl:src_wl
      && ((not converter_dead)
         || prospective_stage1_wl t ~input_switch ~src_wl j = Some src_wl)
    | Model.MSDW | Model.MAW ->
      if converter_dead then
        match prospective_stage1_wl t ~input_switch ~src_wl j with
        | None -> false
        | Some w1 -> s2_free t ~middle:j ~out_switch:p ~wl:w1
      else s2_first_free t ~middle:j ~out_switch:p <> None)

let available_middles t ~input_switch ~src_wl =
  List.filter
    (fun j -> middle_available t ~input_switch ~src_wl j)
    (List.init t.topo.Topology.m (fun j -> j + 1))

(* ----- selection --------------------------------------------------------- *)

(* Min-intersection greedy (the Lemma 5 argument): repeatedly take the
   middle covering the most still-uncovered output modules, the first
   such in [available] on ties. *)
let min_intersection t ~input_switch ~src_wl available fanout =
  let rec go chosen uncovered remaining picks_left =
    if uncovered = [] then Some (List.rev chosen)
    else if picks_left = 0 || remaining = [] then None
    else begin
      let scored =
        List.map
          (fun j ->
            let covered =
              List.filter (fun p -> middle_covers t ~input_switch ~src_wl j p) uncovered
            in
            (j, covered))
          remaining
      in
      let best =
        List.fold_left
          (fun acc (j, covered) ->
            match acc with
            | None -> Some (j, covered)
            | Some (_, best_cov) ->
              if List.length covered > List.length best_cov then Some (j, covered)
              else acc)
          None scored
      in
      match best with
      | None | Some (_, []) -> None
      | Some (j, covered) ->
        let uncovered' =
          List.filter (fun p -> not (List.mem p covered)) uncovered
        in
        let remaining' = List.filter (fun j' -> j' <> j) remaining in
        go ((j, covered) :: chosen) uncovered' remaining' (picks_left - 1)
    end
  in
  go [] fanout available t.x_limit

let first_fit t ~input_switch ~src_wl available fanout =
  let rec go chosen uncovered remaining picks_left =
    if uncovered = [] then Some (List.rev chosen)
    else
      match remaining with
      | [] -> None
      | j :: rest ->
        if picks_left = 0 then None
        else begin
          let covered =
            List.filter (fun p -> middle_covers t ~input_switch ~src_wl j p) uncovered
          in
          if covered = [] then go chosen uncovered rest picks_left
          else begin
            let uncovered' =
              List.filter (fun p -> not (List.mem p covered)) uncovered
            in
            go ((j, covered) :: chosen) uncovered' rest (picks_left - 1)
          end
        end
  in
  go [] fanout available t.x_limit

(* ----- admission --------------------------------------------------------- *)

let module_of t port = fst (Topology.switch_of_port t.topo port)

let validate t (conn : Connection.t) =
  match
    Assignment.validate (Topology.spec t.topo) t.output_model
      (Assignment.make [ conn ])
  with
  | Error e -> Error (Network.Invalid e)
  | Ok () -> (
    let src_module = module_of t conn.Connection.source.Endpoint.port in
    if List.mem src_module t.failed_inputs then
      Error (Network.Unserviceable (Fault.Input_module src_module))
    else
      let dest_module (d : Endpoint.t) = module_of t d.Endpoint.port in
      match
        List.find_opt
          (fun d -> List.mem (dest_module d) t.failed_outputs)
          conn.Connection.destinations
      with
      | Some d ->
        Error (Network.Unserviceable (Fault.Output_module (dest_module d)))
      | None -> (
        if Eset.mem conn.Connection.source t.busy_sources then
          Error (Network.Source_busy conn.Connection.source)
        else
          match
            List.find_opt
              (fun d -> Eset.mem d t.busy_dests)
              conn.Connection.destinations
          with
          | Some d -> Error (Network.Destination_busy d)
          | None -> Ok ()))

(* Predicts [Network.connect] and applies the admitted route to the
   oracle, so a rearrangement can be played out step by step. *)
let connect t (conn : Connection.t) =
  match validate t conn with
  | Error _ as e -> e
  | Ok () -> (
    let src_wl = conn.Connection.source.Endpoint.wl in
    let input_switch = module_of t conn.Connection.source.Endpoint.port in
    let fanout =
      List.sort_uniq Int.compare
        (List.map (fun (d : Endpoint.t) -> module_of t d.Endpoint.port)
           conn.Connection.destinations)
    in
    let available = available_middles t ~input_switch ~src_wl in
    let plan =
      match t.strategy with
      | "min-intersection" ->
        min_intersection t ~input_switch ~src_wl available fanout
      | "first-fit" -> first_fit t ~input_switch ~src_wl available fanout
      | _ -> invalid_arg "Network_oracle: only min-intersection and first-fit"
    in
    match plan with
    | None ->
      let covered_somewhere p =
        List.exists (fun j -> middle_covers t ~input_switch ~src_wl j p) available
      in
      Error
        (Network.Blocked
           {
             Network.fanout_switches = fanout;
             available_middles = available;
             uncovered = List.filter (fun p -> not (covered_somewhere p)) fanout;
           })
    | Some plan ->
      let hops =
        List.map
          (fun (j, serves) ->
            let stage1_wl =
              match t.construction with
              | Network.Msw_dominant -> src_wl
              | Network.Maw_dominant ->
                Option.get (s1_first_free t ~input_switch ~middle:j)
            in
            let serve p =
              let w2 =
                match (t.construction, t.output_model) with
                | Network.Msw_dominant, _ | Network.Maw_dominant, Model.MSW ->
                  src_wl
                | Network.Maw_dominant, (Model.MSDW | Model.MAW) ->
                  if List.mem (j, p) t.dead_converters then stage1_wl
                  else Option.get (s2_first_free t ~middle:j ~out_switch:p)
              in
              (p, w2)
            in
            { Network.middle = j; stage1_wl; serves = List.map serve serves })
          plan
      in
      let route =
        { Network.id = t.next_id; connection = conn; input_switch; hops }
      in
      t.next_id <- t.next_id + 1;
      occupy t route;
      Ok route)

(* Predicts [Network.connect_rearrangeable]: on a block, victims are
   tried fewest hops first (ties by id), at most [rearrange_limit] of
   them; the answer carries the moved victim re-keyed under its id.
   Every admitted attempt consumes a route id, kept or not. *)
let connect_rearrangeable t conn =
  match connect t conn with
  | Ok route -> Ok (route, None)
  | Error (Network.Blocked _ as blocked) ->
    let victims =
      List.stable_sort
        (fun (a : Network.route) b ->
          Int.compare (List.length a.Network.hops) (List.length b.Network.hops))
        t.routes
      |> List.filteri (fun i _ -> i < t.rearrange_limit)
    in
    let rec attempt = function
      | [] -> Error blocked
      | (victim : Network.route) :: rest -> (
        release t victim;
        match connect t conn with
        | Error _ ->
          occupy t victim;
          attempt rest
        | Ok route -> (
          match connect t victim.Network.connection with
          | Ok moved ->
            release t moved;
            let moved = { moved with Network.id = victim.Network.id } in
            occupy t moved;
            Ok (route, Some moved)
          | Error _ ->
            release t route;
            occupy t victim;
            attempt rest))
    in
    attempt victims
  | Error _ as e -> e
