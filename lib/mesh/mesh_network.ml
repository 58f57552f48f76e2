module Sink = Wdm_telemetry.Sink
module Metrics = Wdm_telemetry.Metrics
module Connection = Wdm_core.Connection
module Endpoint = Wdm_core.Endpoint

type splitters =
  | Split_all
  | Split_none
  | Split_nodes of int list
  | Split_degree_ge of int

module Config = struct
  type t = {
    k : int;
    strategy : string;
    mode : Light_tree.mode;
    splitters : splitters;
    k_paths : int;
  }

  let default =
    {
      k = 8;
      strategy = "first-fit";
      mode = Light_tree.Hierarchy;
      splitters = Split_all;
      k_paths = 3;
    }
end

type route = {
  id : int;
  connection : Connection.t;
  wl : int;
  arcs : (int * int * int) list;
  cost : float;
}

type error =
  | Source_out_of_range of Endpoint.t
  | Destination_out_of_range of Endpoint.t
  | Blocked of { uncovered : int list }

type disconnect_error = Unknown_route of int | Already_released of int

type tel = {
  connects : Metrics.counter;
  blocked : Metrics.counter;
  releases : Metrics.counter;
  active_g : Metrics.gauge;
  slots_g : Metrics.gauge;
}

type t = {
  graph : Graph.t;
  topo_name : string;
  cfg : Config.t;
  mc : bool array;
  all_split : bool;
      (* every node 1..n multicast-capable, derived from [mc]: then a
         build fails exactly when a destination is unreachable, and a
         refusal is read off the reach masks (see [try_multicast]) *)
  assign : Assign.t;
  plugin : Assign.plugin;
      (* cfg.strategy, resolved once at build time; plug-ins are pure
         so sharing the resolution is safe *)
  yen : (int, int array array) Hashtbl.t;
      (* key [src * (n + 1) + dst]: the edge ids of the pair's k_paths
         Yen paths, cheapest first, filled on the pair's first unicast.
         Unicast routing applies no edge filter and the graph never
         changes, so they depend on the pair alone. *)
  active : (int, route) Hashtbl.t;
  mutable route_sum : int;  (* sum of [route_hash] over [active], mod 2^63 *)
  mutable next_id : int;
  mutable attempts : int;
  tel : tel option;
}

type state = {
  s_topo : string;
  s_k : int;
  s_strategy : string;
  s_mode : Light_tree.mode;
  s_k_paths : int;
  s_mc : bool array;
  s_next_id : int;
  s_attempts : int;
  s_routes : route list;
}

let make_tel = function
  | None -> None
  | Some (sink : Sink.t) ->
    let m = sink.Sink.metrics in
    Some
      {
        connects =
          Metrics.counter m ~help:"Accepted mesh connects"
            "mesh_connects_total";
        blocked =
          Metrics.counter m ~help:"Refused mesh connects"
            "mesh_connects_blocked_total";
        releases =
          Metrics.counter m ~help:"Released mesh routes"
            "mesh_releases_total";
        active_g =
          Metrics.gauge m ~help:"Active mesh routes" "mesh_active_routes";
        slots_g =
          Metrics.gauge m ~help:"Occupied edge-wavelength slots"
            "mesh_occupied_slots";
      }

let resolve_splitters graph = function
  | Split_all -> Ok (Array.make (Graph.n graph + 1) true)
  | Split_none -> Ok (Array.make (Graph.n graph + 1) false)
  | Split_degree_ge d ->
    Ok
      (Array.init
         (Graph.n graph + 1)
         (fun v -> v >= 1 && Graph.degree graph v >= d))
  | Split_nodes nodes ->
    let mc = Array.make (Graph.n graph + 1) false in
    let bad = List.find_opt (fun v -> v < 1 || v > Graph.n graph) nodes in
    (match bad with
    | Some v -> Error (Printf.sprintf "splitter node %d out of range" v)
    | None ->
      List.iter (fun v -> mc.(v) <- true) nodes;
      Ok mc)

let build ?telemetry ~(cfg : Config.t) ~topo_name ~mc graph =
  if cfg.k < 1 || cfg.k > 62 then Error "wavelength count must be in 1..62"
  else if cfg.k_paths < 1 then Error "k_paths must be >= 1"
  else
    match Assign.resolve_plugin cfg.strategy with
    | None -> Error (Printf.sprintf "unknown strategy %S" cfg.strategy)
    | Some plugin ->
      let n = Graph.n graph in
      let rec all_split v = v > n || (mc.(v) && all_split (v + 1)) in
      Ok
        {
          graph;
          topo_name;
          cfg;
          mc;
          all_split = all_split 1;
          assign = Assign.create ~k:cfg.k ~m:(Graph.m graph);
          plugin;
          yen = Hashtbl.create 64;
          active = Hashtbl.create 64;
          route_sum = 0;
          next_id = 1;
          attempts = 0;
          tel = make_tel telemetry;
        }

let create ?telemetry ?(config = Config.default) name =
  match Zoo.by_name name with
  | Error _ as e -> e
  | Ok graph -> (
    match resolve_splitters graph config.splitters with
    | Error _ as e -> e
    | Ok mc -> build ?telemetry ~cfg:config ~topo_name:name ~mc graph)

let graph t = t.graph
let topology_name t = t.topo_name
let config t = t.cfg

let mc_nodes t =
  List.filter (fun v -> t.mc.(v)) (List.init (Graph.n t.graph) (fun i -> i + 1))

let active_count t = Hashtbl.length t.active

let utilization t =
  let cap = Graph.m t.graph * t.cfg.k in
  if cap = 0 then 0. else float_of_int (Assign.occupied_slots t.assign) /. float_of_int cap

let gauges t =
  match t.tel with
  | None -> ()
  | Some tel ->
    Metrics.set tel.active_g (float_of_int (Hashtbl.length t.active));
    Metrics.set tel.slots_g (float_of_int (Assign.occupied_slots t.assign))

(* ----- live routes and the state digest --------------------------------- *)

let mix = Wdm_core.Strategy.mix

(* A live route's term in the state digest: [mix] folded over every
   field the route codec writes (id, connection, wavelength, arc count,
   each arc's endpoints).  Edge ids and cost are derived from those, so
   they add nothing. *)
let route_hash (r : route) =
  List.fold_left
    (fun h (a, b, _) -> mix (mix h a) b)
    (mix (mix (Connection.hash_into (mix 0 r.id) r.connection) r.wl)
       (List.length r.arcs))
    r.arcs

(* Every change to [active] goes through these two, so [route_sum]
   stays the sum of the live routes' hashes; removal cancels a term
   exactly (the sum wraps mod 2^63). *)
let add_route t r =
  Hashtbl.replace t.active r.id r;
  t.route_sum <- t.route_sum + route_hash r

let remove_route t r =
  Hashtbl.remove t.active r.id;
  t.route_sum <- t.route_sum - route_hash r

(* O(nodes), never O(routes).  The strategy enters by name.  Masked to
   55 bits, the range the wire codec's ints carry. *)
let digest t =
  let h = Wdm_core.Strategy.mix_string 0 t.topo_name in
  let h = mix h t.cfg.k in
  let h = Wdm_core.Strategy.mix_string h t.cfg.strategy in
  let h =
    ref
      (List.fold_left mix h
         [
           (match t.cfg.mode with Light_tree.Tree -> 0 | Light_tree.Hierarchy -> 1);
           t.cfg.k_paths; Graph.n t.graph;
         ])
  in
  (* nodes 1..n only, as the state codec writes them: index 0 is unused
     and not the same after a restore *)
  for v = 1 to Graph.n t.graph do
    h := mix !h (Bool.to_int t.mc.(v))
  done;
  List.fold_left mix !h
    [ t.next_id; t.attempts; Hashtbl.length t.active; t.route_sum ]
  land ((1 lsl 55) - 1)

(* ----- connect --------------------------------------------------------- *)

let arc_edge_ids arcs = List.map (fun (_, _, e) -> e) arcs

(* The hash plug-ins order by ([random]'s rotation, [annealed]'s seed):
   a deterministic mix of the monotone attempt counter and the request,
   so replayed WALs make the same "random" choices (the counter
   advances on refusals too, and refused connects are themselves
   WAL-recorded). *)
let request_hash t (c : Connection.t) =
  let mix h v = (h * 1000003) lxor v in
  let h = mix 0x9e3779b9 t.attempts in
  let h = mix h c.Connection.source.Endpoint.port in
  List.fold_left
    (fun h (d : Endpoint.t) -> mix h d.Endpoint.port)
    h c.Connection.destinations

let unicast_paths t ~src ~dst =
  let key = (src * (Graph.n t.graph + 1)) + dst in
  match Hashtbl.find_opt t.yen key with
  | Some paths -> paths
  | None ->
    let edge_ids (_, nodes) =
      let rec go acc = function
        | a :: (b :: _ as rest) -> (
          match Graph.edge_between t.graph a b with
          | Some e -> go (e :: acc) rest
          | None -> assert false)
        | _ -> Array.of_list (List.rev acc)
      in
      go [] nodes
    in
    let paths =
      Shortest.k_shortest t.graph ~src ~dst ~k:t.cfg.k_paths
      |> List.map edge_ids |> Array.of_list
    in
    Hashtbl.add t.yen key paths;
    paths

(* A path's arcs, walked from its source, and its cost: the weights
   summed hop by hop from the source, the same sum Yen ranked it by. *)
let path_route g ~src edges =
  let rec go a i cost =
    if i = Array.length edges then ([], cost)
    else
      let e = edges.(i) in
      let { Graph.u; v; w; _ } = Graph.edge g e in
      let b = if u = a then v else u in
      let arcs, cost = go b (i + 1) (cost +. w) in
      ((a, b, e) :: arcs, cost)
  in
  go src 0 0.

(* A path's wavelengths are tried from one word: the OR of its edges'
   occupancy words, whose clear bits are the wavelengths free on every
   edge. *)
let try_unicast t ~hash ~src ~dst =
  let order = Assign.plugin_order t.plugin t.assign ~hash in
  let pick_for_path edges =
    let busy =
      Array.fold_left
        (fun busy e -> busy lor Assign.occupancy t.assign ~edge:e)
        0 edges
    in
    let free wl = busy land (1 lsl (wl - 1)) = 0 in
    let edge_ids = Array.to_list edges in
    List.find_opt
      (fun wl ->
        free wl
        && Assign.plugin_admits t.plugin t.assign ~edges:edge_ids ~wl ~fanout:1)
      order
  in
  let paths = unicast_paths t ~src ~dst in
  let rec first i =
    if i = Array.length paths then Error [ dst ]
    else
      match pick_for_path paths.(i) with
      | Some wl ->
        let arcs, cost = path_route t.graph ~src paths.(i) in
        Ok (arcs, wl, cost)
      | None -> first (i + 1)
  in
  first 0

(* Bit [wl - 1] of [reach.(v)] is set when [v] can be reached from
   [src] over edges free on [wl]: every wavelength's reachability in
   one worklist pass over the adjacency arrays.  An edge passes the
   bits its occupancy word leaves clear; a node goes back on the
   worklist whenever it gains a bit, so the pass ends at the fixpoint,
   each node popped at most k times. *)
let reach_masks g a ~src =
  let { Graph.off; nbr; eid; _ } = Graph.adjacency g in
  let n = Graph.n g in
  let reach = Array.make (n + 1) 0 in
  (* each node is on the stack at most once *)
  let stack = Array.make n 0 and stacked = Array.make (n + 1) false in
  reach.(src) <- (1 lsl Assign.k a) - 1;
  stack.(0) <- src;
  stacked.(src) <- true;
  let top = ref 1 in
  while !top > 0 do
    decr top;
    let u = stack.(!top) in
    stacked.(u) <- false;
    let ru = reach.(u) in
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      let gain =
        ru land lnot (Assign.occupancy a ~edge:eid.(i) lor reach.(v))
      in
      if gain <> 0 then begin
        reach.(v) <- reach.(v) lor gain;
        if not stacked.(v) then begin
          stacked.(v) <- true;
          stack.(!top) <- v;
          incr top
        end
      end
    done
  done;
  reach

(* Wavelengths in scan order; the first whose structure builds and is
   admitted wins.  A build never covers a destination its wavelength
   cannot reach, so only the wavelengths in [builds] (the AND of the
   destinations' reach masks) are built on the way to a winner.

   A refusal reports the shortest uncovered list any wavelength left
   (the earliest among equals), or every destination when plug-in
   vetoes were the only failures.  [refuse] walks the scan order for
   it, skipping a wavelength whose unreachable count is at least the
   shortest length so far.  A list comes from the build already made,
   or, outside [builds], off the masks when every node splits (the
   build would leave exactly the unreachable destinations: DESIGN.md
   section 15) and from a build under sparse splitting. *)
let try_multicast t ~hash ~src ~dests =
  let order = Assign.plugin_order t.plugin t.assign ~hash in
  let fanout = List.length dests in
  let reach = reach_masks t.graph t.assign ~src in
  let builds = List.fold_left (fun m d -> m land reach.(d)) (-1) dests in
  let build wl =
    let bit = 1 lsl (wl - 1) in
    Light_tree.build ~mode:t.cfg.mode ~mc:t.mc
      ~use_edge:(fun e -> Assign.occupancy t.assign ~edge:e land bit = 0)
      t.graph ~src ~dests
  in
  let refuse failed =
    let uncovered wl =
      let bit = 1 lsl (wl - 1) in
      if builds land bit <> 0 then List.assoc_opt wl failed
      else if t.all_split then
        Some (List.filter (fun d -> reach.(d) land bit = 0) dests)
      else
        match build wl with
        | Error uncovered -> Some uncovered
        | Ok _ -> assert false (* a build covers reachable nodes only *)
    in
    let lost wl =
      let bit = 1 lsl (wl - 1) in
      List.fold_left
        (fun lost d -> if reach.(d) land bit = 0 then lost + 1 else lost)
        0 dests
    in
    let worst, _ =
      List.fold_left
        (fun ((_, len) as worst) wl ->
          if len > 0 && lost wl >= len then worst
          else
            match uncovered wl with
            | Some u when len = 0 || List.length u < len -> (u, List.length u)
            | _ -> worst)
        ([], 0) order
    in
    match worst with [] -> dests | w -> w
  in
  let rec first failed = function
    | [] -> Error (refuse failed)
    | wl :: rest when builds land (1 lsl (wl - 1)) = 0 -> first failed rest
    | wl :: rest -> (
      match build wl with
      | Ok s
        when Assign.plugin_admits t.plugin t.assign
               ~edges:(arc_edge_ids s.Light_tree.arcs) ~wl ~fanout ->
        Ok (s.Light_tree.arcs, wl, s.Light_tree.cost)
      | Ok _ ->
        (* feasible but vetoed by the plug-in's admission predicate:
           try the next wavelength, reporting nothing uncovered *)
        first failed rest
      | Error uncovered ->
        (* only under sparse splitting *)
        first ((wl, uncovered) :: failed) rest)
  in
  first [] order

let connect t (c : Connection.t) =
  t.attempts <- t.attempts + 1;
  let n = Graph.n t.graph in
  let in_range (e : Endpoint.t) = e.Endpoint.port >= 1 && e.Endpoint.port <= n in
  let refuse e =
    (match t.tel with Some tel -> Metrics.inc tel.blocked | None -> ());
    Error e
  in
  if not (in_range c.Connection.source) then
    refuse (Source_out_of_range c.Connection.source)
  else
    match
      List.find_opt (fun d -> not (in_range d)) c.Connection.destinations
    with
    | Some d -> refuse (Destination_out_of_range d)
    | None -> (
      let src = c.Connection.source.Endpoint.port in
      let dests =
        List.sort_uniq compare
          (List.filter
             (fun p -> p <> src)
             (List.map
                (fun (d : Endpoint.t) -> d.Endpoint.port)
                c.Connection.destinations))
      in
      let hash = request_hash t c in
      let outcome =
        match dests with
        | [] -> Ok ([], 1, 0.)
        | [ dst ] -> try_unicast t ~hash ~src ~dst
        | dests -> try_multicast t ~hash ~src ~dests
      in
      match outcome with
      | Error uncovered -> refuse (Blocked { uncovered })
      | Ok (arcs, wl, cost) ->
        let edges = arc_edge_ids arcs in
        if edges <> [] then Assign.occupy t.assign ~edges ~wl;
        let id = t.next_id in
        t.next_id <- id + 1;
        let route = { id; connection = c; wl; arcs; cost } in
        add_route t route;
        (match t.tel with Some tel -> Metrics.inc tel.connects | None -> ());
        gauges t;
        Ok route)

let disconnect t id =
  match Hashtbl.find_opt t.active id with
  | Some r ->
    let edges = arc_edge_ids r.arcs in
    if edges <> [] then Assign.release t.assign ~edges ~wl:r.wl;
    remove_route t r;
    (match t.tel with Some tel -> Metrics.inc tel.releases | None -> ());
    gauges t;
    Ok r
  | None ->
    if id >= 1 && id < t.next_id then Error (Already_released id)
    else Error (Unknown_route id)

(* ----- snapshot / restore ---------------------------------------------- *)

let snapshot t =
  let routes =
    Hashtbl.fold (fun _ r acc -> r :: acc) t.active []
    |> List.sort (fun a b -> compare a.id b.id)
  in
  {
    s_topo = t.topo_name;
    s_k = t.cfg.k;
    s_strategy = t.cfg.strategy;
    s_mode = t.cfg.mode;
    s_k_paths = t.cfg.k_paths;
    s_mc = Array.copy t.mc;
    s_next_id = t.next_id;
    s_attempts = t.attempts;
    s_routes = routes;
  }

let restore ?telemetry (s : state) =
  match Zoo.by_name s.s_topo with
  | Error _ as e -> e
  | Ok graph ->
    if Array.length s.s_mc <> Graph.n graph + 1 then
      Error "mesh restore: capability array does not match topology"
    else
      let cfg =
        {
          Config.k = s.s_k;
          strategy = s.s_strategy;
          mode = s.s_mode;
          splitters = Split_all (* resolved capability is authoritative *);
          k_paths = s.s_k_paths;
        }
      in
      (match build ?telemetry ~cfg ~topo_name:s.s_topo ~mc:s.s_mc graph with
      | Error _ as e -> e
      | Ok t -> (
        (* a route repeating an id, or claiming a slot another route
           (or an earlier arc of its own) holds, can only come from a
           corrupt state: occupying arc by arc refuses the overlaps *)
        match
          List.iter
            (fun r ->
              if r.id >= s.s_next_id then
                invalid_arg
                  (Printf.sprintf "route id %d >= next_id %d" r.id s.s_next_id);
              if Hashtbl.mem t.active r.id then
                invalid_arg (Printf.sprintf "route id %d repeated" r.id);
              List.iter
                (fun e -> Assign.occupy t.assign ~edges:[ e ] ~wl:r.wl)
                (arc_edge_ids r.arcs);
              add_route t r)
            s.s_routes
        with
        | () ->
          t.next_id <- s.s_next_id;
          t.attempts <- s.s_attempts;
          gauges t;
          Ok t
        | exception Invalid_argument e ->
          Error (Printf.sprintf "mesh restore: %s" e)))

(* ----- printers -------------------------------------------------------- *)

let pp_error ppf = function
  | Source_out_of_range e ->
    Format.fprintf ppf "source %a outside the node range" Endpoint.pp e
  | Destination_out_of_range e ->
    Format.fprintf ppf "destination %a outside the node range" Endpoint.pp e
  | Blocked { uncovered } ->
    Format.fprintf ppf "blocked (uncovered:%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      uncovered

let pp_disconnect_error ppf = function
  | Unknown_route id -> Format.fprintf ppf "no route %d was ever allocated" id
  | Already_released id -> Format.fprintf ppf "route %d already released" id

module Error = struct
  type nonrec t = error

  let cause = function
    | Source_out_of_range _ -> "source_out_of_range"
    | Destination_out_of_range _ -> "destination_out_of_range"
    | Blocked _ -> "blocked"

  let to_string e = Format.asprintf "%a" pp_error e

  let json_endpoint (e : Endpoint.t) =
    Wdm_telemetry.Json.Obj
      [
        ("port", Wdm_telemetry.Json.Int e.Endpoint.port);
        ("wl", Wdm_telemetry.Json.Int e.Endpoint.wl);
      ]

  let to_json e =
    let open Wdm_telemetry.Json in
    Obj
      (("cause", String (cause e))
      ::
      (match e with
      | Source_out_of_range ep | Destination_out_of_range ep ->
        [ ("endpoint", json_endpoint ep) ]
      | Blocked { uncovered } ->
        [ ("uncovered", List (List.map (fun i -> Int i) uncovered)) ]))

  let disconnect_cause = function
    | Unknown_route _ -> "unknown_route"
    | Already_released _ -> "already_released"

  let disconnect_to_string e = Format.asprintf "%a" pp_disconnect_error e

  let disconnect_to_json e =
    let open Wdm_telemetry.Json in
    let id = match e with Unknown_route id | Already_released id -> id in
    Obj [ ("cause", String (disconnect_cause e)); ("id", Int id) ]
end

let pp_route ppf r =
  Format.fprintf ppf "route %d wl=%d cost=%.1f arcs=[%a]" r.id r.wl r.cost
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf (a, b, _) -> Format.fprintf ppf "%d>%d" a b))
    r.arcs
