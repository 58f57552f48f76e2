module Network = Wdm_multistage.Network
module Topology = Wdm_multistage.Topology
module Model = Wdm_core.Model
module Mesh = Wdm_mesh.Mesh_network
module Assign = Wdm_mesh.Assign
module Churn = Wdm_traffic.Churn
module Erlang = Wdm_traffic.Erlang
module Fanout = Wdm_traffic.Fanout

type workload =
  | Multistage of {
      label : string;
      n : int;
      m : int;
      r : int;
      k : int;
      steps : int;
      teardown_bias : float;
      fanout : Fanout.t;
    }
  | Mesh of {
      label : string;
      topo : string;
      k : int;
      k_paths : int;
      offered : float;
      arrivals : int;
      fanout : Fanout.t;
    }

let workload_label = function
  | Multistage { label; _ } -> label
  | Mesh { label; _ } -> label

let workload_engine = function
  | Multistage _ -> "multistage"
  | Mesh _ -> "mesh"

type spec = { seed : int; strategies : string list; workloads : workload list }

type cell = {
  engine : string;
  workload : string;
  strategy : string;
  attempts : int;
  accepted : int;
  blocked : int;
  blocking : float;
  mean_connect_us : float;
}

let default =
  {
    seed = 20000;
    strategies = [ "first-fit"; "adaptive"; "annealed"; "crosstalk" ];
    workloads =
      [
        (* m chosen well under the Theorem 1 nonblocking minimum
           (13 for n=r=4, k=2), so strategy choice is load-bearing *)
        Multistage
          {
            label = "churn-4x4-m8";
            n = 4;
            m = 8;
            r = 4;
            k = 2;
            steps = 4000;
            teardown_bias = 0.3;
            fanout = Fanout.Zipf { max = 9; s = 1.0 };
          };
        Multistage
          {
            label = "churn-5x5-m10";
            n = 5;
            m = 10;
            r = 5;
            k = 2;
            steps = 4000;
            teardown_bias = 0.3;
            fanout = Fanout.Zipf { max = 11; s = 1.2 };
          };
        Mesh
          {
            label = "nsf14-16E";
            topo = "nsf14";
            k = 8;
            k_paths = 3;
            offered = 16.;
            arrivals = 3000;
            fanout = Fanout.Zipf { max = 6; s = 1.3 };
          };
        Mesh
          {
            label = "janet-12E";
            topo = "janet";
            k = 8;
            k_paths = 3;
            offered = 12.;
            arrivals = 3000;
            fanout = Fanout.Zipf { max = 6; s = 1.3 };
          };
      ];
  }

let shrink = function
  | Multistage w -> Multistage { w with steps = 600 }
  | Mesh w -> Mesh { w with arrivals = 300 }

let quick = { default with workloads = List.map shrink default.workloads }

(* The per-cell RNG is a function of the campaign seed and the workload
   index only — NOT the strategy — so every strategy in a row faces the
   same offered stream. *)
let cell_rng spec ~workload_index =
  Random.State.make [| spec.seed; 7919 * (workload_index + 1) |]

type meter = { mutable calls : int; mutable total_s : float }

let timed meter f x =
  let t0 = Unix.gettimeofday () in
  let r = f x in
  meter.calls <- meter.calls + 1;
  meter.total_s <- meter.total_s +. (Unix.gettimeofday () -. t0);
  r

let mean_us meter =
  if meter.calls = 0 then 0.
  else meter.total_s /. float_of_int meter.calls *. 1e6

let run_multistage rng ~strategy ~n ~m ~r ~k ~steps ~teardown_bias ~fanout =
  match Topology.make ~n ~m ~r ~k with
  | Error e -> Error (Printf.sprintf "invalid multistage workload: %s" e)
  | Ok topo ->
    let net =
      Network.create
        ~config:{ Network.Config.default with strategy }
        ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
    in
    let meter = { calls = 0; total_s = 0. } in
    let sut =
      {
        Churn.connect =
          (fun c ->
            match timed meter (Network.connect net) c with
            | Ok route -> Ok route.Network.id
            | Error e -> Error e);
        disconnect = (fun id -> ignore (Network.disconnect net id));
      }
    in
    let stats =
      Churn.run rng ~spec:(Topology.spec topo) ~model:Model.MSW ~fanout ~steps
        ~teardown_bias sut
    in
    Ok
      ( stats.Churn.attempts,
        stats.Churn.accepted,
        stats.Churn.blocked,
        mean_us meter )

let run_mesh rng ~strategy ~topo ~k ~k_paths ~offered ~arrivals ~fanout =
  let config =
    {
      Mesh.Config.k;
      strategy;
      mode = Wdm_mesh.Light_tree.Hierarchy;
      splitters = Mesh.Split_all;
      k_paths;
    }
  in
  match Mesh.create ~config topo with
  | Error e -> Error (Printf.sprintf "invalid mesh workload: %s" e)
  | Ok net ->
    let meter = { calls = 0; total_s = 0. } in
    let sut =
      {
        Churn.connect =
          (fun c ->
            match timed meter (Mesh.connect net) c with
            | Ok route -> Ok route.Mesh.id
            | Error e -> Error e);
        disconnect = (fun id -> ignore (Mesh.disconnect net id));
      }
    in
    let nodes = Wdm_mesh.Graph.n (Mesh.graph net) in
    let point = Erlang.run rng ~nodes ~fanout ~offered ~arrivals sut in
    Ok
      ( point.Erlang.arrivals,
        point.Erlang.accepted,
        point.Erlang.blocked,
        mean_us meter )

let run_cell spec ~workload_index workload name =
  let rng = cell_rng spec ~workload_index in
  let outcome =
    match workload with
    | Multistage { n; m; r; k; steps; teardown_bias; fanout; label = _ } -> (
      match Network.strategy_of_string name with
      | Error e -> Error (Printf.sprintf "multistage: %s" e)
      | Ok strategy ->
        run_multistage rng ~strategy ~n ~m ~r ~k ~steps ~teardown_bias ~fanout)
    | Mesh { topo; k; k_paths; offered; arrivals; fanout; label = _ } -> (
      match Assign.strategy_of_string name with
      | Error e -> Error (Printf.sprintf "mesh: %s" e)
      | Ok strategy ->
        run_mesh rng ~strategy ~topo ~k ~k_paths ~offered ~arrivals ~fanout)
  in
  match outcome with
  | Error _ as e -> e
  | Ok (attempts, accepted, blocked, mean_connect_us) ->
    Ok
      {
        engine = workload_engine workload;
        workload = workload_label workload;
        strategy = name;
        attempts;
        accepted;
        blocked;
        blocking =
          (if attempts = 0 then 0.
           else float_of_int blocked /. float_of_int attempts);
        mean_connect_us;
      }

let run spec =
  if spec.strategies = [] then Error "compare: no strategies"
  else if spec.workloads = [] then Error "compare: no workloads"
  else
    let rec go acc wi = function
      | [] -> Ok (List.rev acc)
      | w :: ws ->
        let rec strategies acc = function
          | [] -> Ok acc
          | name :: rest -> (
            match run_cell spec ~workload_index:wi w name with
            | Error _ as e -> e
            | Ok cell -> strategies (cell :: acc) rest)
        in
        (match strategies acc spec.strategies with
        | Error _ as e -> e
        | Ok acc -> go acc (wi + 1) ws)
    in
    go [] 0 spec.workloads

let pp_table ppf cells =
  let by_workload =
    List.fold_left
      (fun acc c ->
        if List.mem_assoc c.workload acc then acc
        else (c.workload, List.filter (fun x -> x.workload = c.workload) cells) :: acc)
      [] cells
    |> List.rev
  in
  List.iter
    (fun (w, group) ->
      (match group with
      | [] -> ()
      | c :: _ -> Format.fprintf ppf "%s (%s)@," w c.engine);
      List.iter
        (fun c ->
          Format.fprintf ppf "  %-24s attempts=%-6d blocked=%-6d pb=%.4f mean=%.1fus@,"
            c.strategy c.attempts c.blocked c.blocking c.mean_connect_us)
        group)
    by_workload

let pp_table ppf cells =
  Format.fprintf ppf "@[<v>";
  pp_table ppf cells;
  Format.fprintf ppf "@]"

let to_json spec cells =
  let module J = Wdm_telemetry.Json in
  J.Obj
    [
      ("seed", J.Int spec.seed);
      ("strategies", J.List (List.map (fun s -> J.String s) spec.strategies));
      ( "cells",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("engine", J.String c.engine);
                   ("workload", J.String c.workload);
                   ("strategy", J.String c.strategy);
                   ("attempts", J.Int c.attempts);
                   ("accepted", J.Int c.accepted);
                   ("blocked", J.Int c.blocked);
                   ("blocking", J.Float c.blocking);
                   ("mean_connect_us", J.Float c.mean_connect_us);
                 ])
             cells) );
    ]
