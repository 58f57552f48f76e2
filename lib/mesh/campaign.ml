module Erlang = Wdm_traffic.Erlang
module Churn = Wdm_traffic.Churn
module Fanout = Wdm_traffic.Fanout

type cell = {
  topo : string;
  strategy : string;
  point : Erlang.point;
}

type spec = {
  seed : int;
  k : int;
  mode : Light_tree.mode;
  splitters : Mesh_network.splitters;
  k_paths : int;
  topos : string list;
  strategies : string list;
  loads : float list;
  arrivals : int;
  fanout : Fanout.t;
}

let default =
  {
    seed = 1;
    k = 8;
    mode = Light_tree.Hierarchy;
    splitters = Mesh_network.Split_all;
    k_paths = 3;
    topos = [ "nsf14"; "janet" ];
    strategies = [ "first-fit"; "coloring" ];
    loads = [ 4.; 8.; 12.; 16.; 20.; 24. ];
    arrivals = 4000;
    fanout = Fanout.Zipf { max = 4; s = 1.3 };
  }

let quick = { default with arrivals = 400; loads = [ 4.; 12.; 24. ] }

let run ?telemetry spec =
  let cells = ref [] in
  let err = ref None in
  List.iteri
    (fun ti topo ->
      List.iteri
        (fun si strategy ->
          List.iteri
            (fun li load ->
              if !err = None then begin
                let config =
                  {
                    Mesh_network.Config.k = spec.k;
                    strategy;
                    mode = spec.mode;
                    splitters = spec.splitters;
                    k_paths = spec.k_paths;
                  }
                in
                match Mesh_network.create ?telemetry ~config topo with
                | Error e -> err := Some e
                | Ok net ->
                  let sut =
                    {
                      Churn.connect =
                        (fun c ->
                          match Mesh_network.connect net c with
                          | Ok r -> Ok r.Mesh_network.id
                          | Error e -> Error e);
                      disconnect =
                        (fun id ->
                          match Mesh_network.disconnect net id with
                          | Ok _ -> ()
                          | Error _ ->
                            invalid_arg "mesh campaign: bad teardown");
                    }
                  in
                  let rng =
                    Random.State.make
                      [| spec.seed; 7919 * ti; 104729 * si; 1299709 * li |]
                  in
                  let point =
                    Erlang.run rng
                      ~nodes:(Graph.n (Mesh_network.graph net))
                      ~fanout:spec.fanout ~offered:load
                      ~arrivals:spec.arrivals sut
                  in
                  cells := { topo; strategy; point } :: !cells
              end)
            spec.loads)
        spec.strategies)
    spec.topos;
  match !err with Some e -> Error e | None -> Ok (List.rev !cells)

let pp_table ppf cells =
  Format.fprintf ppf "%-8s %-12s %10s %9s %9s %9s@." "topo" "strategy"
    "erlangs" "blocked" "pb" "active";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-8s %-12s %10.1f %9d %9.4f %9.2f@." c.topo
        c.strategy c.point.Erlang.offered_erlangs c.point.Erlang.blocked
        c.point.Erlang.blocking c.point.Erlang.mean_active)
    cells

let to_json spec cells =
  let module J = Wdm_telemetry.Json in
  J.Obj
    [
      ("seed", J.Int spec.seed);
      ("wavelengths", J.Int spec.k);
      ("arrivals_per_cell", J.Int spec.arrivals);
      ( "cells",
        J.List
          (List.map
             (fun c ->
               let p = c.point in
               J.Obj
                 [
                   ("topo", J.String c.topo);
                   ("strategy", J.String c.strategy);
                   ("erlangs", J.Float p.Erlang.offered_erlangs);
                   ("arrivals", J.Int p.Erlang.arrivals);
                   ("accepted", J.Int p.Erlang.accepted);
                   ("blocked", J.Int p.Erlang.blocked);
                   ("blocking", J.Float p.Erlang.blocking);
                   ("mean_active", J.Float p.Erlang.mean_active);
                 ])
             cells) );
    ]
