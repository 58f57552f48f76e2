(* Benchmark and reproduction harness.

   Running this executable regenerates every table and figure-shaped
   result in the paper's evaluation (Sections 2.4 and 3.4), then times
   the core operations with bechamel.  Section markers match the
   per-experiment index in DESIGN.md. *)

open Wdm_core
open Wdm_multistage
module An = Wdm_analysis

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "== %s\n" title;
  Printf.printf "================================================================\n\n"

(* ----------------------------------------------------------------- *)
(* Table 1                                                           *)
(* ----------------------------------------------------------------- *)

let table1 () =
  section "Table 1 - capacity & cost of crossbar WDM multicast networks";
  An.Table.print (An.Table1.symbolic ());
  An.Table.print
    (An.Table1.numeric
       [ (2, 1); (2, 2); (2, 3); (3, 1); (3, 2); (4, 2); (8, 4); (16, 8) ])

(* ----------------------------------------------------------------- *)
(* Table 2                                                           *)
(* ----------------------------------------------------------------- *)

let table2 () =
  section "Table 2 - crossbar vs multistage cost";
  An.Table.print (An.Table2.symbolic ());
  An.Table.print
    (An.Table2.numeric ~big_ns:[ 16; 64; 256; 1024; 4096 ] ~ks:[ 2; 4; 8 ])

(* ----------------------------------------------------------------- *)
(* Figures 4-7: component census of the built fabrics                *)
(* ----------------------------------------------------------------- *)

let fabric_census () =
  section "Figs 4/6/7 - component census of physically built fabrics (N=3, k=2)";
  let t =
    An.Table.make
      ~header:[ "Fabric"; "Crosspoints"; "Converters"; "Formula xpts"; "Formula conv" ]
      ()
  in
  let spec = Network_spec.make_exn ~n:3 ~k:2 in
  List.iter
    (fun model ->
      let f = Wdm_crossbar.Fabric.create ~model spec in
      An.Table.add_row t
        [
          Format.asprintf "Fig %s (%a)"
            (match model with Model.MSW -> "4" | Model.MSDW -> "6" | Model.MAW -> "7")
            Model.pp model;
          string_of_int (Wdm_crossbar.Fabric.crosspoints f);
          string_of_int (Wdm_crossbar.Fabric.converters f);
          string_of_int (Wdm_core.Cost.crossbar_crosspoints model ~n:3 ~k:2);
          string_of_int (Wdm_core.Cost.crossbar_converters model ~n:3 ~k:2);
        ])
    Model.all;
  An.Table.print t

(* ----------------------------------------------------------------- *)
(* Power budget / crosstalk proxy on a realized assignment           *)
(* ----------------------------------------------------------------- *)

let power_budget () =
  section "Power budget & crosstalk proxy (broadcast on Fig 7 fabric, N=4 k=2)";
  let spec = Network_spec.make_exn ~n:4 ~k:2 in
  let fabric = Wdm_crossbar.Fabric.create ~model:Model.MAW spec in
  let rng = Random.State.make [| 2024 |] in
  let a = Wdm_traffic.Generator.random_full_assignment rng spec Model.MAW in
  match Wdm_crossbar.Fabric.realize fabric a with
  | Error f ->
    Printf.printf "unexpected failure: %s\n"
      (Format.asprintf "%a" Wdm_crossbar.Delivery.pp_failure f)
  | Ok outcome ->
    Printf.printf "connections realized : %d\n" (Assignment.size a);
    Printf.printf "total endpoints lit  : %d\n" (Assignment.total_fanout a);
    (match Wdm_crossbar.Delivery.min_power_db outcome with
    | Some p -> Printf.printf "worst delivered power: %.2f dB\n" p
    | None -> ());
    (match Wdm_crossbar.Delivery.max_gates_passed outcome with
    | Some g -> Printf.printf "max crosspoints hit  : %d (crosstalk proxy)\n" g
    | None -> ())

(* ----------------------------------------------------------------- *)
(* Crosstalk margin vs fabric size (leaky SOA gates)                  *)
(* ----------------------------------------------------------------- *)

let crosstalk_margin () =
  section "Crosstalk margin vs fabric size (30 dB extinction gates)";
  let t =
    An.Table.make
      ~header:[ "N"; "k"; "model"; "gates"; "worst margin (dB)" ]
      ()
  in
  List.iter
    (fun (n, k, model) ->
      let sp = Network_spec.make_exn ~n ~k in
      let fabric =
        Wdm_crossbar.Fabric.create
          ~loss:(Wdm_optics.Loss_model.leaky ~extinction_db:30. ())
          ~model sp
      in
      let rng = Random.State.make [| 55 |] in
      let a = Wdm_traffic.Generator.random_full_assignment rng sp model in
      match Wdm_crossbar.Fabric.realize fabric a with
      | Error _ -> ()
      | Ok outcome ->
        An.Table.add_row t
          [
            string_of_int n;
            string_of_int k;
            Model.to_string model;
            string_of_int (Wdm_crossbar.Fabric.crosspoints fabric);
            (match Wdm_crossbar.Delivery.worst_crosstalk_margin_db outcome with
            | Some m -> Printf.sprintf "%.1f" m
            | None -> "clean");
          ])
    [
      (2, 2, Model.MSW); (4, 2, Model.MSW); (8, 2, Model.MSW);
      (2, 2, Model.MAW); (4, 2, Model.MAW); (8, 2, Model.MAW);
    ];
  An.Table.print t;
  print_endline
    "(the paper uses the crosspoint count to project crosstalk; with leaky\n\
    \ gates the margin indeed degrades as k^2 N^2 fabrics grow)\n"

(* ----------------------------------------------------------------- *)
(* Theorem sweeps                                                     *)
(* ----------------------------------------------------------------- *)

let theorem_sweeps () =
  section "Theorems 1 & 2 - middle-stage requirement m_min (n = r)";
  An.Table.print
    (An.Sweeps.theorem_bounds ~ns:[ 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 ]
       ~ks:[ 1; 2; 4; 8 ])

let crossover () =
  section "Crossover - where the multistage design beats the crossbar";
  List.iter
    (fun (model, k) ->
      An.Table.print (An.Sweeps.crossover ~output_model:model ~k ~max_big_n:1024);
      match An.Sweeps.first_crossover ~output_model:model ~k ~max_big_n:4096 with
      | Some n -> Printf.printf "first MS win for %s, k=%d: N = %d\n\n"
          (Model.to_string model) k n
      | None -> Printf.printf "no MS win up to N = 4096\n\n")
    [ (Model.MSW, 2); (Model.MAW, 2) ]

let capacity_growth () =
  section "Capacity growth - log10 of full-multicast capacity";
  An.Table.print (An.Sweeps.capacity_growth ~k:2 ~ns:[ 2; 4; 8; 16; 32; 64 ]);
  An.Table.print (An.Sweeps.capacity_growth ~k:4 ~ns:[ 2; 4; 8; 16; 32 ])

(* ----------------------------------------------------------------- *)
(* Blocking experiments                                               *)
(* ----------------------------------------------------------------- *)

let blocking () =
  section "Blocking probability vs m (edge of the nonblocking condition)";
  An.Table.print
    (An.Blocking.blocking_table ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:3 ~r:3 ~k:2);
  An.Table.print
    (An.Blocking.blocking_table ~construction:Network.Maw_dominant
       ~output_model:Model.MAW ~n:3 ~r:3 ~k:2);
  section "Fig 10 effect under load - construction ablation at equal m";
  An.Table.print (An.Blocking.construction_ablation ~n:2 ~r:2 ~k:2 ~ms:[ 2; 3; 4 ]);
  section "Routing-strategy ablation";
  An.Table.print
    (An.Blocking.strategy_ablation ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:4 ~r:4 ~k:2 ~m:13);
  section "Rearrangement ablation (strict-sense vs rearrangeable)";
  An.Table.print
    (An.Blocking.rearrangement_ablation ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:3 ~r:3 ~k:1 ~ms:[ 3; 4; 5; 6 ] ())

let sparse_conversion () =
  section "Sparse conversion - capacity with range-limited converters";
  An.Table.print (An.Sparse_conversion.table ~n:2 ~k:2);
  An.Table.print (An.Sparse_conversion.table ~n:2 ~k:3);
  print_endline
    "(d = 0 collapses MSDW/MAW onto the MSW capacity; d = k-1 restores the\n\
    \ full Table 1 counts; every point is verified by optical realization)\n"

let fault_tolerance () =
  section "Fault tolerance - m_min + f middles survive f module failures";
  let n = 3 and r = 3 and k = 2 in
  let m_min = (Conditions.msw_dominant ~n ~r).Conditions.m_min in
  let t =
    An.Table.make
      ~header:[ "provisioned m"; "failed modules"; "attempts"; "blocked" ]
      ()
  in
  List.iter
    (fun (extra, faults) ->
      let topo = Topology.make_exn ~n ~m:(m_min + extra) ~r ~k in
      let net =
        Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
          topo
      in
      for j = 1 to faults do
        ignore (Network.fail_middle net j)
      done;
      let sut =
        {
          Wdm_traffic.Churn.connect =
            (fun c ->
              match Network.connect net c with
              | Ok route -> Ok route.Network.id
              | Error e -> Error e);
          disconnect = (fun id -> ignore (Network.disconnect net id));
        }
      in
      let stats =
        Wdm_traffic.Churn.run (Random.State.make [| 83 |])
          ~spec:(Topology.spec topo) ~model:Model.MSW
          ~fanout:(Wdm_traffic.Fanout.Zipf { max = 9; s = 1.0 })
          ~steps:2000 ~teardown_bias:0.3 sut
      in
      An.Table.add_row t
        [
          Printf.sprintf "%d (m_min%+d)" (m_min + extra) extra;
          string_of_int faults;
          string_of_int stats.Wdm_traffic.Churn.attempts;
          string_of_int stats.Wdm_traffic.Churn.blocked;
        ])
    [ (0, 0); (2, 2); (3, 3); (0, 4); (0, 6) ];
  An.Table.print t;
  print_endline
    "(with f spare middles the theorem margin absorbs f faults; eating into\n\
    \ the margin brings blocking back)\n"

let x_limit_ablation () =
  section "x-limit ablation - the fanout-splitting bound of Theorems 1-2";
  (* n = r = 4, k = 2: the optimal x is 2 with m_min = 13; forcing
     x = 1 raises the requirement to m > (n-1)(1+r) = 15, so at m = 13
     the x = 1 strategy has lost its guarantee. *)
  let t =
    An.Table.make
      ~header:[ "x_limit"; "theorem needs m >"; "attempts"; "blocked at m=13" ]
      ()
  in
  List.iter
    (fun x ->
      let topo = Topology.make_exn ~n:4 ~m:13 ~r:4 ~k:2 in
      let net =
        Network.create
          ~config:{ Network.Config.default with x_limit = Some x }
          ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
      in
      let sut =
        {
          Wdm_traffic.Churn.connect =
            (fun c ->
              match Network.connect net c with
              | Ok route -> Ok route.Network.id
              | Error e -> Error e);
          disconnect = (fun id -> ignore (Network.disconnect net id));
        }
      in
      let stats =
        Wdm_traffic.Churn.run (Random.State.make [| 61 |])
          ~spec:(Topology.spec topo) ~model:Model.MSW
          ~fanout:(Wdm_traffic.Fanout.Zipf { max = 16; s = 1.0 })
          ~steps:3000 ~teardown_bias:0.3 sut
      in
      An.Table.add_row t
        [
          string_of_int x;
          Printf.sprintf "%.1f" (Conditions.theorem1_term ~n:4 ~r:4 ~x);
          string_of_int stats.Wdm_traffic.Churn.attempts;
          string_of_int stats.Wdm_traffic.Churn.blocked;
        ])
    [ 1; 2; 3 ];
  An.Table.print t

let fig10 () =
  section "Fig 10 - MSW middle modules block, MAW middle modules route";
  List.iter
    (fun (c, name) ->
      let outcome = Scenarios.fig10 c in
      Printf.printf "%-13s: prelude admitted %d/3, probe %s\n" name
        outcome.Scenarios.admitted
        (match outcome.Scenarios.probe_result with
        | Ok route -> Format.asprintf "ROUTED (%a)" Network.pp_route route
        | Error e -> "BLOCKED (" ^ Network.Error.to_string e ^ ")"))
    [ (Network.Msw_dominant, "MSW-dominant"); (Network.Maw_dominant, "MAW-dominant") ];
  print_newline ()

(* ----------------------------------------------------------------- *)
(* Recursive construction: crosspoints vs stages                      *)
(* ----------------------------------------------------------------- *)

let recursive_stages () =
  section "Recursive construction - cost vs number of stages (MSW model)";
  let t =
    An.Table.make
      ~header:[ "N"; "stages"; "m per level"; "crosspoints"; "vs crossbar" ]
      ()
  in
  let row big_n stages =
    match Recursive.design ~stages ~big_n ~k:2 ~output_model:Model.MSW with
    | Error _ -> ()
    | Ok d ->
      let cb = Wdm_core.Cost.crossbar_crosspoints Model.MSW ~n:big_n ~k:2 in
      An.Table.add_row t
        [
          string_of_int big_n;
          string_of_int stages;
          String.concat ","
            (List.map string_of_int (Recursive.middle_modules_per_level d));
          string_of_int (Recursive.crosspoints d);
          Printf.sprintf "%.3f" (float_of_int (Recursive.crosspoints d) /. float_of_int cb);
        ]
  in
  List.iter (row 4096) [ 1; 3; 5; 7 ];
  An.Table.add_rule t;
  List.iter (row (4096 * 4096)) [ 3; 5 ];
  An.Table.print t;
  print_endline
    "(deeper recursion multiplies in another Theorem-1 m factor per level,\n\
    \ so 5 stages only overtake 3 stages at very large N)\n"

let recursive_routing () =
  section "Recursive routing - 5-stage network at per-level Theorem-1 bounds";
  List.iter
    (fun (stages, big_n, k) ->
      match
        Recursive.design ~stages ~big_n ~k ~output_model:Model.MSW
      with
      | Error e -> print_endline e
      | Ok d ->
        let t = Rnetwork.create ~construction:Network.Msw_dominant d in
        let sut =
          {
            Wdm_traffic.Churn.connect =
              (fun c ->
                match Rnetwork.connect t c with
                | Ok route -> Ok route.Rnetwork.base.Network.id
                | Error e -> Error e);
            disconnect = (fun id -> ignore (Rnetwork.disconnect t id));
          }
        in
        let stats =
          Wdm_traffic.Churn.run
            (Random.State.make [| 2026 |])
            ~spec:(Topology.spec (Rnetwork.topology t))
            ~model:Model.MSW
            ~fanout:(Wdm_traffic.Fanout.Zipf { max = big_n; s = 1.1 })
            ~steps:2000 ~teardown_bias:0.35 sut
        in
        Printf.printf
          "%d-stage N=%-3d k=%d (m per level: %s): %s\n" stages big_n k
          (String.concat ","
             (List.map string_of_int (Recursive.middle_modules_per_level d)))
          (Format.asprintf "%a" Wdm_traffic.Churn.pp_stats stats))
    [ (3, 16, 2); (5, 8, 2); (5, 27, 2); (7, 16, 2) ];
  print_endline
    "\n(zero blocking expected at every depth: each level is provisioned to\n\
    \ its own Theorem-1 minimum, and the engine routes hop-recursively)\n"

(* ----------------------------------------------------------------- *)
(* Fig 3: converter usage per model                                   *)
(* ----------------------------------------------------------------- *)

let fig3_converters () =
  section "Fig 3 - wavelength converter demand per model";
  let n = 8 and k = 4 in
  let spec = Network_spec.make_exn ~n ~k in
  let rng = Random.State.make [| 31 |] in
  (* an MSW-legal workload is legal under all three models, which makes
     the converter comparison apples-to-apples *)
  let a = Wdm_traffic.Generator.random_full_assignment rng spec Model.MSW in
  let t =
    An.Table.make
      ~header:[ "Model"; "placement"; "provisioned"; "active on workload" ]
      ~align:[ An.Table.Left; An.Table.Left; An.Table.Right; An.Table.Right ]
      ()
  in
  List.iter
    (fun model ->
      An.Table.add_row t
        [
          Model.to_string model;
          Format.asprintf "%a" Converters.pp_placement (Converters.placement model);
          string_of_int (Converters.provisioned model ~n ~k);
          string_of_int (Converters.used_by model a);
        ])
    Model.all;
  An.Table.print t;
  Printf.printf
    "workload: random full assignment, %d connections, total fanout %d\n\n"
    (Assignment.size a) (Assignment.total_fanout a)

(* ----------------------------------------------------------------- *)
(* Empirical blocking frontier                                        *)
(* ----------------------------------------------------------------- *)

let frontier () =
  section "Empirical blocking frontier vs Theorem bound";
  let t =
    An.Table.make
      ~header:
        [ "construction"; "n=r"; "k"; "theorem m_min"; "largest m that blocked" ]
      ()
  in
  List.iter
    (fun (construction, cname, output_model, n, k) ->
      let eval =
        match construction with
        | Network.Msw_dominant -> Conditions.msw_dominant ~n ~r:n
        | Network.Maw_dominant -> Conditions.maw_dominant ~n ~r:n ~k
      in
      let f =
        An.Blocking.frontier ~construction ~output_model ~n ~r:n ~k ()
      in
      An.Table.add_row t
        [
          cname;
          string_of_int n;
          string_of_int k;
          string_of_int eval.Conditions.m_min;
          (match f with Some m -> string_of_int m | None -> "none observed");
        ])
    [
      (Network.Msw_dominant, "MSW-dominant", Model.MSW, 2, 1);
      (Network.Msw_dominant, "MSW-dominant", Model.MSW, 3, 2);
      (Network.Msw_dominant, "MSW-dominant", Model.MSW, 4, 2);
      (Network.Maw_dominant, "MAW-dominant", Model.MAW, 3, 2);
    ];
  An.Table.print t;
  print_endline
    "(the gap between the frontier and m_min is expected: random churn is\n\
    \ far gentler than the worst-case adversary of the necessity proofs)\n"

(* ----------------------------------------------------------------- *)
(* Exhaustive adversary: the exact frontier for a toy instance        *)
(* ----------------------------------------------------------------- *)

let exact_frontier () =
  section "Exhaustive adversary - exact blocking frontier (n=r=2, k=1)";
  Printf.printf
    "Theorem 1 m_min = %d; exhaustive state-space search gives the exact edge:\n\n"
    (Conditions.msw_dominant ~n:2 ~r:2).Conditions.m_min;
  List.iter
    (fun (m, v) ->
      Format.printf "m=%d: %a\n" m An.Adversary.pp_verdict v)
    (An.Adversary.frontier_exact ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:2 ~r:2 ~k:1 ());
  print_endline
    "\n(the sufficient condition leaves slack at this toy size; the witness\n\
    \ at m=2 is machine-checked by replay in the test suite)\n"

(* ----------------------------------------------------------------- *)
(* Blocking vs offered load                                           *)
(* ----------------------------------------------------------------- *)

let blocking_vs_load () =
  section "Blocking vs offered load (undersized vs theorem-sized switch)";
  An.Table.print
    (An.Blocking.erlang_curve ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:3 ~r:3 ~k:2 ~m:4
       ~offered:[ 2.; 4.; 8.; 12.; 16. ] ());
  An.Table.print
    (An.Blocking.erlang_curve ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:3 ~r:3 ~k:2
       ~m:(Conditions.msw_dominant ~n:3 ~r:3).Conditions.m_min
       ~offered:[ 4.; 16. ] ());
  An.Table.print
    (An.Blocking.blocking_vs_load ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:3 ~r:3 ~k:2 ~m:4 ());
  An.Table.print
    (An.Blocking.blocking_vs_load ~construction:Network.Msw_dominant
       ~output_model:Model.MSW ~n:3 ~r:3 ~k:2
       ~m:(Conditions.msw_dominant ~n:3 ~r:3).Conditions.m_min ())

(* ----------------------------------------------------------------- *)
(* Routing throughput at scale                                        *)
(* ----------------------------------------------------------------- *)

module J = Wdm_telemetry.Json

module Op = Wdm_persist.Op
module Backend = Wdm_persist.Backend
module Store = Wdm_persist.Store
module Wal = Wdm_persist.Wal
module Resp = Wdm_persist.Resp
module Server = Wdm_server.Server
module Client = Wdm_server.Client
module Evloop = Wdm_server.Evloop
module Protocol = Wdm_server.Protocol

(* A recorded network workload: the churn driver runs once against a
   scratch network (so every request is admissible and the teardown ids
   are real), and the op sequence is then replayed directly against a
   fresh network with nothing but Network.connect /
   Network.disconnect inside the timed loop.  That isolates the routing
   engine from the generator, which otherwise dominates at N=1024.
   The ops are Wdm_persist.Op values — the same vocabulary the WAL
   persists — so the recorded trace could equally be written to disk
   and recovered. *)
let record_trace ~topo ~steps ~seed =
  let net =
    Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
      topo
  in
  let ops = ref [] in
  let sut =
    {
      Wdm_traffic.Churn.connect =
        (fun c ->
          ops := Op.Connect c :: !ops;
          match Network.connect net c with
          | Ok route -> Ok route.Network.id
          | Error e -> Error e);
      disconnect =
        (fun id ->
          ops := Op.Disconnect id :: !ops;
          ignore (Network.disconnect net id));
    }
  in
  ignore
    (Wdm_traffic.Churn.run
       (Random.State.make [| seed |])
       ~spec:(Topology.spec topo) ~model:Model.MSW
       ~fanout:(Wdm_traffic.Fanout.Zipf { max = 64; s = 1.3 })
       ~steps ~teardown_bias:0.35 sut);
  Array.of_list (List.rev !ops)

(* Replay, timing only the network calls, with a running checksum over
   the chosen hops (Op.route_checksum; test_routing_equiv pins its value
   for the quick trace).  The replay carries its own metrics sink, as
   instrumented production runs do: gauge maintenance is part of the
   per-op cost. *)
let replay ~topo ops =
  let net =
    Network.create
      ~config:
        {
          Network.Config.default with
          telemetry = Some (Wdm_telemetry.Sink.create ());
        }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let accepted = ref 0 and checksum = ref 0 in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (function
      | Op.Connect c -> (
        match Network.connect net c with
        | Ok route ->
          incr accepted;
          checksum := Op.route_checksum !checksum route
        | Error _ -> ())
      | Op.Disconnect id -> ignore (Network.disconnect net id)
      | _ -> ())
    ops;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, !accepted, !checksum)

(* Rearrangement latency: churn an undersized switch until a request
   blocks, snapshot the fabric at that instant, then repeatedly time
   connect_rearrangeable against fresh copies of the snapshot (the call
   mutates the fabric on success, so each sample gets its own copy;
   the copies happen outside the timed region). *)
let rearrangement_latency ~iters cases =
  List.filter_map
    (fun (n, k, m, strategy, sname) ->
      let topo = Topology.make_exn ~n ~m ~r:n ~k in
      let net =
        Network.create
          ~config:{ Network.Config.default with strategy }
          ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
      in
      let snapshot = ref None in
      let on_blocked c _ =
        if !snapshot = None then snapshot := Some (c, Network.copy net)
      in
      let sut =
        {
          Wdm_traffic.Churn.connect =
            (fun c ->
              match Network.connect net c with
              | Ok route -> Ok route.Network.id
              | Error e -> Error e);
          disconnect = (fun id -> ignore (Network.disconnect net id));
        }
      in
      ignore
        (Wdm_traffic.Churn.run ~on_blocked
           (Random.State.make [| 97 |])
           ~spec:(Topology.spec topo) ~model:Model.MSW
           ~fanout:(Wdm_traffic.Fanout.Uniform (1, n))
           ~steps:2000 ~teardown_bias:0.2 sut);
      match !snapshot with
      | None -> None
      | Some (probe, blocked_state) ->
        let total = ref 0. and admitted = ref false and moves = ref 0 in
        for _ = 1 to iters do
          let c = Network.copy blocked_state in
          let t0 = Unix.gettimeofday () in
          let r = Network.connect_rearrangeable c probe in
          total := !total +. (Unix.gettimeofday () -. t0);
          match r with
          | Ok (_, mv) ->
            admitted := true;
            moves := mv
          | Error _ -> ()
        done;
        let mean_us = !total /. float_of_int iters *. 1e6 in
        Some (n, k, m, sname, mean_us, !admitted, !moves))
    cases

let routing_trials = 5

let routing_throughput ~quick () =
  section "Routing throughput at scale (N=1024 three-stage, Theorem-1 m)";
  let n = 32 and r = 32 and k = 2 in
  let eval = Conditions.msw_dominant ~n ~r in
  let m = eval.Conditions.m_min in
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let steps = if quick then 4_000 else 20_000 in
  let ops = record_trace ~topo ~steps ~seed:4242 in
  let connects =
    Array.fold_left (fun a -> function Op.Connect _ -> a + 1 | _ -> a) 0 ops
  in
  Printf.printf "topology: %s, m=%d (x*=%d)\n"
    (Format.asprintf "%a" Topology.pp topo)
    m eval.Conditions.x;
  Printf.printf "trace: %d network ops (%d connects, %d disconnects)\n\n"
    (Array.length ops) connects
    (Array.length ops - connects);
  (* one replay lasts a fraction of a second, so a single timing swings
     by a third between runs: report the spread of several replays, and
     refuse a run whose replays disagree on the routes *)
  let trials = List.init routing_trials (fun _ -> replay ~topo ops) in
  let _, accepted, checksum = List.hd trials in
  if List.exists (fun (_, a, c) -> a <> accepted || c <> checksum) trials then
    failwith "routing_throughput: trials disagree on the admitted routes";
  let dts = List.sort compare (List.map (fun (dt, _, _) -> dt) trials) in
  let dt = List.nth dts (routing_trials / 2) in
  let cps_of dt = float_of_int connects /. dt in
  let cps = cps_of dt in
  let cps_min = cps_of (List.nth dts (routing_trials - 1)) in
  let cps_max = cps_of (List.hd dts) in
  Printf.printf
    "replay (median of %d): %6.3f s  %8.0f connects/s [%.0f-%.0f]  %8.0f \
     ops/s (%d accepted, route checksum %d)\n\n"
    routing_trials dt cps cps_min cps_max
    (float_of_int (Array.length ops) /. dt)
    accepted checksum;
  section "Rearrangement latency (undersized switch, blocked-probe snapshot)";
  let rows =
    rearrangement_latency
      ~iters:(if quick then 100 else 1000)
      [
        (3, 1, 3, "min-intersection", "min_intersection");
        (3, 1, 3, "first-fit", "first_fit");
        (4, 2, 8, "min-intersection", "min_intersection");
        (4, 2, 8, "first-fit", "first_fit");
      ]
  in
  List.iter
    (fun (n, k, m, sname, mean_us, admitted, moves) ->
      Printf.printf
        "N=%-3d k=%d m=%-2d %-17s %8.1f us/call  %s (moves: %d)\n" (n * n) k m
        sname mean_us
        (if admitted then "admitted" else "still blocked")
        moves)
    rows;
  print_newline ();
  ( ( "routing_throughput",
      J.Obj
        [
        ( "params",
          J.Obj
            [
              ("big_n", J.Int (n * r));
              ("n", J.Int n);
              ("r", J.Int r);
              ("k", J.Int k);
              ("m", J.Int m);
              ("steps", J.Int steps);
              ("connect_ops", J.Int connects);
              ("total_ops", J.Int (Array.length ops));
            ] );
        ("trials", J.Int routing_trials);
        ("elapsed_s", J.Float dt);
        ("connects_per_s", J.Float cps);
        ("connects_per_s_min", J.Float cps_min);
        ("connects_per_s_max", J.Float cps_max);
        ("accepted", J.Int accepted);
        ("route_checksum", J.Int checksum);
        ( "rearrangement",
          J.List
            (List.map
               (fun (n, k, m, sname, mean_us, admitted, moves) ->
                 J.Obj
                   [
                     ("n", J.Int n);
                     ("k", J.Int k);
                     ("m", J.Int m);
                     ("strategy", J.String sname);
                     ("mean_us", J.Float mean_us);
                     ("admitted", J.Bool admitted);
                     ("moves", J.Int moves);
                   ])
               rows) );
      ] ),
    (topo, ops, dt) )

(* ----------------------------------------------------------------- *)
(* Persistence: WAL overhead, snapshot/restore throughput             *)
(* ----------------------------------------------------------------- *)

let median xs = List.nth (List.sort compare xs) (List.length xs / 2)
let persistence_trials = 5

(* Prices the WAL's per-op tax in pairs: each pair replays the recorded
   trace twice, each time on a fresh network and executed as the server
   executes it, once logging every op to a fresh WAL first.
   Pairs alternate which pass runs first, so a drift in host speed
   lands on both sides, and the overhead is the median of the pairs'
   own overheads.  The last pair's state then prices the snapshot path
   (a leader's checkpoint: encode + write; decode + restore) and a full
   record / recover cycle closes the loop: the recovered network must
   fingerprint identically to the one that never crashed. *)
let persistence_bench ~topo ~ops =
  section "Persistence (WAL overhead, snapshot/restore throughput)";
  let wal = "bench_wal.tmp" in
  let iters = 20 in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (wal :: List.map (fun s -> Store.snapshot_path ~wal ~seq:s)
                (List.init (iters + 2) Fun.id))
  in
  (* the routing replay's sink arrangement, so the pair's difference is
     the WAL's tax alone *)
  let fresh () =
    Network.create
      ~config:
        {
          Network.Config.default with
          telemetry = Some (Wdm_telemetry.Sink.create ());
        }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let pass store net =
    let backend = Backend.Net net in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun op ->
        Option.iter (fun s -> Store.log s op) store;
        ignore (Resp.execute_backend backend (Resp.Admit op)))
      ops;
    Unix.gettimeofday () -. t0
  in
  (* the last logged pass's store and network, kept for the checks *)
  let last = ref None in
  let logged () =
    Option.iter (fun (s, _) -> Store.close s) !last;
    cleanup ();
    let net = fresh () in
    let store = Store.start_backend ~wal (Backend.Net net) in
    last := Some (store, net);
    pass (Some store) net
  in
  let plain () = pass None (fresh ()) in
  let pairs =
    List.init persistence_trials (fun i ->
        if i mod 2 = 0 then
          let dt_plain = plain () in
          (dt_plain, logged ())
        else
          let dt_wal = logged () in
          (plain (), dt_wal))
  in
  let store, net = Option.get !last in
  let backend = Backend.Net net in
  let dt_baseline = median (List.map fst pairs) in
  let dt_wal = median (List.map snd pairs) in
  let overhead_pct =
    median (List.map (fun (b, w) -> (w -. b) /. b *. 100.) pairs)
  in
  Store.checkpoint_backend store backend;
  let records = Store.wal_records store in
  let wal_bytes = Store.wal_offset store in
  let digest_live = Backend.digest backend in
  Printf.printf
    "WAL: %d records, %d bytes; replay+log %.3f s vs %.3f s without (medians \
     of %d pairs), %.1f%% overhead (median of the pairs')\n"
    records wal_bytes dt_wal dt_baseline persistence_trials overhead_pct;
  let state = Backend.encode_state backend in
  let routes = List.length (Network.snapshot net).Network.s_routes in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    Store.checkpoint_backend store backend
  done;
  let write_ms = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e3 in
  Store.close store;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    match Backend.restore state with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let restore_ms = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e3 in
  Printf.printf
    "snapshot: %d bytes, %d routes; write %.2f ms, decode+restore %.2f ms\n"
    (String.length state) routes write_ms restore_ms;
  let replayed, digest_match =
    match Store.recover_backend ~wal () with
    | Ok r -> (r.Store.b_replayed, Backend.digest r.Store.backend = digest_live)
    | Error e ->
      cleanup ();
      failwith (Format.asprintf "persistence_bench: %a" Store.pp_recovery_error e)
  in
  Printf.printf "recovery: %d ops replayed, digest match: %b\n\n" replayed
    digest_match;
  if not digest_match then begin
    cleanup ();
    failwith "persistence_bench: recovered network diverged from live state"
  end;
  cleanup ();
  ( "persistence",
    J.Obj
      [
        ( "wal",
          J.Obj
            [
              ("records", J.Int records);
              ("bytes", J.Int wal_bytes);
              ("trials", J.Int persistence_trials);
              ("elapsed_s", J.Float dt_wal);
              ("baseline_s", J.Float dt_baseline);
              ("overhead_pct", J.Float overhead_pct);
            ] );
        ( "snapshot",
          J.Obj
            [
              ("bytes", J.Int (String.length state));
              ("routes", J.Int routes);
              ("write_ms", J.Float write_ms);
              ("restore_ms", J.Float restore_ms);
            ] );
        ( "recovery",
          J.Obj
            [ ("replayed", J.Int replayed); ("digest_match", J.Bool digest_match) ]
        );
      ] )

(* ----------------------------------------------------------------- *)
(* Control-plane serving: requests/s over a loopback socket           *)
(* ----------------------------------------------------------------- *)

(* The same recorded trace, driven through `wdmnet serve`'s machinery
   over a unix socket by a single synchronous client — so the delta
   against the in-process replay prices the whole control-plane stack
   (framing, CRC and the socket round trip per request).  The served network must land on the same state digest as
   an in-process twin, which is the bench-level version of the
   socket-vs-in-process equivalence test.

   Two more passes ride on the event-driven server: the same trace
   shipped pipelined (Batch frames of up to 64 ops — one round-trip
   per batch instead of per op), and that pipelined pass repeated with
   ~10k idle connections parked on the loop, which prices readiness
   notification at scale (each idle conn is a buffer, not a thread). *)
let batch_chunk = 64

let serve_pipelined client ops =
  let answered = ref 0 in
  let n = Array.length ops in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < n do
    let take = min batch_chunk (n - !i) in
    let reqs = List.init take (fun j -> Resp.Admit ops.(!i + j)) in
    (match Client.request_batch client reqs with
    | Ok rs -> answered := !answered + List.length rs
    | Error e -> failwith ("serving_bench: " ^ Client.error_to_string e));
    i := !i + take
  done;
  (!answered, Unix.gettimeofday () -. t0)

(* Park [want] hello'd connections on the server's event loop; they
   are real protocol clients that simply never send a request. *)
let park_idle_conns addr want =
  let sockaddr =
    match addr with
    | Server.Unix_socket path -> Unix.ADDR_UNIX path
    | Server.Tcp (host, port) ->
      Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  in
  let conns = ref [] in
  (try
     for _ = 1 to want do
       let fd =
         Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0
       in
       match
         Unix.connect fd sockaddr;
         Protocol.write_all fd Protocol.client_hello
       with
       | () -> conns := fd :: !conns
       | exception (Unix.Unix_error _ | Sys_error _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise Exit
     done
   with Exit -> ());
  !conns

let serving_bench ~topo ~ops ~dt_baseline =
  section "Control-plane serving (unix socket, single client)";
  let make () =
    Backend.Net
      (Network.create
         ~config:
           {
             Network.Config.default with
             telemetry = Some (Wdm_telemetry.Sink.create ());
           }
         ~construction:Network.Msw_dominant ~output_model:Model.MSW topo)
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wdm_bench_%d.sock" (Unix.getpid ()))
  in
  let dial srv =
    match Client.connect (Server.address srv) with
    | Ok c -> c
    | Error e ->
      Server.stop srv;
      failwith ("serving_bench: " ^ Client.error_to_string e)
  in
  let finish srv client =
    let digest =
      match Client.digest client with
      | Ok d -> d
      | Error e -> failwith ("serving_bench: " ^ Client.error_to_string e)
    in
    Client.close client;
    Server.stop srv;
    digest
  in
  let twin = make () in
  Array.iter (fun op -> ignore (Resp.execute_backend twin (Resp.Admit op))) ops;
  let twin_digest = Backend.digest twin in
  (* pass 1: one request per round-trip *)
  let srv = Server.start_backend ~backend:(make ()) (Server.Unix_socket sock) in
  let client = dial srv in
  let answered = ref 0 in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun op ->
      match Client.request client (Resp.Admit op) with
      | Ok _ -> incr answered
      | Error e -> failwith ("serving_bench: " ^ Client.error_to_string e))
    ops;
  let dt = Unix.gettimeofday () -. t0 in
  let digest = finish srv client in
  (* pass 2: pipelined, with up to ~10k idle connections parked on the
     loop (as many as the fd limit leaves headroom for) *)
  let want_idle = 10_000 in
  let idle_target =
    (* select's FD_SETSIZE would overflow; epoll has no such ceiling.
       Both ends of each parked connection live in this process, so a
       connection costs two fds against the limit. *)
    if Evloop.available_backend () <> "epoll" then 256
    else
      let limit = Evloop.ensure_fd_capacity ((2 * want_idle) + 256) in
      if limit < 0 then want_idle else max 0 (min want_idle ((limit - 256) / 2))
  in
  let pipelined_pass () =
    let srv2 =
      Server.start_backend ~backend:(make ()) (Server.Unix_socket sock)
    in
    let idle = park_idle_conns (Server.address srv2) idle_target in
    let client2 = dial srv2 in
    let answered_p, dt_pipe = serve_pipelined client2 ops in
    let idle_conns = List.length idle in
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      idle;
    let digest_p = finish srv2 client2 in
    (answered_p, dt_pipe, idle_conns, digest_p)
  in
  (* best of 3: a fresh server each time, so the digest gate holds on
     every attempt, not just the fastest *)
  let answered_p, dt_pipe, idle_conns, digest_p =
    let best = ref (pipelined_pass ()) in
    for _ = 2 to 3 do
      let (_, dt, _, _) as run = pipelined_pass () in
      let _, dt_best, _, _ = !best in
      let _, _, _, d = run in
      if d <> twin_digest then
        failwith "serving_bench: pipelined pass diverged from twin";
      if dt < dt_best then best := run
    done;
    !best
  in
  let digest_match = twin_digest = digest && twin_digest = digest_p in
  let rps = float_of_int !answered /. dt in
  let rps_pipe = float_of_int answered_p /. dt_pipe in
  let inproc = float_of_int (Array.length ops) /. dt_baseline in
  Printf.printf
    "served : %d requests in %.3f s  %8.0f requests/s\n" !answered dt rps;
  Printf.printf
    "pipelined: %d requests in %.3f s  %8.0f requests/s  (batch %d, %d idle conns, best of 3)\n"
    answered_p dt_pipe rps_pipe batch_chunk idle_conns;
  Printf.printf
    "inproc : %d ops      in %.3f s  %8.0f ops/s  (socket tax: %.1fx seq, %.1fx pipelined)\n"
    (Array.length ops) dt_baseline inproc (inproc /. rps) (inproc /. rps_pipe);
  Printf.printf "digest match vs in-process twin: %b\n\n" digest_match;
  if not digest_match then
    failwith "serving_bench: served network diverged from in-process twin";
  ( "serving",
    J.Obj
      [
        ("requests", J.Int !answered);
        ("elapsed_s", J.Float dt);
        ("requests_per_s", J.Float rps);
        ("pipelined_requests_per_s", J.Float rps_pipe);
        ("pipelined_slowdown", J.Float (inproc /. rps_pipe));
        ("idle_conns", J.Int idle_conns);
        ("inproc_ops_per_s", J.Float inproc);
        ("slowdown", J.Float (inproc /. rps));
        ("digest_match", J.Bool digest_match);
      ] )

(* ----------------------------------------------------------------- *)
(* Replication: leader throughput with one follower attached          *)
(* ----------------------------------------------------------------- *)

(* The cost of shipping the committed-op stream: the same request
   array served by a standalone leader and by a leader with one live
   follower, plus how far the follower trailed when the last response
   landed and how long the gap took to drain.  Digest equality across
   the pair is the correctness gate. *)
let replication_bench ~topo ~ops =
  section "Replication (leader + 1 follower, unix sockets)";
  let make () =
    Backend.Net
      (Network.create
         ~config:
           {
             Network.Config.default with
             telemetry = Some (Wdm_telemetry.Sink.create ());
           }
         ~construction:Network.Msw_dominant ~output_model:Model.MSW topo)
  in
  let sock tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wdm_bench_%s_%d.sock" tag (Unix.getpid ()))
  in
  let drive srv =
    let client =
      match Client.connect (Server.address srv) with
      | Ok c -> c
      | Error e ->
        Server.stop srv;
        failwith ("replication_bench: " ^ Client.error_to_string e)
    in
    let answered = ref 0 in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun op ->
        match Client.request client (Resp.Admit op) with
        | Ok _ -> incr answered
        | Error e -> failwith ("replication_bench: " ^ Client.error_to_string e))
      ops;
    let dt = Unix.gettimeofday () -. t0 in
    (client, !answered, dt)
  in
  let digest_of client =
    match Client.digest client with
    | Ok d -> d
    | Error e -> failwith ("replication_bench: " ^ Client.error_to_string e)
  in
  (* standalone baseline *)
  let alone =
    Server.start_backend ~backend:(make ()) (Server.Unix_socket (sock "alone"))
  in
  let c0, answered, dt_alone = drive alone in
  Client.close c0;
  Server.stop alone;
  (* the same stream with a follower subscribed *)
  let leader =
    Server.start_backend ~backend:(make ()) (Server.Unix_socket (sock "leader"))
  in
  let follower =
    Server.start_backend
      ~follower:{ Server.leader = Server.address leader; wal = None }
      ~backend:(make ())
      (Server.Unix_socket (sock "follower"))
  in
  let c1, _, dt_repl = drive leader in
  let target = Server.applied leader in
  let lag = max 0 (target - Server.applied follower) in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 30.0 in
  while Server.applied follower < target && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  let catchup = Unix.gettimeofday () -. t0 in
  if Server.applied follower < target then
    failwith "replication_bench: follower never caught up";
  let leader_digest = digest_of c1 in
  Client.close c1;
  let follower_digest =
    match Client.connect (Server.address follower) with
    | Ok c ->
      let d = digest_of c in
      Client.close c;
      d
    | Error e -> failwith ("replication_bench: " ^ Client.error_to_string e)
  in
  Server.stop leader;
  Server.stop follower;
  let digest_match = leader_digest = follower_digest in
  let rps_alone = float_of_int answered /. dt_alone in
  let rps_repl = float_of_int answered /. dt_repl in
  let overhead_pct = (dt_repl -. dt_alone) /. dt_alone *. 100. in
  Printf.printf
    "standalone : %d requests in %.3f s  %8.0f requests/s\n" answered dt_alone
    rps_alone;
  Printf.printf
    "replicated : %d requests in %.3f s  %8.0f requests/s  (overhead: %.1f%%)\n"
    answered dt_repl rps_repl overhead_pct;
  Printf.printf "follower lag at completion: %d ops, drained in %.3f s\n" lag
    catchup;
  Printf.printf "digest match leader vs follower: %b\n\n" digest_match;
  if not digest_match then
    failwith "replication_bench: follower state diverged from the leader";
  ( "replication",
    J.Obj
      [
        ("requests", J.Int answered);
        ("standalone_requests_per_s", J.Float rps_alone);
        ("replicated_requests_per_s", J.Float rps_repl);
        ("overhead_pct", J.Float overhead_pct);
        ("follower_lag_ops", J.Int lag);
        ("catchup_s", J.Float catchup);
        ("digest_match", J.Bool digest_match);
      ] )

(* ----------------------------------------------------------------- *)
(* Request-stage latency: where a served request spends its time      *)
(* ----------------------------------------------------------------- *)

(* The serving trace again, but with telemetry attached so every
   request is decomposed into decode / queue / execute / wal /
   replicate / respond stage histograms (DESIGN.md §11), reported as
   p50/p95/p99 per stage.  The same trace also runs with telemetry
   off: the delta prices what tracing costs when nothing subscribes —
   the disabled path takes no timestamps at all, so the overhead
   should vanish into run-to-run noise (gate: <= 3% on the best of
   [repeats] runs each way). *)
let stage_latency_bench ~topo ~ops =
  section "Request-stage latency (traced serving, unix socket)";
  let module Tel = Wdm_telemetry in
  let make () =
    Backend.Net
      (Network.create
         ~config:
           {
             Network.Config.default with
             telemetry = Some (Tel.Sink.create ());
           }
         ~construction:Network.Msw_dominant ~output_model:Model.MSW topo)
  in
  let sock tag =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wdm_bench_stage_%s_%d.sock" tag (Unix.getpid ()))
  in
  let serve_once ?telemetry tag =
    let srv =
      Server.start_backend ?telemetry ~backend:(make ())
        (Server.Unix_socket (sock tag))
    in
    let client =
      match Client.connect (Server.address srv) with
      | Ok c -> c
      | Error e ->
        Server.stop srv;
        failwith ("stage_latency_bench: " ^ Client.error_to_string e)
    in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun op ->
        match Client.request client (Resp.Admit op) with
        | Ok _ -> ()
        | Error e ->
          failwith ("stage_latency_bench: " ^ Client.error_to_string e))
      ops;
    let dt = Unix.gettimeofday () -. t0 in
    Client.close client;
    Server.stop srv;
    dt
  in
  let repeats = 3 in
  let best f =
    let rec go n acc = if n = 0 then acc else go (n - 1) (min acc (f ())) in
    go (repeats - 1) (f ())
  in
  let dt_off = best (fun () -> serve_once "off") in
  (* a fresh sink per traced run so the reported histograms cover
     exactly one pass of the trace; timing still takes the best run *)
  let last_sink = ref None in
  let dt_on =
    best (fun () ->
        let sink = Tel.Sink.create () in
        last_sink := Some sink;
        serve_once ~telemetry:sink "on")
  in
  let snap =
    match !last_sink with
    | Some sink -> Tel.Sink.snapshot sink
    | None -> assert false
  in
  let requests = Array.length ops in
  let overhead_pct = (dt_on -. dt_off) /. dt_off *. 100. in
  let overhead_ok = overhead_pct <= 3.0 in
  let stage_names =
    [ "decode"; "queue"; "execute"; "wal"; "replicate"; "respond" ]
  in
  let stage_hist name =
    let metric =
      if name = "total" then "server_request_latency_seconds"
      else Printf.sprintf "server_stage_%s_seconds" name
    in
    Tel.Metrics.find_histogram snap metric
  in
  Printf.printf "%-10s %8s %12s %12s %12s\n" "stage" "count" "p50" "p95" "p99";
  let row name =
    match stage_hist name with
    | None -> (name, J.Null)
    | Some h ->
      let q p = Tel.Histogram.quantile h p in
      let show = function
        | Some v -> Printf.sprintf "<=%.1f us" (v *. 1e6)
        | None -> "n/a"
      in
      Printf.printf "%-10s %8d %12s %12s %12s\n" name h.Tel.Histogram.count
        (show (q 0.5)) (show (q 0.95)) (show (q 0.99));
      let num = function Some v -> J.Float v | None -> J.Null in
      ( name,
        J.Obj
          [
            ("count", J.Int h.Tel.Histogram.count);
            ("p50_s", num (q 0.5));
            ("p95_s", num (q 0.95));
            ("p99_s", num (q 0.99));
          ] )
  in
  let stages = List.map row (stage_names @ [ "total" ]) in
  Printf.printf
    "\ntraced  : %d requests in %.3f s  %8.0f requests/s\n" requests dt_on
    (float_of_int requests /. dt_on);
  Printf.printf
    "untraced: %d requests in %.3f s  %8.0f requests/s  (tracing overhead: \
     %.1f%%, best of %d)\n\n"
    requests dt_off
    (float_of_int requests /. dt_off)
    overhead_pct repeats;
  ( "stage_latency",
    J.Obj
      [
        ("requests", J.Int requests);
        ("stages", J.Obj stages);
        ("traced_s", J.Float dt_on);
        ("untraced_s", J.Float dt_off);
        ("overhead_pct", J.Float overhead_pct);
        ("overhead_ok", J.Bool overhead_ok);
      ] )

(* ----------------------------------------------------------------- *)
(* bechamel micro-benchmarks                                          *)
(* ----------------------------------------------------------------- *)

let micro_benchmarks ~quick () =
  section "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let open Toolkit in
  (* Each entry carries the parameters the operation ran at, so the
     machine-readable results identify the instance without parsing the
     display name (schema: EXPERIMENTS.md). *)
  let tests =
    [
      ( [ ("n", 16); ("k", 4) ],
        Test.make ~name:"capacity: MSDW any N=16 k=4"
          (Staged.stage (fun () -> Capacity.msdw_any ~n:16 ~k:4)) );
      ( [ ("n", 64); ("k", 8) ],
        Test.make ~name:"capacity: MAW full N=64 k=8"
          (Staged.stage (fun () -> Capacity.maw_full ~n:64 ~k:8)) );
      ( [ ("n", 2); ("k", 2) ],
        Test.make ~name:"census: MAW N=2 k=2"
          (Staged.stage (fun () ->
               Enumerate.census (Network_spec.make_exn ~n:2 ~k:2) Model.MAW)) );
      ( [ ("n", 16); ("k", 2); ("m", 13) ],
        let topo = Topology.make_exn ~n:4 ~m:13 ~r:4 ~k:2 in
        let net =
          Network.create ~construction:Network.Msw_dominant
            ~output_model:Model.MSW topo
        in
        let conn =
          Connection.make_exn
            ~source:(Endpoint.make ~port:1 ~wl:1)
            ~destinations:
              [
                Endpoint.make ~port:1 ~wl:1;
                Endpoint.make ~port:5 ~wl:1;
                Endpoint.make ~port:9 ~wl:1;
                Endpoint.make ~port:13 ~wl:1;
              ]
        in
        Test.make ~name:"routing: connect+disconnect fanout-4 (N=16)"
          (Staged.stage (fun () ->
               match Network.connect net conn with
               | Ok route -> ignore (Network.disconnect net route.Network.id)
               | Error _ -> assert false)) );
      ( [ ("n", 4); ("k", 2) ],
        let spec = Network_spec.make_exn ~n:4 ~k:2 in
        let fabric = Wdm_crossbar.Fabric.create ~model:Model.MAW spec in
        let rng = Random.State.make [| 7 |] in
        let a = Wdm_traffic.Generator.random_full_assignment rng spec Model.MAW in
        Test.make ~name:"fabric: realize full assignment (Fig 7, N=4 k=2)"
          (Staged.stage (fun () ->
               match Wdm_crossbar.Fabric.realize fabric a with
               | Ok _ -> ()
               | Error _ -> assert false)) );
      ( [ ("n", 64); ("k", 4) ],
        let a =
          Multiset.of_list ~r:64 ~k:4 (List.init 64 (fun i -> (i mod 64) + 1))
        in
        let b =
          Multiset.of_list ~r:64 ~k:4 (List.init 32 (fun i -> (i mod 32) + 1))
        in
        Test.make ~name:"multiset: inter r=64"
          (Staged.stage (fun () -> Multiset.inter a b)) );
      ( [ ("n", 1024) ],
        Test.make ~name:"conditions: Theorem 1 n=r=1024"
          (Staged.stage (fun () -> Conditions.msw_dominant ~n:1024 ~r:1024)) );
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let rows =
    List.concat_map
      (fun (params, test) ->
        let results = Benchmark.all cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let mean_ns =
              match Analyze.OLS.estimates ols_result with
              | Some [ e ] -> Some e
              | _ -> None
            in
            let iterations =
              match Hashtbl.find_opt results name with
              | Some (b : Benchmark.t) -> b.stats.samples
              | None -> 0
            in
            Printf.printf "%-50s %s\n" name
              (match mean_ns with
              | Some e -> Printf.sprintf "%.1f ns/run" e
              | None -> "n/a");
            (name, params, mean_ns, iterations) :: acc)
          analyzed []
        |> List.rev)
      tests
  in
  Printf.printf "\n%d micro-benchmarks measured\n\n" (List.length rows);
  ( "benchmarks",
    J.List
      (List.map
         (fun (name, params, mean_ns, iterations) ->
           J.Obj
             [
               ("name", J.String name);
               ("params", J.Obj (List.map (fun (p, v) -> (p, J.Int v)) params));
               ( "mean_ns",
                 match mean_ns with Some e -> J.Float e | None -> J.Null );
               ("iterations", J.Int iterations);
             ])
         rows) )

(* ----------------------------------------------------------------- *)
(* Mesh RWA blocking probability (Erlang campaign)                    *)
(* ----------------------------------------------------------------- *)

module Campaign = Wdm_mesh.Campaign
module Assign = Wdm_mesh.Assign

(* The graph-based RWA engine priced under load: blocking probability
   vs offered Erlangs across topologies and assignment strategies.
   Cells are seed-reproducible, so the emitted table doubles as a
   regression anchor for the mesh routing stack. *)
let mesh_blocking_bench ~quick () =
  section "Mesh RWA blocking probability (Erlang campaign)";
  let spec = if quick then Campaign.quick else Campaign.default in
  match Campaign.run spec with
  | Error e -> failwith ("mesh_blocking: " ^ e)
  | Ok cells ->
    Format.printf "%a@." Campaign.pp_table cells;
    ( "mesh_blocking",
      J.Obj
        [
          ("seed", J.Int spec.Campaign.seed);
          ("wavelengths", J.Int spec.Campaign.k);
          ("arrivals_per_cell", J.Int spec.Campaign.arrivals);
          ( "cells",
            J.List
              (List.map
                 (fun (c : Campaign.cell) ->
                   let p = c.Campaign.point in
                   J.Obj
                     [
                       ("topo", J.String c.Campaign.topo);
                       ("strategy", J.String c.Campaign.strategy);
                       ("erlangs", J.Float p.Wdm_traffic.Erlang.offered_erlangs);
                       ("arrivals", J.Int p.Wdm_traffic.Erlang.arrivals);
                       ("accepted", J.Int p.Wdm_traffic.Erlang.accepted);
                       ("blocked", J.Int p.Wdm_traffic.Erlang.blocked);
                       ("blocking", J.Float p.Wdm_traffic.Erlang.blocking);
                       ("mean_active", J.Float p.Wdm_traffic.Erlang.mean_active);
                     ])
                 cells) );
        ] )

(* ----------------------------------------------------------------- *)
(* Mesh connect cost per strategy                                     *)
(* ----------------------------------------------------------------- *)

module Mesh_network = Wdm_mesh.Mesh_network

(* The mesh identity goldens' outcome fold (test/test_mesh.ml): the
   route id, wavelength, cost bits and arcs, or the refusal's uncovered
   list.  Kept here rather than taken from the library, so this bench
   also runs against an older engine and the checksums compare. *)
let hash_outcome h outcome =
  let mix = Wdm_core.Strategy.mix in
  match outcome with
  | Ok (r : Mesh_network.route) ->
    let bits = Int64.bits_of_float r.Mesh_network.cost in
    let h = mix (mix (mix h 1) r.Mesh_network.id) r.Mesh_network.wl in
    let h =
      mix
        (mix h (Int64.to_int (Int64.shift_right_logical bits 32)))
        (Int64.to_int (Int64.logand bits 0xffffffffL))
    in
    List.fold_left
      (fun h (a, b, e) -> mix (mix (mix h a) b) e)
      (mix h (List.length r.Mesh_network.arcs))
      r.Mesh_network.arcs
  | Error (Mesh_network.Blocked { uncovered }) ->
    List.fold_left mix (mix (mix h 2) (List.length uncovered)) uncovered
  | Error _ -> mix h 3

let mesh_connect_trials = 3

(* The mesh engine's connect, timed call by call under the serving
   benchmark's mesh-batch traffic (nsf14, 32 wavelengths, 120 Erlangs,
   Zipf fanout <= 8), once per registered strategy with every node
   splitting, and once more first-fit with splitters at the nodes of
   degree >= 3, where refusals still build.  Connects are split by
   outcome because the three cost very differently: an admitted unicast
   tries the pair's Yen paths, an admitted multicast builds a
   light-tree, and a refusal runs out of wavelengths.  The first
   [warmup] arrivals fill the per-pair Yen memo untimed; quantiles are
   exact order statistics of the timed calls.  Each row replays its
   traffic [mesh_connect_trials] times on a fresh network and reports
   the median of each class's mean, with its min and max; the trials
   must agree on the outcome checksum (every outcome, warmup included,
   folded with [hash_outcome]). *)
let mesh_connect_bench ~quick () =
  section "Mesh connect cost per strategy (nsf14, 32 wavelengths, 120 Erlangs)";
  let seed = 1 and offered = 120. and fanout_max = 8 and k = 32 in
  let warmup = if quick then 500 else 2_000 in
  let arrivals = if quick then 4_000 else 30_000 in
  let classes = [ "unicast"; "multicast"; "refused" ] in
  let trial config =
    let net =
      match Mesh_network.create ~config "nsf14" with
      | Ok net -> net
      | Error e -> failwith ("mesh_connect: " ^ e)
    in
    let samples = Array.make 3 [] and calls = ref 0 and checksum = ref 0 in
    let sut =
      {
        Wdm_traffic.Churn.connect =
          (fun c ->
            incr calls;
            let t0 = Monotonic_clock.now () in
            let outcome = Mesh_network.connect net c in
            let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
            checksum := hash_outcome !checksum outcome;
            (if !calls > warmup then
               let cls =
                 match outcome with
                 | Error _ -> 2
                 | Ok _ when List.length c.Connection.destinations = 1 -> 0
                 | Ok _ -> 1
               in
               samples.(cls) <- (ns /. 1e3) :: samples.(cls));
            Result.map (fun r -> r.Mesh_network.id) outcome);
        disconnect = (fun id -> ignore (Mesh_network.disconnect net id));
      }
    in
    ignore
      (Wdm_traffic.Erlang.run
         (Random.State.make [| seed |])
         ~nodes:(Wdm_mesh.Graph.n (Mesh_network.graph net))
         ~fanout:(Wdm_traffic.Fanout.Zipf { max = fanout_max; s = 1.3 })
         ~offered ~arrivals:(warmup + arrivals) sut);
    (samples, !checksum)
  in
  (* count, mean, p50, p99 of one class in one trial *)
  let stats us =
    let a = Array.of_list us in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then (0, 0., 0., 0.)
    else
      let q p = a.(min (n - 1) (int_of_float (p *. float_of_int n))) in
      (n, Array.fold_left ( +. ) 0. a /. float_of_int n, q 0.5, q 0.99)
  in
  let row (name, splitters_name, splitters) =
    let strategy =
      match Assign.strategy_of_string name with
      | Ok s -> s
      | Error e -> failwith ("mesh_connect: " ^ e)
    in
    let config =
      { Mesh_network.Config.default with k; strategy; splitters }
    in
    let trials = List.init mesh_connect_trials (fun _ -> trial config) in
    let checksum = snd (List.hd trials) in
    if List.exists (fun (_, c) -> c <> checksum) trials then
      failwith
        (Printf.sprintf "mesh_connect: %s trials disagree on the outcomes"
           name);
    let total_ms =
      List.map
        (fun (samples, _) ->
          Array.fold_left (List.fold_left ( +. )) 0. samples /. 1e3)
        trials
    in
    let per_class =
      List.mapi
        (fun i cls ->
          let st = List.map (fun (samples, _) -> stats samples.(i)) trials in
          let pick f = List.map f st in
          let means = pick (fun (_, mean, _, _) -> mean) in
          ( cls,
            List.length (fst (List.hd trials)).(i),
            median means,
            List.fold_left min infinity means,
            List.fold_left max 0. means,
            median (pick (fun (_, _, p50, _) -> p50)),
            median (pick (fun (_, _, _, p99) -> p99)) ))
        classes
    in
    List.iter
      (fun (cls, n, mean, lo, hi, p50, p99) ->
        Printf.printf
          "%-12s %-8s %-9s %6d  mean %6.1f [%.1f-%.1f]  p50 %6.1f  p99 %7.1f \
           us\n"
          name splitters_name cls n mean lo hi p50 p99)
      per_class;
    Printf.printf "%-12s %-8s total %.1f ms (median of %d), outcome checksum %d\n"
      name splitters_name (median total_ms) mesh_connect_trials checksum;
    J.Obj
      ([
         ("strategy", J.String name);
         ("splitters", J.String splitters_name);
         ("arrivals", J.Int arrivals);
         ("trials", J.Int mesh_connect_trials);
         ("outcome_checksum", J.Int checksum);
         ("total_ms", J.Float (median total_ms));
         ("total_ms_min", J.Float (List.fold_left min infinity total_ms));
         ("total_ms_max", J.Float (List.fold_left max 0. total_ms));
       ]
      @ List.map
          (fun (cls, n, mean, lo, hi, p50, p99) ->
            ( cls,
              J.Obj
                [
                  ("count", J.Int n);
                  ("mean_us", J.Float mean);
                  ("mean_us_min", J.Float lo);
                  ("mean_us_max", J.Float hi);
                  ("p50_us", J.Float p50);
                  ("p99_us", J.Float p99);
                ] ))
          per_class)
  in
  let rows =
    List.map row
      (List.map
         (fun name -> (name, "all", Mesh_network.Split_all))
         (Assign.plugin_names ())
      @ [ ("first-fit", "degree:3", Mesh_network.Split_degree_ge 3) ])
  in
  ( "mesh_connect",
    J.Obj
      [
        ("topo", J.String "nsf14");
        ("wavelengths", J.Int k);
        ("erlangs", J.Float offered);
        ("fanout_max", J.Int fanout_max);
        ("seed", J.Int seed);
        ("warmup", J.Int warmup);
        ("rows", J.List rows);
      ] )

(* ----------------------------------------------------------------- *)
(* Strategy racing (plug-in lab)                                      *)
(* ----------------------------------------------------------------- *)

module Lab_compare = Wdm_lab.Compare

(* Every registered lab strategy raced over identical per-workload
   seeded traffic on both engines — the acceptance table for the
   routing-strategy plug-in API.  The per-cell RNG never sees the
   strategy, so any cell reproduces on its own. *)
let strategy_compare_bench ~quick () =
  section "Strategy racing (plug-in lab)";
  let spec = if quick then Lab_compare.quick else Lab_compare.default in
  match Lab_compare.run spec with
  | Error e -> failwith ("strategy_compare: " ^ e)
  | Ok cells ->
    Format.printf "%a@." Lab_compare.pp_table cells;
    ( "strategy_compare",
      J.Obj
        [
          ("seed", J.Int spec.Lab_compare.seed);
          ( "strategies",
            J.List
              (List.map (fun s -> J.String s) spec.Lab_compare.strategies) );
          ( "cells",
            J.List
              (List.map
                 (fun (c : Lab_compare.cell) ->
                   J.Obj
                     [
                       ("engine", J.String c.Lab_compare.engine);
                       ("workload", J.String c.Lab_compare.workload);
                       ("strategy", J.String c.Lab_compare.strategy);
                       ("attempts", J.Int c.Lab_compare.attempts);
                       ("accepted", J.Int c.Lab_compare.accepted);
                       ("blocked", J.Int c.Lab_compare.blocked);
                       ("blocking", J.Float c.Lab_compare.blocking);
                       ("mean_connect_us", J.Float c.Lab_compare.mean_connect_us);
                     ])
                 cells) );
        ] )

(* The first line a shell command prints, when it exits 0. *)
let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None)

(* The commit checked out where the bench runs, "-dirty" when the
   engine's or the bench's source differs from it; "unknown" outside a
   git checkout. *)
let commit () =
  match command_line "git rev-parse --short HEAD" with
  | None -> "unknown"
  | Some h ->
    if Sys.command "git diff --quiet HEAD -- lib bin bench 2>/dev/null" = 0
    then h
    else h ^ "-dirty"

(* Online vCPUs, and the CPU model when /proc/cpuinfo is readable. *)
let host () =
  let vcpus =
    Option.value ~default:0
      (Option.bind (command_line "getconf _NPROCESSORS_ONLN") int_of_string_opt)
  in
  let model =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
          try Scanf.sscanf line "model name : %[^\n]" Option.some
          with Scanf.Scan_failure _ | End_of_file -> scan ())
      in
      let model = scan () in
      close_in ic;
      model
  in
  J.Obj
    (("vcpus", J.Int vcpus)
    :: (match model with Some m -> [ ("model", J.String m) ] | None -> []))

(* The build the numbers came from: the profile decides what the
   compiler inlines across modules, so a dev-profile number is not
   comparable with a release-profile one; the commit and the host say
   which code ran where. *)
let build_info () =
  ( "build",
    J.Obj
      [
        ("ocaml", J.String Sys.ocaml_version);
        ("profile", J.String Build_profile.profile);
        ("commit", J.String (commit ()));
        ("host", host ());
      ] )

let write_results fragments =
  let fragments = build_info () :: fragments in
  let oc = open_out "BENCH_results.json" in
  output_string oc (J.to_string (J.Obj fragments));
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote BENCH_results.json (%s)\n"
    (String.concat ", " (List.map fst fragments))

(* ----------------------------------------------------------------- *)
(* Schema validation (CI gate on BENCH_results.json)                  *)
(* ----------------------------------------------------------------- *)

let validate_results path =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) = Result.bind in
  let read () =
    let ic = open_in path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  in
  let require what = function Some v -> Ok v | None -> fail "missing %s" what in
  let number what j =
    match J.to_float_opt j with
    | Some _ -> Ok ()
    | None -> fail "%s is not a number" what
  in
  let check_benchmark i j =
    let ctx = Printf.sprintf "benchmarks[%d]" i in
    let* name = require (ctx ^ ".name") (J.member "name" j) in
    let* _ =
      match J.to_string_opt name with
      | Some _ -> Ok ()
      | None -> fail "%s.name is not a string" ctx
    in
    let* params = require (ctx ^ ".params") (J.member "params" j) in
    let* _ =
      match params with
      | J.Obj _ -> Ok ()
      | _ -> fail "%s.params is not an object" ctx
    in
    let* mean = require (ctx ^ ".mean_ns") (J.member "mean_ns" j) in
    let* _ =
      match mean with J.Null -> Ok () | j -> number (ctx ^ ".mean_ns") j
    in
    let* iters = require (ctx ^ ".iterations") (J.member "iterations" j) in
    match J.to_int iters with
    | Some _ -> Ok ()
    | None -> fail "%s.iterations is not an int" ctx
  in
  let positive what j =
    match J.to_float_opt j with
    | Some v when v > 0. -> Ok ()
    | Some v -> fail "%s %g is not positive" what v
    | None -> fail "%s is not a number" what
  in
  let result =
    let* doc =
      match J.parse (read ()) with
      | Ok d -> Ok d
      | Error e -> fail "JSON parse error: %s" e
    in
    let* build = require "build" (J.member "build" doc) in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match Option.bind (J.member key build) J.to_string_opt with
              | Some v when v <> "" -> Ok ()
              | _ -> fail "build.%s is not a non-empty string" key))
        (Ok ()) [ "ocaml"; "profile"; "commit" ]
    in
    let* host = require "build.host" (J.member "host" build) in
    let* () =
      match Option.bind (J.member "vcpus" host) J.to_int with
      | Some n when n >= 1 -> Ok ()
      | Some n -> fail "build.host.vcpus %d: need at least 1" n
      | None -> fail "build.host.vcpus is not an int"
    in
    let* () =
      match J.member "model" host with
      | None -> Ok ()
      | Some m when J.to_string_opt m <> None -> Ok ()
      | Some _ -> fail "build.host.model is not a string"
    in
    let* benches = require "benchmarks" (J.member "benchmarks" doc) in
    let* benches =
      require "benchmarks as a list" (J.to_list benches)
    in
    let* () =
      List.fold_left
        (fun acc (i, b) -> Result.bind acc (fun () -> check_benchmark i b))
        (Ok ())
        (List.mapi (fun i b -> (i, b)) benches)
    in
    let* rt = require "routing_throughput" (J.member "routing_throughput" doc) in
    let* params = require "routing_throughput.params" (J.member "params" rt) in
    let param key = Option.bind (J.member key params) J.to_int in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match param key with
              | Some _ -> Ok ()
              | None -> fail "routing_throughput.params.%s missing" key))
        (Ok ())
        [ "big_n"; "n"; "r"; "k"; "m"; "connect_ops"; "total_ops" ]
    in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              let what = "routing_throughput." ^ key in
              let* j = require what (J.member key rt) in
              positive what j))
        (Ok ())
        [ "elapsed_s"; "connects_per_s"; "connects_per_s_min";
          "connects_per_s_max" ]
    in
    let* () =
      let cps key = Option.bind (J.member key rt) J.to_float_opt in
      match
        ( Option.bind (J.member "trials" rt) J.to_int,
          cps "connects_per_s_min",
          cps "connects_per_s",
          cps "connects_per_s_max" )
      with
      | Some n, _, _, _ when n < 5 ->
        fail "routing_throughput.trials %d: need at least 5" n
      | Some _, Some lo, Some mid, Some hi when lo <= mid && mid <= hi -> Ok ()
      | Some _, Some lo, Some mid, Some hi ->
        fail "routing_throughput: connects_per_s %g is outside [min %g, max %g]"
          mid lo hi
      | _ -> fail "routing_throughput.trials is not an int"
    in
    let* () =
      match
        ( Option.bind (J.member "accepted" rt) J.to_int,
          param "connect_ops" )
      with
      | Some a, Some c when a >= 0 && a <= c -> Ok ()
      | Some a, Some c ->
        fail "routing_throughput.accepted %d is outside 0..connect_ops %d" a c
      | _ -> fail "routing_throughput.accepted is not an int"
    in
    let* () =
      match Option.bind (J.member "route_checksum" rt) J.to_int with
      | Some _ -> Ok ()
      | None -> fail "routing_throughput.route_checksum is not an int"
    in
    let* rearr =
      require "routing_throughput.rearrangement" (J.member "rearrangement" rt)
    in
    let* _ = require "rearrangement as a list" (J.to_list rearr) in
    let* persist = require "persistence" (J.member "persistence" doc) in
    let* wal = require "persistence.wal" (J.member "wal" persist) in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match J.member key wal with
              | Some j -> number (Printf.sprintf "persistence.wal.%s" key) j
              | None -> fail "persistence.wal.%s missing" key))
        (Ok ())
        [ "records"; "bytes"; "trials"; "elapsed_s"; "baseline_s";
          "overhead_pct" ]
    in
    let* () =
      match Option.bind (J.member "trials" wal) J.to_int with
      | Some n when n >= 5 -> Ok ()
      | Some n -> fail "persistence.wal.trials %d: need at least 5 pairs" n
      | None -> fail "persistence.wal.trials is not an int"
    in
    let* snap = require "persistence.snapshot" (J.member "snapshot" persist) in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match J.member key snap with
              | Some j -> number (Printf.sprintf "persistence.snapshot.%s" key) j
              | None -> fail "persistence.snapshot.%s missing" key))
        (Ok ())
        [ "bytes"; "routes"; "write_ms"; "restore_ms" ]
    in
    let* recov = require "persistence.recovery" (J.member "recovery" persist) in
    let* dm =
      require "persistence.recovery.digest_match" (J.member "digest_match" recov)
    in
    let* () =
      match dm with
      | J.Bool true -> Ok ()
      | J.Bool false -> fail "recovery.digest_match is false: recovery diverged"
      | _ -> fail "recovery.digest_match is not a bool"
    in
    let* serving = require "serving" (J.member "serving" doc) in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match J.member key serving with
              | Some j -> number (Printf.sprintf "serving.%s" key) j
              | None -> fail "serving.%s missing" key))
        (Ok ())
        [
          "requests";
          "elapsed_s";
          "requests_per_s";
          "pipelined_requests_per_s";
          "pipelined_slowdown";
          "idle_conns";
          "inproc_ops_per_s";
          "slowdown";
        ]
    in
    let* sdm = require "serving.digest_match" (J.member "digest_match" serving) in
    let* () =
      match sdm with
      | J.Bool true -> Ok ()
      | J.Bool false ->
        fail "serving.digest_match is false: served state diverged"
      | _ -> fail "serving.digest_match is not a bool"
    in
    let* stages = require "stage_latency" (J.member "stage_latency" doc) in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match J.member key stages with
              | Some j -> number (Printf.sprintf "stage_latency.%s" key) j
              | None -> fail "stage_latency.%s missing" key))
        (Ok ())
        [ "requests"; "traced_s"; "untraced_s"; "overhead_pct" ]
    in
    let* ook =
      require "stage_latency.overhead_ok" (J.member "overhead_ok" stages)
    in
    let* () =
      match ook with
      | J.Bool _ -> Ok ()
      | _ -> fail "stage_latency.overhead_ok is not a bool"
    in
    let* sobj = require "stage_latency.stages" (J.member "stages" stages) in
    let* () =
      List.fold_left
        (fun acc stage ->
          Result.bind acc (fun () ->
              let ctx = Printf.sprintf "stage_latency.stages.%s" stage in
              let* s = require ctx (J.member stage sobj) in
              let* count = require (ctx ^ ".count") (J.member "count" s) in
              let* () =
                match J.to_int count with
                | Some _ -> Ok ()
                | None -> fail "%s.count is not an int" ctx
              in
              List.fold_left
                (fun acc key ->
                  Result.bind acc (fun () ->
                      match J.member key s with
                      | Some J.Null -> Ok ()  (* empty histogram *)
                      | Some j -> number (Printf.sprintf "%s.%s" ctx key) j
                      | None -> fail "%s.%s missing" ctx key))
                (Ok ())
                [ "p50_s"; "p95_s"; "p99_s" ]))
        (Ok ())
        [ "decode"; "queue"; "execute"; "wal"; "replicate"; "respond"; "total" ]
    in
    let* repl = require "replication" (J.member "replication" doc) in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match J.member key repl with
              | Some j -> number (Printf.sprintf "replication.%s" key) j
              | None -> fail "replication.%s missing" key))
        (Ok ())
        [
          "requests"; "standalone_requests_per_s"; "replicated_requests_per_s";
          "overhead_pct"; "follower_lag_ops"; "catchup_s";
        ]
    in
    let* rdm =
      require "replication.digest_match" (J.member "digest_match" repl)
    in
    let* () =
      match rdm with
      | J.Bool true -> Ok ()
      | J.Bool false ->
        fail "replication.digest_match is false: the follower diverged"
      | _ -> fail "replication.digest_match is not a bool"
    in
    let* mesh = require "mesh_blocking" (J.member "mesh_blocking" doc) in
    let* () =
      List.fold_left
        (fun acc key ->
          Result.bind acc (fun () ->
              match Option.bind (J.member key mesh) J.to_int with
              | Some _ -> Ok ()
              | None -> fail "mesh_blocking.%s missing" key))
        (Ok ())
        [ "seed"; "wavelengths"; "arrivals_per_cell" ]
    in
    let* cells = require "mesh_blocking.cells" (J.member "cells" mesh) in
    let* cells = require "mesh_blocking.cells as a list" (J.to_list cells) in
    let check_cell i j =
      let ctx = Printf.sprintf "mesh_blocking.cells[%d]" i in
      let* () =
        List.fold_left
          (fun acc key ->
            Result.bind acc (fun () ->
                match Option.bind (J.member key j) J.to_string_opt with
                | Some _ -> Ok ()
                | None -> fail "%s.%s is not a string" ctx key))
          (Ok ())
          [ "topo"; "strategy" ]
      in
      let* () =
        List.fold_left
          (fun acc key ->
            Result.bind acc (fun () ->
                match Option.bind (J.member key j) J.to_int with
                | Some _ -> Ok ()
                | None -> fail "%s.%s is not an int" ctx key))
          (Ok ())
          [ "arrivals"; "accepted"; "blocked" ]
      in
      let* () =
        List.fold_left
          (fun acc key ->
            Result.bind acc (fun () ->
                match J.member key j with
                | Some v -> number (Printf.sprintf "%s.%s" ctx key) v
                | None -> fail "%s.%s missing" ctx key))
          (Ok ())
          [ "erlangs"; "blocking"; "mean_active" ]
      in
      let* () =
        match Option.bind (J.member "blocking" j) J.to_float_opt with
        | Some pb when pb >= 0. && pb <= 1. -> Ok ()
        | Some pb -> fail "%s.blocking %.3f outside [0,1]" ctx pb
        | None -> fail "%s.blocking is not a number" ctx
      in
      let geti key = Option.bind (J.member key j) J.to_int in
      match (geti "arrivals", geti "accepted", geti "blocked") with
      | Some a, Some ok, Some b when a = ok + b -> Ok ()
      | Some a, Some ok, Some b ->
        fail "%s: arrivals %d <> accepted %d + blocked %d" ctx a ok b
      | _ -> fail "%s: arrival counts are not ints" ctx
    in
    let* () =
      List.fold_left
        (fun acc (i, j) -> Result.bind acc (fun () -> check_cell i j))
        (Ok ())
        (List.mapi (fun i j -> (i, j)) cells)
    in
    let distinct key =
      List.sort_uniq compare
        (List.filter_map
           (fun j -> Option.bind (J.member key j) J.to_string_opt)
           cells)
    in
    let* () =
      if List.length (distinct "topo") >= 2 then Ok ()
      else fail "mesh_blocking must cover at least 2 topologies"
    in
    let* () =
      if List.length (distinct "strategy") >= 2 then Ok ()
      else fail "mesh_blocking must cover at least 2 assignment strategies"
    in
    let* cmp = require "strategy_compare" (J.member "strategy_compare" doc) in
    let* () =
      match Option.bind (J.member "seed" cmp) J.to_int with
      | Some _ -> Ok ()
      | None -> fail "strategy_compare.seed missing"
    in
    let* ccells = require "strategy_compare.cells" (J.member "cells" cmp) in
    let* ccells =
      require "strategy_compare.cells as a list" (J.to_list ccells)
    in
    let check_compare_cell i j =
      let ctx = Printf.sprintf "strategy_compare.cells[%d]" i in
      let* () =
        List.fold_left
          (fun acc key ->
            Result.bind acc (fun () ->
                match Option.bind (J.member key j) J.to_string_opt with
                | Some _ -> Ok ()
                | None -> fail "%s.%s is not a string" ctx key))
          (Ok ())
          [ "engine"; "workload"; "strategy" ]
      in
      let* () =
        match Option.bind (J.member "mean_connect_us" j) J.to_float_opt with
        | Some us when us >= 0. -> Ok ()
        | Some us -> fail "%s.mean_connect_us %.1f is negative" ctx us
        | None -> fail "%s.mean_connect_us is not a number" ctx
      in
      let* () =
        match Option.bind (J.member "blocking" j) J.to_float_opt with
        | Some pb when pb >= 0. && pb <= 1. -> Ok ()
        | Some pb -> fail "%s.blocking %.3f outside [0,1]" ctx pb
        | None -> fail "%s.blocking is not a number" ctx
      in
      let geti key = Option.bind (J.member key j) J.to_int in
      match (geti "attempts", geti "accepted", geti "blocked") with
      | Some a, Some ok, Some b when a = ok + b -> Ok ()
      | Some a, Some ok, Some b ->
        fail "%s: attempts %d <> accepted %d + blocked %d" ctx a ok b
      | _ -> fail "%s: attempt counts are not ints" ctx
    in
    let* () =
      List.fold_left
        (fun acc (i, j) -> Result.bind acc (fun () -> check_compare_cell i j))
        (Ok ())
        (List.mapi (fun i j -> (i, j)) ccells)
    in
    let distinct_cmp key =
      List.sort_uniq compare
        (List.filter_map
           (fun j -> Option.bind (J.member key j) J.to_string_opt)
           ccells)
    in
    let* () =
      if List.length (distinct_cmp "strategy") >= 2 then Ok ()
      else fail "strategy_compare must race at least 2 strategies"
    in
    let* () =
      if List.length (distinct_cmp "workload") >= 2 then Ok ()
      else fail "strategy_compare must cover at least 2 workloads"
    in
    let* () =
      if List.length (distinct_cmp "engine") >= 2 then Ok ()
      else fail "strategy_compare must exercise both engines"
    in
    let* mc = require "mesh_connect" (J.member "mesh_connect" doc) in
    let* mrows = require "mesh_connect.rows" (J.member "rows" mc) in
    let* mrows = require "mesh_connect.rows as a list" (J.to_list mrows) in
    (* lo <= mid <= hi, all numbers, all positive unless [zero_ok] *)
    let spread ctx j ~zero_ok (mid, lo, hi) =
      let get key =
        match Option.bind (J.member key j) J.to_float_opt with
        | Some v when v > 0. || zero_ok -> Ok v
        | Some v -> fail "%s.%s %.3f is not positive" ctx key v
        | None -> fail "%s.%s is not a number" ctx key
      in
      let* m = get mid in
      let* l = get lo in
      let* h = get hi in
      if l <= m && m <= h then Ok ()
      else fail "%s.%s %g is outside [%s %g, %s %g]" ctx mid m lo l hi h
    in
    let check_connect_row i j =
      let ctx = Printf.sprintf "mesh_connect.rows[%d]" i in
      let* () =
        List.fold_left
          (fun acc key ->
            let* () = acc in
            match Option.bind (J.member key j) J.to_string_opt with
            | Some _ -> Ok ()
            | None -> fail "%s.%s is not a string" ctx key)
          (Ok ()) [ "strategy"; "splitters" ]
      in
      let* () =
        match Option.bind (J.member "trials" j) J.to_int with
        | Some n when n >= 3 -> Ok ()
        | Some n -> fail "%s.trials %d: need at least 3" ctx n
        | None -> fail "%s.trials is not an int" ctx
      in
      let* () =
        match Option.bind (J.member "outcome_checksum" j) J.to_int with
        | Some _ -> Ok ()
        | None -> fail "%s.outcome_checksum is not an int" ctx
      in
      let* () =
        spread ctx j ~zero_ok:false ("total_ms", "total_ms_min", "total_ms_max")
      in
      let* arrivals =
        require (ctx ^ ".arrivals") (Option.bind (J.member "arrivals" j) J.to_int)
      in
      let* counted =
        List.fold_left
          (fun acc cls ->
            let* sum = acc in
            let cctx = Printf.sprintf "%s.%s" ctx cls in
            let* c = require cctx (J.member cls j) in
            let* n =
              require (cctx ^ ".count")
                (Option.bind (J.member "count" c) J.to_int)
            in
            let* () =
              List.fold_left
                (fun acc key ->
                  let* () = acc in
                  match Option.bind (J.member key c) J.to_float_opt with
                  | Some us when us > 0. || n = 0 -> Ok ()
                  | Some us -> fail "%s.%s %.3f is not positive" cctx key us
                  | None -> fail "%s.%s is not a number" cctx key)
                (Ok ())
                [ "mean_us"; "p50_us"; "p99_us" ]
            in
            let* () =
              spread cctx c ~zero_ok:(n = 0)
                ("mean_us", "mean_us_min", "mean_us_max")
            in
            Ok (sum + n))
          (Ok 0)
          [ "unicast"; "multicast"; "refused" ]
      in
      if counted = arrivals then Ok ()
      else
        fail "%s: arrivals %d <> unicast + multicast + refused %d" ctx arrivals
          counted
    in
    let* () =
      List.fold_left
        (fun acc (i, j) -> Result.bind acc (fun () -> check_connect_row i j))
        (Ok ())
        (List.mapi (fun i j -> (i, j)) mrows)
    in
    let* () =
      let names =
        List.sort_uniq compare
          (List.filter_map
             (fun j -> Option.bind (J.member "strategy" j) J.to_string_opt)
             mrows)
      in
      if List.length names >= 5 then Ok ()
      else fail "mesh_connect must time at least 5 strategies"
    in
    let* () =
      (* both sides of the refusal gate: every node splitting, and not *)
      let split =
        List.filter_map
          (fun j -> Option.bind (J.member "splitters" j) J.to_string_opt)
          mrows
      in
      if List.mem "all" split && List.exists (fun s -> s <> "all") split then
        Ok ()
      else fail "mesh_connect must time splitters \"all\" and a sparse set"
    in
    Ok (List.length benches)
  in
  match result with
  | Ok nb -> Printf.printf "%s: schema ok (%d micro-benchmarks)\n" path nb
  | Error e ->
    Printf.eprintf "%s: schema violation: %s\n" path e;
    exit 1

let full () =
  table1 ();
  table2 ();
  fabric_census ();
  power_budget ();
  crosstalk_margin ();
  theorem_sweeps ();
  crossover ();
  capacity_growth ();
  fig10 ();
  blocking ();
  x_limit_ablation ();
  fault_tolerance ();
  sparse_conversion ();
  recursive_stages ();
  recursive_routing ();
  fig3_converters ();
  frontier ();
  exact_frontier ();
  blocking_vs_load ();
  let rt, (topo, ops, dt) = routing_throughput ~quick:false () in
  let persist = persistence_bench ~topo ~ops in
  let serving = serving_bench ~topo ~ops ~dt_baseline:dt in
  let stages = stage_latency_bench ~topo ~ops in
  let repl = replication_bench ~topo ~ops in
  let micro = micro_benchmarks ~quick:false () in
  let meshb = mesh_blocking_bench ~quick:false () in
  let meshc = mesh_connect_bench ~quick:false () in
  let cmp = strategy_compare_bench ~quick:false () in
  write_results [ micro; rt; persist; serving; stages; repl; meshb; meshc; cmp ];
  print_endline "All reproduction sections completed."

(* --quick runs just the machine-readable sections at reduced sizes —
   the CI profile: fast enough for every push, still ends with a
   BENCH_results.json that --validate can gate on. *)
let quick () =
  let rt, (topo, ops, dt) = routing_throughput ~quick:true () in
  let persist = persistence_bench ~topo ~ops in
  let serving = serving_bench ~topo ~ops ~dt_baseline:dt in
  let stages = stage_latency_bench ~topo ~ops in
  let repl = replication_bench ~topo ~ops in
  let micro = micro_benchmarks ~quick:true () in
  let meshb = mesh_blocking_bench ~quick:true () in
  let meshc = mesh_connect_bench ~quick:true () in
  let cmp = strategy_compare_bench ~quick:true () in
  write_results [ micro; rt; persist; serving; stages; repl; meshb; meshc; cmp ];
  print_endline "Quick bench profile completed."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--quick" :: _ -> quick ()
  | _ :: "--validate" :: path :: _ -> validate_results path
  | _ :: "--validate" :: [] -> validate_results "BENCH_results.json"
  | _ -> full ()
