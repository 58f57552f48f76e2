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
        ignore (Network.inject_fault net (Wdm_faults.Fault.Middle j))
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
      let eval = Conditions.evaluate construction ~n ~r:n ~k in
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
module Resp = Wdm_persist.Resp

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
   the copies happen outside the timed region).  [None] when the churn
   never blocks: there is no probe to time. *)
let rearrangement_latency ~iters (n, k, m, strategy) =
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
  Option.map
    (fun (probe, blocked_state) ->
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
      (!total /. float_of_int iters *. 1e6, !admitted, !moves))
    !snapshot

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
  (* every case under both strategies, so each (n, k, m) compares them *)
  let cases =
    List.concat_map
      (fun (n, k, m) ->
        List.map (fun s -> (n, k, m, s)) [ "min-intersection"; "first-fit" ])
      [ (3, 1, 3); (4, 2, 8) ]
  in
  let rows =
    List.map
      (fun case ->
        (case, rearrangement_latency ~iters:(if quick then 100 else 1000) case))
      cases
  in
  List.iter
    (fun ((n, k, m, strategy), timing) ->
      Printf.printf "N=%-3d k=%d m=%-2d %-17s %s\n" (n * n) k m strategy
        (match timing with
        | None -> "never blocked"
        | Some (mean_us, admitted, moves) ->
          Printf.sprintf "%8.1f us/call  %s (moves: %d)" mean_us
            (if admitted then "admitted" else "still blocked")
            moves))
    rows;
  print_newline ();
  let rearrangement_row ((n, k, m, strategy), timing) =
    let blocked, mean_us, admitted, moves =
      match timing with
      | None -> (false, J.Null, J.Null, J.Null)
      | Some (mean_us, admitted, moves) ->
        (true, J.Float mean_us, J.Bool admitted, J.Int moves)
    in
    J.Obj
      [
        ("n", J.Int n);
        ("k", J.Int k);
        ("m", J.Int m);
        ("strategy", J.String strategy);
        ("blocked", J.Bool blocked);
        ("mean_us", mean_us);
        ("admitted", admitted);
        ("moves", moves);
      ]
  in
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
        ("rearrangement", J.List (List.map rearrangement_row rows));
      ] ),
    (topo, ops) )

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
    ("mesh_blocking", Campaign.to_json spec cells)

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
(* Codec: the byte layer under every served frame                     *)
(* ----------------------------------------------------------------- *)

module Wire = Wdm_persist.Wire
module Wal = Wdm_persist.Wal
module Crc32 = Wdm_persist.Crc32

let codec_trials = 5

(* One request/response exchange as perfbench serves it: the request,
   the response the engine gave it, and the ops the server logs. *)
type exchange = {
  x_name : string;
  request : Resp.request;
  response : Resp.t;
  logged : Op.t list;
}

let exchange x_name pairs =
  let request, response =
    match pairs with
    | [ (q, a) ] -> (q, a)
    | _ ->
      ( Resp.Batch (List.map fst pairs),
        Resp.Batch_reply (List.map snd pairs) )
  in
  {
    x_name;
    request;
    response;
    logged = List.filter_map (fun (q, a) -> Resp.committed q a) pairs;
  }

(* mesh-batch's frame: nsf14, 32 wavelengths, first-fit, Erlang traffic
   at 120 E with Zipf fanout <= 8; the 64 requests that follow a
   2,000-request warm-up, executed as the server executes them. *)
let mesh_batch_exchange () =
  let net =
    match
      Mesh_network.create
        ~config:{ Mesh_network.Config.default with k = 32 }
        "nsf14"
    with
    | Ok m -> m
    | Error e -> failwith ("codec: " ^ e)
  in
  let backend = Backend.Mesh net in
  let warmup = 2_000 and seen = ref 0 and frame = ref [] in
  let exec req =
    let resp = Resp.execute_backend backend req in
    incr seen;
    if !seen > warmup then frame := (req, resp) :: !frame;
    if List.length !frame = 64 then raise Exit;
    resp
  in
  let sut =
    {
      Wdm_traffic.Churn.connect =
        (fun c ->
          match exec (Resp.Admit (Op.Connect c)) with
          | Resp.Admitted { route; _ } -> Ok route.Network.id
          | _ -> Error ());
      disconnect = (fun id -> ignore (exec (Resp.Admit (Op.Disconnect id))));
    }
  in
  (try
     ignore
       (Wdm_traffic.Erlang.run
          (Random.State.make [| 1 |])
          ~nodes:(Wdm_mesh.Graph.n (Mesh_network.graph net))
          ~fanout:(Wdm_traffic.Fanout.Zipf { max = 8; s = 1.3 })
          ~offered:120. ~arrivals:max_int sut)
   with Exit -> ());
  exchange "mesh-batch" (List.rev !frame)

(* ms-seq's frame: one admitted connect on the N = 1024 fabric, halfway
   through the recorded churn trace. *)
let ms_seq_exchange ~topo ops =
  let backend =
    Backend.Net
      (Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
         topo)
  in
  let half = Array.length ops / 2 in
  let rec find i =
    let req = Resp.Admit ops.(i) in
    let resp = Resp.execute_backend backend req in
    match resp with
    | Resp.Admitted _ when i >= half -> exchange "ms-seq" [ (req, resp) ]
    | _ -> find (i + 1)
  in
  find 0

(* [iters] calls of [f] after one untimed call, timed, with the words
   they allocated on the minor heap and directly on the major heap (the
   words a minor collection promotes were allocated minor, so they are
   not counted twice).  The reads nest so that no reading allocates
   inside another's window: [Gc.minor_words] allocates nothing. *)
let measure iters f =
  f ();
  let _, promoted0, major0 = Gc.counters () in
  let t0 = Monotonic_clock.now () in
  let minor0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let minor1 = Gc.minor_words () in
  let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
  let _, promoted1, major1 = Gc.counters () in
  let per x = x /. float_of_int iters in
  ( per ns,
    per (minor1 -. minor0),
    per (major1 -. promoted1 -. (major0 -. promoted0)) )

let spread xs =
  J.Obj
    [
      ("median", J.Float (median xs));
      ("min", J.Float (List.fold_left min infinity xs));
      ("max", J.Float (List.fold_left max 0. xs));
    ]

(* Median, min and max over the trials of the time per frame and per
   byte; the median of the allocation counts (they repeat exactly). *)
let stage_json ~bytes trials =
  let ns = List.map (fun (ns, _, _) -> ns) trials in
  J.Obj
    [
      ("ns_per_frame", spread ns);
      ( "ns_per_byte",
        spread (List.map (fun ns -> ns /. float_of_int bytes) ns) );
      ("minor_words", J.Float (median (List.map (fun (_, w, _) -> w) trials)));
      ("major_words", J.Float (median (List.map (fun (_, _, w) -> w) trials)));
    ]

(* Per exchange: the server's encode + frame of the response through
   its reused scratch buffer; the client's CRC check + decode of that
   frame; the WAL append of the ops it logs under [Buffered], which
   leaves the codec and the channel; and the CRC alone over the
   response payload. *)
let codec_row ~quick x =
  let scratch = Buffer.create 4096 in
  let encode () = Wire.frame_with scratch Resp.encode x.response in
  let framed = encode () in
  let request_bytes =
    String.length
      (Wire.frame_with (Buffer.create 64) Resp.encode_request x.request)
  in
  let bytes = String.length framed in
  let iters = max 1 ((if quick then 4_000_000 else 16_000_000) / bytes) in
  let decode () =
    match Wire.read_frame framed ~pos:0 with
    | Wire.Frame { payload; _ } -> (
      match Resp.decode_string payload with
      | Ok _ -> ()
      | Error e -> failwith ("codec: " ^ e))
    | _ -> failwith "codec: the frame does not read back"
  in
  let payload_len = bytes - 8 in
  let crc () = ignore (Crc32.update 0 framed ~pos:8 ~len:payload_len) in
  let wal_path = "bench_codec.wal" in
  let wal_bytes = ref 0 in
  let wal_trial () =
    let w = Wal.create ~policy:Wal.Buffered wal_path in
    let start = Wal.tell w in
    let r = measure iters (fun () -> List.iter (Wal.append w) x.logged) in
    wal_bytes := (Wal.tell w - start) / (iters + 1);
    Wal.close w;
    Sys.remove wal_path;
    r
  in
  let trials f = List.init codec_trials (fun _ -> measure iters f) in
  let enc = trials (fun () -> ignore (encode ())) in
  let dec = trials decode in
  let crc_t = trials crc in
  let wal = List.init codec_trials (fun _ -> wal_trial ()) in
  let show what l =
    let pick f = median (List.map f l) in
    Printf.sprintf "%s %.0f ns (%.0f minor + %.0f major words)" what
      (pick (fun (ns, _, _) -> ns))
      (pick (fun (_, w, _) -> w))
      (pick (fun (_, _, w) -> w))
  in
  Printf.printf "%-10s %5d B  %s  %s  CRC %.2f ns/B  %s\n" x.x_name bytes
    (show "encode+frame" enc) (show "check+decode" dec)
    (median (List.map (fun (ns, _, _) -> ns) crc_t) /. float_of_int payload_len)
    (show (Printf.sprintf "WAL %d records" (List.length x.logged)) wal);
  J.Obj
    [
      ("name", J.String x.x_name);
      ( "requests",
        J.Int (match x.request with Resp.Batch l -> List.length l | _ -> 1) );
      ("request_bytes", J.Int request_bytes);
      ("response_bytes", J.Int bytes);
      ("iterations", J.Int iters);
      ("encode", stage_json ~bytes enc);
      ("decode", stage_json ~bytes dec);
      ( "crc",
        J.Obj
          [
            ( "ns_per_byte",
              spread
                (List.map
                   (fun (ns, _, _) -> ns /. float_of_int payload_len)
                   crc_t) );
          ] );
      ("wal_records", J.Int (List.length x.logged));
      ("wal_append", stage_json ~bytes:(max 1 !wal_bytes) wal);
    ]

let codec_bench ~quick ~topo ~ops =
  section "Codec (encode + frame, CRC check + decode, WAL append)";
  let rows =
    List.map (codec_row ~quick)
      [ mesh_batch_exchange (); ms_seq_exchange ~topo ops ]
  in
  print_newline ();
  ("codec", J.Obj [ ("trials", J.Int codec_trials); ("inputs", J.List rows) ])

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
    ("strategy_compare", Lab_compare.to_json spec cells)

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

(* The schema gate on a results file (the table lives in schema.ml). *)
let validate_results path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Result.bind (J.parse text) Schema.check with
  | Ok () -> Printf.printf "%s: schema ok\n" path
  | Error e ->
    Printf.eprintf "%s: schema violation: %s\n" path e;
    exit 1

(* The machine-readable sections, in the order they run; --quick runs
   them at reduced sizes. *)
let ledger ~quick =
  let rt, (topo, ops) = routing_throughput ~quick () in
  let persist = persistence_bench ~topo ~ops in
  let micro = micro_benchmarks ~quick () in
  let meshb = mesh_blocking_bench ~quick () in
  let meshc = mesh_connect_bench ~quick () in
  let codec = codec_bench ~quick ~topo ~ops in
  let cmp = strategy_compare_bench ~quick () in
  write_results [ micro; rt; persist; meshb; meshc; codec; cmp ]

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
  ledger ~quick:false;
  print_endline "All reproduction sections completed."

(* --quick runs just the machine-readable sections at reduced sizes —
   the CI profile: fast enough for every push, still ends with a
   BENCH_results.json that --validate can gate on. *)
let quick () =
  ledger ~quick:true;
  print_endline "Quick bench profile completed."

let () =
  match Array.to_list Sys.argv with
  | _ :: "--quick" :: _ -> quick ()
  | _ :: "--validate" :: path :: _ -> validate_results path
  | _ :: "--validate" :: [] -> validate_results "BENCH_results.json"
  | _ -> full ()
