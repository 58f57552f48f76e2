(* The routing-strategy plug-in API: seeded-lockstep equivalence of the
   registered built-ins against their enum twins, plan validation,
   registry surface, and the offline batch optimizers.

   The lockstep property is the redesign's acceptance bar: a network
   built with [Named "<builtin>"] must route byte-identically to one
   built with the enum constructor — same routes, same refusals, same
   persisted digest — over a 600-op mixed setup/teardown workload.  The
   codec canonicalizes named built-ins
   onto the enum tags, so digest equality covers the wire format too. *)

open Wdm_core
module Network = Wdm_multistage.Network
module Topology = Wdm_multistage.Topology
module Mesh = Wdm_mesh.Mesh_network
module Assign = Wdm_mesh.Assign
module Churn = Wdm_traffic.Churn
module Erlang = Wdm_traffic.Erlang
module Backend = Wdm_persist.Backend
module Optimizer = Wdm_lab.Optimizer
module Strategy = Wdm_core.Strategy

let ep p w = Endpoint.make ~port:p ~wl:w

(* ----- multistage lockstep --------------------------------------------- *)

(* One churn pass recording every connect outcome: the route's hops on
   admit, the refusal cause on block.  Two strategy variants behave
   identically iff their traces and final digests are equal — and
   because the churn generator only diverges after the first differing
   outcome, trace equality really does pin every decision. *)
let multistage_trace ~strategy ~steps =
  (* m=5 is below the nonblocking bound, so the workload genuinely
     exercises refusals and the trace equality is not vacuous *)
  let topo = Topology.make_exn ~n:4 ~m:5 ~r:4 ~k:2 in
  let net =
    Network.create
      ~config:{ Network.Config.default with strategy }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let trace = Buffer.create 4096 in
  let sut =
    {
      Churn.connect =
        (fun c ->
          match Network.connect net c with
          | Ok route ->
            Buffer.add_string trace
              (Format.asprintf "+%a;" Network.pp_route route);
            Ok route.Network.id
          | Error e ->
            Buffer.add_string trace ("!" ^ Network.Error.cause e ^ ";");
            Error e);
      disconnect = (fun id -> ignore (Network.disconnect net id));
    }
  in
  let stats =
    Churn.run
      (Random.State.make [| 4242 |])
      ~spec:(Topology.spec topo) ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 9; s = 1.0 })
      ~steps ~teardown_bias:0.3 sut
  in
  (Buffer.contents trace, Backend.digest (Backend.Net net), stats)

let test_multistage_lockstep () =
  List.iter
    (fun (enum, label) ->
      let tr_enum, dg_enum, st_enum =
        multistage_trace ~strategy:enum ~steps:600
      in
      let tr_named, dg_named, st_named =
        multistage_trace ~strategy:(Network.Named label) ~steps:600
      in
      Alcotest.(check string) (label ^ " trace") tr_enum tr_named;
      Alcotest.(check int) (label ^ " digest") dg_enum dg_named;
      Alcotest.(check int)
        (label ^ " accepted")
        st_enum.Churn.accepted st_named.Churn.accepted;
      (* the undersized fabric must actually exercise refusals,
         otherwise the equality is vacuous *)
      Alcotest.(check bool)
        (label ^ " workload blocks") true
        (st_enum.Churn.blocked > 0))
    [
      (Network.Min_intersection, "min-intersection");
      (Network.First_fit, "first-fit");
    ]

(* ----- mesh lockstep --------------------------------------------------- *)

let mesh_trace ~strategy ~arrivals =
  let config =
    {
      Mesh.Config.k = 4;
      strategy;
      mode = Wdm_mesh.Light_tree.Hierarchy;
      splitters = Mesh.Split_all;
      k_paths = 3;
    }
  in
  let net = Result.get_ok (Mesh.create ~config "nsf14") in
  let trace = Buffer.create 4096 in
  let sut =
    {
      Churn.connect =
        (fun c ->
          match Mesh.connect net c with
          | Ok route ->
            Buffer.add_string trace
              (Format.asprintf "+%a;" Mesh.pp_route route);
            Ok route.Mesh.id
          | Error e ->
            Buffer.add_string trace ("!" ^ Mesh.Error.to_string e ^ ";");
            Error e);
      disconnect = (fun id -> ignore (Mesh.disconnect net id));
    }
  in
  let point =
    Erlang.run
      (Random.State.make [| 777 |])
      ~nodes:14
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 5; s = 1.2 })
      ~offered:14. ~arrivals sut
  in
  (Buffer.contents trace, Backend.digest (Backend.Mesh net), point)

let test_mesh_lockstep () =
  List.iter
    (fun (enum, name) ->
      let tr_enum, dg_enum, pt_enum = mesh_trace ~strategy:enum ~arrivals:600 in
      let tr_named, dg_named, pt_named =
        mesh_trace ~strategy:(Assign.Named name) ~arrivals:600
      in
      Alcotest.(check string) (name ^ " trace") tr_enum tr_named;
      Alcotest.(check int) (name ^ " digest") dg_enum dg_named;
      Alcotest.(check int)
        (name ^ " blocked")
        pt_enum.Erlang.blocked pt_named.Erlang.blocked)
    [
      (Assign.First_fit, "first-fit");
      (Assign.Most_used, "most-used");
      (Assign.Least_used, "least-used");
      (Assign.Random, "random");
      (Assign.Coloring, "coloring");
    ]

(* ----- registry surface ------------------------------------------------ *)

let test_registry () =
  (* the lab strategies resolve; garbage does not *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("multistage " ^ name) true
        (Network.Strategy.resolve name <> None))
    [ "min-intersection"; "adaptive"; "annealed"; "crosstalk";
      "crosstalk:first-fit:15" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) ("mesh " ^ name) true
        (Assign.resolve_plugin name <> None))
    [ "first-fit"; "adaptive"; "annealed"; "crosstalk:most-used:18" ];
  Alcotest.(check bool) "unknown rejected" true
    (Result.is_error (Network.strategy_of_string "no-such-strategy"));
  Alcotest.(check bool) "bad crosstalk rejected" true
    (Result.is_error (Assign.strategy_of_string "crosstalk:nope"));
  (* create refuses unresolvable Named up front *)
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2 in
  (match
     Network.create
       ~config:{ Network.Config.default with strategy = Network.Named "nope" }
       ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown Named accepted by create");
  match
    Mesh.create
      ~config:
        { Mesh.Config.default with Mesh.Config.strategy = Assign.Named "nope" }
      "ring8"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown Named accepted by mesh build"

(* A lab strategy must survive the snapshot/restore codec: new names
   take the string-carrying tag and come back routing the same. *)
let test_named_roundtrip () =
  let topo = Topology.make_exn ~n:4 ~m:8 ~r:4 ~k:2 in
  let net =
    Network.create
      ~config:
        { Network.Config.default with strategy = Network.Named "adaptive" }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let conn =
    Connection.make_exn ~source:(ep 1 1) ~destinations:[ ep 2 1; ep 6 1 ]
  in
  ignore (Result.get_ok (Network.connect net conn));
  let b = Backend.Net net in
  let b' = Result.get_ok (Backend.restore (Backend.encode_state b)) in
  Alcotest.(check int) "digest" (Backend.digest b) (Backend.digest b');
  match b' with
  | Backend.Net net' ->
    Alcotest.(check bool) "strategy survives" true
      (Network.strategy net' = Network.Named "adaptive")
  | Backend.Mesh _ -> Alcotest.fail "wrong backend kind"

(* ----- determinism of the lab strategies ------------------------------- *)

(* Stochastic plug-ins derive all randomness from the request key, so
   rebuilding the network and replaying the same ops reproduces routes
   exactly — the WAL-replay contract. *)
let test_annealed_deterministic () =
  let tr1, dg1, _ = multistage_trace ~strategy:(Network.Named "annealed") ~steps:400 in
  let tr2, dg2, _ = multistage_trace ~strategy:(Network.Named "annealed") ~steps:400 in
  Alcotest.(check string) "trace" tr1 tr2;
  Alcotest.(check int) "digest" dg1 dg2;
  let mtr1, mdg1, _ = mesh_trace ~strategy:(Assign.Named "annealed") ~arrivals:400 in
  let mtr2, mdg2, _ = mesh_trace ~strategy:(Assign.Named "annealed") ~arrivals:400 in
  Alcotest.(check string) "mesh trace" mtr1 mtr2;
  Alcotest.(check int) "mesh digest" mdg1 mdg2

(* The crosstalk decorator admits a subset of its base strategy's
   choices: everything it routes, the base routes identically or
   better. *)
let test_crosstalk_decorator () =
  let _, _, base =
    multistage_trace ~strategy:(Network.Named "min-intersection") ~steps:600
  in
  let _, _, gated =
    multistage_trace ~strategy:(Network.Named "crosstalk:min-intersection:25") ~steps:600
  in
  Alcotest.(check bool) "tighter budget blocks at least as much" true
    (gated.Churn.blocked >= base.Churn.blocked)

(* ----- offline batch optimizers ---------------------------------------- *)

(* Admit the batch in candidate order into a fresh undersized fabric;
   the score is the number of requests that fit. *)
let batch_score batch order =
  let topo = Topology.make_exn ~n:4 ~m:6 ~r:4 ~k:2 in
  let net =
    Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
      topo
  in
  List.fold_left
    (fun acc i ->
      match Network.connect net (List.nth batch i) with
      | Ok _ -> acc + 1
      | Error _ -> acc)
    0 order

let make_batch () =
  (* heavy multicasts first in arrival order: a deliberately bad order
     the optimizers can improve on *)
  let rng = Random.State.make [| 99 |] in
  List.init 24 (fun i ->
      let src = 1 + ((i * 5) mod 16) in
      let f = if i < 8 then 6 else 1 + Random.State.int rng 3 in
      let dests =
        List.init f (fun j -> ep (1 + ((src + (3 * j)) mod 16)) 1)
      in
      Connection.make_exn ~source:(ep src 1) ~destinations:dests)

let test_optimizer () =
  let batch = make_batch () in
  let n = List.length batch in
  let score = batch_score batch in
  let identity_score = score (List.init n (fun i -> i)) in
  let a1 = Optimizer.anneal ~seed:7 ~score n in
  let a2 = Optimizer.anneal ~seed:7 ~score n in
  Alcotest.(check bool) "anneal deterministic" true (a1 = a2);
  Alcotest.(check bool) "anneal is a permutation" true
    (List.sort compare a1.Optimizer.order = List.init n (fun i -> i));
  Alcotest.(check bool) "anneal >= arrival order" true
    (a1.Optimizer.score >= identity_score);
  let g1 = Optimizer.evolve ~seed:7 ~score n in
  let g2 = Optimizer.evolve ~seed:7 ~score n in
  Alcotest.(check bool) "evolve deterministic" true (g1 = g2);
  Alcotest.(check bool) "evolve is a permutation" true
    (List.sort compare g1.Optimizer.order = List.init n (fun i -> i));
  Alcotest.(check bool) "evolve >= arrival order" true
    (g1.Optimizer.score >= identity_score)

(* ----- shared deterministic RNG ---------------------------------------- *)

let test_det_rng () =
  let a = Strategy.Det_rng.make ~seed:123 in
  let b = Strategy.Det_rng.make ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "stream" (Strategy.Det_rng.int a 1000)
      (Strategy.Det_rng.int b 1000)
  done;
  Alcotest.(check bool) "mix separates" true
    (Strategy.mix 1 2 <> Strategy.mix 2 1)

let () =
  Alcotest.run "wdm_strategy"
    [
      ( "lockstep",
        [
          Alcotest.test_case "multistage built-ins = enums" `Quick
            test_multistage_lockstep;
          Alcotest.test_case "mesh built-ins = enums" `Quick
            test_mesh_lockstep;
        ] );
      ( "registry",
        [
          Alcotest.test_case "resolution and refusal" `Quick test_registry;
          Alcotest.test_case "named strategy codec roundtrip" `Quick
            test_named_roundtrip;
        ] );
      ( "lab",
        [
          Alcotest.test_case "annealed replays deterministically" `Quick
            test_annealed_deterministic;
          Alcotest.test_case "crosstalk budget only tightens" `Quick
            test_crosstalk_decorator;
          Alcotest.test_case "batch optimizers" `Quick test_optimizer;
          Alcotest.test_case "det rng" `Quick test_det_rng;
        ] );
    ]
