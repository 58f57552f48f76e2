(* The routing-strategy plug-in API: goldens for the classic strategies,
   plan validation, the registry surface, and the offline batch
   optimizers.

   Every strategy is named by its registry name and routed through its
   plug-in.  The classics once also had enum constructors with their
   own dispatch arms; the goldens below were recorded on those arms,
   before they were retired.  Each pins a 600-op mixed setup/teardown
   workload's trace, final digest, refusal count and state encoding, so
   the plug-in path must route byte-identically to the enum path it
   replaced, and the codec must write the same strategy tags. *)

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

(* ----- multistage trace ------------------------------------------------ *)

(* One churn pass recording every connect outcome: the route's hops on
   admit, the refusal cause on block.  Two runs behave identically iff
   their traces and final states are equal — and because the churn
   generator only diverges after the first differing outcome, trace
   equality really does pin every decision. *)
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
  (Buffer.contents trace, Backend.Net net, stats)

(* ----- goldens of the retired enum path --------------------------------- *)

(* Recorded with each classic's enum constructor on the last revision
   that had them: MD5 of the trace, [Backend.digest], the refusal count
   and MD5 of the final [Backend.encode_state].  The state bytes pin the
   codec's name-to-tag table as well as the routes. *)
type golden = {
  name : string;
  trace_md5 : string;
  digest : int;
  blocked : int;
  state_md5 : string;
}

let md5 s = Digest.to_hex (Digest.string s)

let check_golden g (trace, backend, blocked) =
  Alcotest.(check string) (g.name ^ " trace") g.trace_md5 (md5 trace);
  Alcotest.(check int) (g.name ^ " digest") g.digest (Backend.digest backend);
  Alcotest.(check int) (g.name ^ " blocked") g.blocked blocked;
  Alcotest.(check string)
    (g.name ^ " state bytes") g.state_md5
    (md5 (Backend.encode_state backend))

let multistage_goldens =
  [
    {
      name = "min-intersection";
      trace_md5 = "c8b767d15f2bfd9294932eef7f41ee88";
      digest = 15835643422135247;
      blocked = 25;
      state_md5 = "d1a4e0893137bdd6aa8b27464fd458a5";
    };
    {
      name = "first-fit";
      trace_md5 = "7bac8a3534e1612bb39979718c7c3dc4";
      digest = 19810106209611659;
      blocked = 21;
      state_md5 = "c83a0ef29a26abc533332ea4517e65e6";
    };
    {
      (* the routes min-intersection takes here, under another name *)
      name = "exhaustive";
      trace_md5 = "c8b767d15f2bfd9294932eef7f41ee88";
      digest = 27384951788399114;
      blocked = 25;
      state_md5 = "bfd3d95a3b738bde88df7b259a5e816b";
    };
  ]

let test_multistage_goldens () =
  List.iter
    (fun g ->
      let trace, backend, stats =
        multistage_trace ~strategy:g.name ~steps:600
      in
      check_golden g (trace, backend, stats.Churn.blocked))
    multistage_goldens

(* ----- mesh trace ------------------------------------------------------ *)

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
  (Buffer.contents trace, Backend.Mesh net, point)

let mesh_goldens =
  [
    {
      name = "first-fit";
      trace_md5 = "258602bc591a6116d38f40fc9bb1b41d";
      digest = 2227305774310784;
      blocked = 123;
      state_md5 = "2e1cfbd50c667b232f02676d317497ad";
    };
    {
      name = "most-used";
      trace_md5 = "a92ec08835af8600c7a67071a2dc8703";
      digest = 5546177532272166;
      blocked = 149;
      state_md5 = "cd87e2837721703889a8e05f735db91c";
    };
    {
      name = "least-used";
      trace_md5 = "45052e6727d3489779b1e762327e6699";
      digest = 30122596703957918;
      blocked = 166;
      state_md5 = "e7e3cf949fa5f6eb850735fff0b1808f";
    };
    {
      name = "random";
      trace_md5 = "dd514aa91ce8303aa1be09d32f1e4d52";
      digest = 18989114598325620;
      blocked = 127;
      state_md5 = "a64dc5a0537bfb80be1dc77918c280de";
    };
    {
      (* first-fit's routes, under another name *)
      name = "coloring";
      trace_md5 = "258602bc591a6116d38f40fc9bb1b41d";
      digest = 10534998326160052;
      blocked = 123;
      state_md5 = "9ca3a071c5e5efd9c6980d5a96534dbc";
    };
  ]

let test_mesh_goldens () =
  List.iter
    (fun g ->
      let trace, backend, point = mesh_trace ~strategy:g.name ~arrivals:600 in
      check_golden g (trace, backend, point.Erlang.blocked))
    mesh_goldens

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
  (* create refuses an unresolvable name up front *)
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2 in
  (match
     Network.create
       ~config:{ Network.Config.default with strategy = "nope" }
       ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown name accepted by create");
  match
    Mesh.create
      ~config:{ Mesh.Config.default with Mesh.Config.strategy = "nope" }
      "ring8"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown name accepted by mesh build"

(* A name, once registered, is never rebound: the default strategies
   resolve through the registry, and the codec writes a short tag for
   the classic names, so a rebound name would route a replayed WAL
   differently from the process that wrote it. *)
let test_no_rebinding () =
  let refuses what register =
    match register () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s rebound" what
  in
  List.iter
    (fun name ->
      refuses ("multistage " ^ name) (fun () ->
          Network.Strategy.register
            { name; doc = "rebound"; select = (fun _ -> None) }))
    [ "min-intersection"; "first-fit"; "exhaustive"; "adaptive" ];
  List.iter
    (fun name ->
      refuses ("mesh " ^ name) (fun () ->
          Assign.register_plugin
            (Assign.make_plugin ~name ~doc:"rebound" (fun _ ~hash:_ -> []))))
    [ "first-fit"; "most-used"; "least-used"; "random"; "coloring" ]

(* [Strategy.cover_in_order] skips middles with no free first-stage
   slot for the request, so a plug-in may hand it every middle.  On
   n = r = 3, m = 6, k = 1, port 1 -> port 1 takes middle 1's link from
   input module 1; port 2 -> port 4 then finds middle 1 unavailable
   while its link to output module 2 is still free. *)
let test_cover_in_order_skips_unavailable () =
  Network.Strategy.register
    {
      name = "test-every-middle";
      doc = "first fit over every middle index";
      select =
        (fun c ->
          Network.Strategy.cover_in_order c
            (List.init (Network.Strategy.middles c) (fun j -> j + 1)));
    };
  let topo = Topology.make_exn ~n:3 ~m:6 ~r:3 ~k:1 in
  let net =
    Network.create
      ~config:{ Network.Config.default with strategy = "test-every-middle" }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let connect src dests =
    match
      Network.connect net
        (Connection.make_exn ~source:(ep src 1)
           ~destinations:(List.map (fun p -> ep p 1) dests))
    with
    | r -> r
    | exception Invalid_argument msg -> Alcotest.fail msg
  in
  let middles r = List.map (fun h -> h.Network.middle) r.Network.hops in
  (match connect 1 [ 1 ] with
  | Ok r -> Alcotest.(check (list int)) "first route" [ 1 ] (middles r)
  | Error e -> Alcotest.failf "first connect: %a" Network.pp_error e);
  (match connect 2 [ 4 ] with
  | Ok r -> Alcotest.(check (list int)) "skips middle 1" [ 2 ] (middles r)
  | Error e -> Alcotest.failf "second connect: %a" Network.pp_error e);
  (* load the rest of input module 1 and beyond: every answer is a
     valid plan or a refusal *)
  let rng = Random.State.make [| 6 |] in
  for _ = 1 to 300 do
    let port () = 1 + Random.State.int rng 9 in
    let dests =
      List.sort_uniq compare
        (List.init (1 + Random.State.int rng 3) (fun _ -> port ()))
    in
    match connect (port ()) dests with
    | Ok r ->
      if Random.State.bool rng then ignore (Network.disconnect net r.Network.id)
    | Error _ -> ()
  done

(* Every plan goes through the engine's plan check before a link is
   touched: a plug-in whose plan breaks an invariant is refused loudly,
   naming the invariant, and leaves the network as it was.  Each case
   sets x_limit (3 leaves room for its picks); requests from input
   module 2 route first-fit, so a case can occupy links first. *)
let test_invalid_plan_refused () =
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2 in
  (* output modules 1 and 2 *)
  let conn =
    Connection.make_exn ~source:(ep 1 1) ~destinations:[ ep 2 1; ep 3 1 ]
  in
  let no_prep _ = () in
  (* port 4 to port 4 on wavelength 1, first fit: middle 1's link to
     output module 2 is taken on that wavelength *)
  let take_link net =
    ignore
      (Result.get_ok
         (Network.connect net
            (Connection.make_exn ~source:(ep 4 1) ~destinations:[ ep 4 1 ])))
  in
  List.iter
    (fun (name, reason, x_limit, prepare, plan) ->
      Network.Strategy.register
        {
          name;
          doc = "an invalid plan";
          select =
            (fun c ->
              if Network.Strategy.input_switch c = 2 then
                Network.Strategy.cover_in_order c (Network.Strategy.available c)
              else Some (plan c));
        };
      let net =
        Network.create
          ~config:
            {
              Network.Config.default with
              strategy = name;
              x_limit = Some x_limit;
            }
          ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
      in
      prepare net;
      let before = List.length (Network.active_routes net) in
      match Network.connect net conn with
      | exception Invalid_argument msg ->
        Alcotest.(check string) (name ^ ": reason")
          (Printf.sprintf "Network: strategy %S returned an invalid plan (%s)"
             name reason)
          msg;
        Alcotest.(check int) (name ^ ": nothing routed") before
          (List.length (Network.active_routes net))
      | _ -> Alcotest.failf "%s: plan accepted" name)
    [
      ( "test-x-limit", "more than x_limit middles", 1, no_prep,
        fun _ -> [ (1, [ 1 ]); (2, [ 2 ]) ] );
      ( "test-repeated", "repeated middle", 3, no_prep,
        fun _ -> [ (1, [ 1 ]); (1, [ 2 ]) ] );
      ( "test-range", "middle out of range", 3, no_prep,
        fun _ -> [ (5, [ 1; 2 ]) ] );
      ( "test-unavailable", "unavailable middle", 3,
        (fun net -> ignore (Network.inject_fault net (Wdm_faults.Fault.Middle 1))),
        fun _ -> [ (1, [ 1; 2 ]) ] );
      ( "test-outside", "serves a module outside the request", 3, no_prep,
        fun c -> [ (1, Network.Strategy.fanout c @ [ 3 ]) ] );
      ( "test-uncoverable", "claims an uncoverable module", 3, take_link,
        fun _ -> [ (1, [ 1; 2 ]) ] );
      ( "test-twice", "module served twice", 3, no_prep,
        fun _ -> [ (1, [ 1; 2 ]); (2, [ 2 ]) ] );
      ( "test-uncovered", "module left uncovered", 3, no_prep,
        fun _ -> [ (1, [ 1 ]) ] );
      (* a plan breaking several invariants names the first checked *)
      ( "test-repeated-outside-range", "repeated middle", 3, no_prep,
        fun _ -> [ (0, [ 1 ]); (2, [ 2 ]); (0, [ 2 ]) ] );
      ( "test-range-before-twice", "middle out of range", 3, no_prep,
        fun _ -> [ (1, [ 1; 2 ]); (2, [ 2 ]); (9, []) ] );
      ( "test-twice-after-uncoverable", "claims an uncoverable module", 3,
        take_link, fun _ -> [ (2, [ 1; 2 ]); (3, [ 1 ]); (1, [ 2 ]) ] );
    ]

(* The plan check before it was indexed: whole lists and [List.mem],
   in the same order.  Reads the engine state through the plug-in
   context, so it sees exactly what the engine's check sees. *)
let list_plan_check c plan =
  let module S = Network.Strategy in
  let fanout = S.fanout c and available = S.available c in
  let exception Bad of string in
  let bad reason = raise (Bad reason) in
  match
    let picks = List.filter (fun (_, serves) -> serves <> []) plan in
    if List.length picks > S.x_limit c then bad "more than x_limit middles";
    let js = List.map fst plan in
    if List.length (List.sort_uniq Int.compare js) <> List.length js then
      bad "repeated middle";
    List.iter
      (fun (j, serves) ->
        if j < 1 || j > S.middles c then bad "middle out of range";
        if serves <> [] && not (List.mem j available) then
          bad "unavailable middle";
        List.iter
          (fun p ->
            if not (List.mem p fanout) then
              bad "serves a module outside the request";
            if not (S.covers c ~middle:j p) then
              bad "claims an uncoverable module")
          serves)
      plan;
    let served = List.concat_map snd plan in
    if List.length (List.sort_uniq Int.compare served) <> List.length served
    then bad "module served twice";
    List.iter
      (fun p -> if not (List.mem p served) then bad "module left uncovered")
      fanout
  with
  | () -> None
  | exception Bad reason -> Some reason

(* Random plans, and valid plans with one edit, against the list-based
   check on a partly loaded fabric: the engine refuses exactly the
   plans the list check refuses, naming the same invariant, and every
   invariant is hit. *)
let test_plan_check_oracle () =
  let topo = Topology.make_exn ~n:3 ~m:6 ~r:3 ~k:2 in
  let rng = Random.State.make [| 626 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let random_plan () =
    List.init (Random.State.int rng 4) (fun _ ->
        ( Random.State.int rng 9 - 1,
          List.init (Random.State.int rng 4) (fun _ ->
              Random.State.int rng 5 - 1) ))
  in
  let edit c plan =
    let m = Network.Strategy.middles c in
    match (Random.State.int rng 6, plan) with
    | _, [] -> random_plan ()
    | 0, (_, serves) :: rest -> (1 + Random.State.int rng m, serves) :: rest
    | 1, (j, serves) :: rest -> (j, List.tl serves) :: rest
    | 2, (j, serves) :: rest -> (j, pick serves :: serves) :: rest
    | 3, plan -> (Random.State.int rng (m + 2), []) :: plan
    | 4, plan -> plan @ [ pick plan ]
    | _, (j, serves) :: rest ->
      (j, serves @ [ 1 + Random.State.int rng 3 ]) :: rest
  in
  (* [None] routes first-fit; [Some f] hands the engine [f]'s plan and
     records what the list check says of it *)
  let mode = ref None and expected = ref None in
  Network.Strategy.register
    {
      name = "test-plan-oracle";
      doc = "a plan under test";
      select =
        (fun c ->
          match !mode with
          | None ->
            Network.Strategy.cover_in_order c (Network.Strategy.available c)
          | Some f ->
            let plan = f c in
            expected := Some (list_plan_check c plan);
            Some plan);
    };
  let seen = Hashtbl.create 16 in
  for _ = 1 to 3000 do
    let net =
      Network.create
        ~config:
          {
            Network.Config.default with
            strategy = "test-plan-oracle";
            x_limit = Some 2;
          }
        ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
    in
    let random_conn () =
      let port () = 1 + Random.State.int rng 9
      and wl = 1 + Random.State.int rng 2 in
      Connection.make_exn ~source:(ep (port ()) wl)
        ~destinations:
          (List.map
             (fun p -> ep p wl)
             (List.sort_uniq compare
                (List.init (1 + Random.State.int rng 3) (fun _ -> port ()))))
    in
    mode := None;
    for _ = 1 to Random.State.int rng 6 do
      ignore (Network.connect net (random_conn ()))
    done;
    mode :=
      Some
        (fun c ->
          if Random.State.bool rng then random_plan ()
          else
            match
              Network.Strategy.cover_in_order c (Network.Strategy.available c)
            with
            | Some plan -> edit c plan
            | None -> random_plan ());
    expected := None;
    let got =
      match Network.connect net (random_conn ()) with
      | exception Invalid_argument msg -> Some (Some msg)
      | _ -> Some None
    in
    match !expected with
    | None -> () (* refused before a plan was asked for *)
    | Some want ->
      let want_msg =
        Option.map
          (Printf.sprintf
             "Network: strategy %S returned an invalid plan (%s)"
             "test-plan-oracle")
          want
      in
      Alcotest.(check (option (option string))) "refusal" (Some want_msg) got;
      Hashtbl.replace seen (Option.value ~default:"accepted" want) ()
  done;
  List.iter
    (fun reason ->
      if not (Hashtbl.mem seen reason) then Alcotest.failf "never hit: %s" reason)
    [
      "accepted"; "more than x_limit middles"; "repeated middle";
      "middle out of range"; "unavailable middle";
      "serves a module outside the request"; "claims an uncoverable module";
      "module served twice"; "module left uncovered";
    ]

(* A lab strategy must survive the snapshot/restore codec: new names
   take the string-carrying tag and come back routing the same. *)
let test_named_roundtrip () =
  let topo = Topology.make_exn ~n:4 ~m:8 ~r:4 ~k:2 in
  let net =
    Network.create
      ~config:{ Network.Config.default with strategy = "adaptive" }
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
      (Network.strategy net' = "adaptive")
  | Backend.Mesh _ -> Alcotest.fail "wrong backend kind"

(* ----- determinism of the lab strategies ------------------------------- *)

(* Stochastic plug-ins derive all randomness from the request key, so
   rebuilding the network and replaying the same ops reproduces routes
   exactly — the WAL-replay contract. *)
let test_annealed_deterministic () =
  let tr1, b1, _ = multistage_trace ~strategy:"annealed" ~steps:400 in
  let tr2, b2, _ = multistage_trace ~strategy:"annealed" ~steps:400 in
  Alcotest.(check string) "trace" tr1 tr2;
  Alcotest.(check int) "digest" (Backend.digest b1) (Backend.digest b2);
  let mtr1, mb1, _ = mesh_trace ~strategy:"annealed" ~arrivals:400 in
  let mtr2, mb2, _ = mesh_trace ~strategy:"annealed" ~arrivals:400 in
  Alcotest.(check string) "mesh trace" mtr1 mtr2;
  Alcotest.(check int) "mesh digest" (Backend.digest mb1) (Backend.digest mb2)

(* The crosstalk decorator admits a subset of its base strategy's
   choices: everything it routes, the base routes identically or
   better. *)
let test_crosstalk_decorator () =
  let _, _, base =
    multistage_trace ~strategy:"min-intersection" ~steps:600
  in
  let _, _, gated =
    multistage_trace ~strategy:"crosstalk:min-intersection:25" ~steps:600
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
          Alcotest.test_case "multistage classics = enum-path goldens" `Quick
            test_multistage_goldens;
          Alcotest.test_case "mesh classics = enum-path goldens" `Quick
            test_mesh_goldens;
        ] );
      ( "registry",
        [
          Alcotest.test_case "resolution and refusal" `Quick test_registry;
          Alcotest.test_case "an invalid plan is refused" `Quick
            test_invalid_plan_refused;
          Alcotest.test_case "plan check = list-based check" `Quick
            test_plan_check_oracle;
          Alcotest.test_case "cover_in_order skips unavailable middles" `Quick
            test_cover_in_order_skips_unavailable;
          Alcotest.test_case "a name is never rebound" `Quick
            test_no_rebinding;
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
