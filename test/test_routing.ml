(* Tests for the three-stage routing engine (Section 3): route shape,
   state bookkeeping, the nonblocking guarantees of Theorems 1-2 under
   randomized churn, the Fig. 10 scenario, and end-to-end physical
   realization of routed connections on the built optical fabric. *)

open Wdm_core
open Wdm_multistage

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

let net ?strategy ?x_limit ~construction ~output_model ~n ~m ~r ~k () =
  Network.create
    ~config:
      {
        Network.Config.default with
        strategy = Option.value ~default:"min-intersection" strategy;
        x_limit;
      }
    ~construction ~output_model
    (Topology.make_exn ~n ~m ~r ~k)

let check_ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e)

(* --- basic routing ------------------------------------------------------ *)

let test_unicast_route_shape () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:2 ~m:4 ~r:2 ~k:2 () in
  let route = check_ok (Network.connect t (conn (ep 1 2) [ ep 3 2 ])) in
  Alcotest.(check int) "input switch" 1 route.Network.input_switch;
  (match route.Network.hops with
  | [ { Network.middle; stage1_wl; serves } ] ->
    Alcotest.(check bool) "middle in range" true (middle >= 1 && middle <= 4);
    (* MSW-dominant: everything rides the source wavelength plane *)
    Alcotest.(check int) "stage1 on l2" 2 stage1_wl;
    Alcotest.(check (list (pair int int))) "serves o2 on l2" [ (2, 2) ] serves
  | hops -> Alcotest.fail (Printf.sprintf "expected 1 hop, got %d" (List.length hops)));
  Alcotest.(check int) "one active route" 1 (List.length (Network.active_routes t))

let test_multicast_within_x_limit () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:4 ~m:13 ~r:4 ~k:2 () in
  Alcotest.(check int) "x_limit defaults to optimal" 2 (Network.x_limit t);
  (* fanout across all 4 output modules *)
  let route =
    check_ok
      (Network.connect t (conn (ep 1 1) [ ep 1 1; ep 5 1; ep 9 1; ep 13 1 ]))
  in
  Alcotest.(check bool) "within x_limit" true
    (List.length route.Network.hops <= Network.x_limit t);
  (* every output module served exactly once *)
  let served =
    List.concat_map (fun h -> List.map fst h.Network.serves) route.Network.hops
    |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "all modules served" [ 1; 2; 3; 4 ] served

let test_disconnect_restores_state () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:2 ~m:4 ~r:2 ~k:2 () in
  let r1 = check_ok (Network.connect t (conn (ep 1 1) [ ep 1 1; ep 3 1 ])) in
  Alcotest.(check bool) "multiset non-empty" true
    (List.exists
       (fun j -> Multiset.total (Network.destination_multiset t j) > 0)
       [ 1; 2; 3; 4 ]);
  let returned = Result.get_ok (Network.disconnect t r1.Network.id) in
  Alcotest.(check int) "same route returned" r1.Network.id returned.Network.id;
  List.iter
    (fun j ->
      Alcotest.(check int) "multisets empty" 0
        (Multiset.total (Network.destination_multiset t j)))
    [ 1; 2; 3; 4 ];
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          Alcotest.(check int) "stage1 links free" 0
            (Network.stage1_in_use t ~input_switch:i ~middle:j))
        [ 1; 2; 3; 4 ])
    [ 1; 2 ];
  Alcotest.(check int) "no active routes" 0 (List.length (Network.active_routes t));
  (* the same connection can be admitted again *)
  ignore (check_ok (Network.connect t (conn (ep 1 1) [ ep 1 1; ep 3 1 ])))

let test_admission_errors () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:2 ~m:4 ~r:2 ~k:2 () in
  ignore (check_ok (Network.connect t (conn (ep 1 1) [ ep 1 1 ])));
  (match Network.connect t (conn (ep 1 1) [ ep 2 1 ]) with
  | Error (Network.Source_busy e) ->
    Alcotest.(check bool) "source" true (Endpoint.equal e (ep 1 1))
  | _ -> Alcotest.fail "expected Source_busy");
  (match Network.connect t (conn (ep 2 1) [ ep 1 1 ]) with
  | Error (Network.Destination_busy _) -> ()
  | _ -> Alcotest.fail "expected Destination_busy");
  (match Network.connect t (conn (ep 2 1) [ ep 1 2 ]) with
  | Error (Network.Invalid (Assignment.Model_violation _)) -> ()
  | _ -> Alcotest.fail "expected model violation under MSW");
  match Network.disconnect t 999 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown route error"

let test_duplicate_source_wavelengths_are_independent () =
  (* A node may source up to k connections, one per wavelength. *)
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:2 ~m:4 ~r:2 ~k:2 () in
  ignore (check_ok (Network.connect t (conn (ep 1 1) [ ep 3 1 ])));
  ignore (check_ok (Network.connect t (conn (ep 1 2) [ ep 3 2 ])))

(* --- state invariant under churn --------------------------------------- *)

let reconstruct_occupancy t =
  (* Recompute per-link usage from the active routes. *)
  let topo = Network.topology t in
  let s1 = Hashtbl.create 64 and s2 = Hashtbl.create 64 in
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          let key1 = (route.Network.input_switch, h.Network.middle, h.Network.stage1_wl) in
          Alcotest.(check bool) "stage1 slot used once" false (Hashtbl.mem s1 key1);
          Hashtbl.add s1 key1 ();
          List.iter
            (fun (p, w2) ->
              let key2 = (h.Network.middle, p, w2) in
              Alcotest.(check bool) "stage2 slot used once" false (Hashtbl.mem s2 key2);
              Hashtbl.add s2 key2 ())
            h.Network.serves)
        route.Network.hops)
    (Network.active_routes t);
  (* aggregate per middle -> multiset must match the network's view *)
  for j = 1 to topo.Topology.m do
    let expected = ref (Multiset.create ~r:topo.Topology.r ~k:topo.Topology.k) in
    Hashtbl.iter
      (fun (j', p, _) () -> if j' = j then expected := Multiset.add !expected p)
      s2;
    Alcotest.(check bool)
      (Printf.sprintf "multiset of middle %d" j)
      true
      (Multiset.equal !expected (Network.destination_multiset t j))
  done

let churn_sut t =
  {
    Wdm_traffic.Churn.connect =
      (fun c ->
        match Network.connect t c with
        | Ok route -> Ok route.Network.id
        | Error e -> Error e);
    disconnect = (fun id -> ignore (Network.disconnect t id));
  }

let test_state_invariant_under_churn () =
  let t = net ~construction:Network.Maw_dominant ~output_model:Model.MAW
      ~n:3 ~m:8 ~r:3 ~k:2 () in
  let rng = Random.State.make [| 42 |] in
  let spec = Topology.spec (Network.topology t) in
  let _stats =
    Wdm_traffic.Churn.run rng ~spec ~model:Model.MAW
      ~fanout:(Wdm_traffic.Fanout.Uniform (1, 3)) ~steps:300 ~teardown_bias:0.4
      (churn_sut t)
  in
  reconstruct_occupancy t

let test_route_wavelength_discipline () =
  (* After churn, every live route must obey its construction's
     wavelength rules on both hops. *)
  let check ~construction ~output_model =
    let t = net ~construction ~output_model ~n:3 ~m:9 ~r:3 ~k:3 () in
    let rng = Random.State.make [| 77 |] in
    let spec = Topology.spec (Network.topology t) in
    let _ =
      Wdm_traffic.Churn.run rng ~spec ~model:output_model
        ~fanout:(Wdm_traffic.Fanout.Uniform (1, 4)) ~steps:300 ~teardown_bias:0.4
        (churn_sut t)
    in
    List.iter
      (fun (route : Network.route) ->
        let src_wl = route.Network.connection.Connection.source.Endpoint.wl in
        List.iter
          (fun (h : Network.hop) ->
            (match construction with
            | Network.Msw_dominant ->
              Alcotest.(check int) "stage1 rides source plane" src_wl
                h.Network.stage1_wl
            | Network.Maw_dominant ->
              Alcotest.(check bool) "stage1 in range" true
                (h.Network.stage1_wl >= 1 && h.Network.stage1_wl <= 3));
            List.iter
              (fun (_, w2) ->
                match (construction, output_model) with
                | Network.Msw_dominant, _ | _, Model.MSW ->
                  Alcotest.(check int) "stage2 pinned to source plane" src_wl w2
                | Network.Maw_dominant, _ ->
                  Alcotest.(check bool) "stage2 in range" true (w2 >= 1 && w2 <= 3))
              h.Network.serves)
          route.Network.hops)
      (Network.active_routes t)
  in
  check ~construction:Network.Msw_dominant ~output_model:Model.MSW;
  check ~construction:Network.Msw_dominant ~output_model:Model.MAW;
  check ~construction:Network.Maw_dominant ~output_model:Model.MAW

let test_route_covers_exact_fanout () =
  (* The hops of a route serve exactly the output modules its connection
     spans, each exactly once. *)
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MAW
      ~n:3 ~m:9 ~r:3 ~k:2 () in
  let rng = Random.State.make [| 88 |] in
  let spec = Topology.spec (Network.topology t) in
  let _ =
    Wdm_traffic.Churn.run rng ~spec ~model:Model.MAW
      ~fanout:(Wdm_traffic.Fanout.Uniform (2, 6)) ~steps:300 ~teardown_bias:0.4
      (churn_sut t)
  in
  let topo = Network.topology t in
  List.iter
    (fun (route : Network.route) ->
      let served =
        List.concat_map
          (fun (h : Network.hop) -> List.map fst h.Network.serves)
          route.Network.hops
        |> List.sort Int.compare
      in
      let wanted =
        route.Network.connection.Connection.destinations
        |> List.map (fun (d : Endpoint.t) -> fst (Topology.switch_of_port topo d.port))
        |> List.sort_uniq Int.compare
      in
      Alcotest.(check (list int)) "exact cover, no duplicates" wanted served)
    (Network.active_routes t)

(* --- nonblocking at the theorem bounds --------------------------------- *)

let nonblocking_case ~construction ~output_model ~n ~r ~k ~seed ~steps () =
  let eval = Conditions.evaluate construction ~n ~r ~k in
  let t = net ~construction ~output_model ~n ~m:eval.Conditions.m_min ~r ~k () in
  let rng = Random.State.make [| seed |] in
  let spec = Topology.spec (Network.topology t) in
  let blocked_detail = ref None in
  let stats =
    Wdm_traffic.Churn.run rng ~spec ~model:output_model
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = n * r; s = 1.2 })
      ~steps ~teardown_bias:0.35
      ~on_blocked:(fun c e ->
        if !blocked_detail = None then
          blocked_detail := Some (Format.asprintf "%a: %a" Connection.pp c Network.pp_error e))
      (churn_sut t)
  in
  (match !blocked_detail with
  | Some d -> Alcotest.fail ("blocked below theorem bound: " ^ d)
  | None -> ());
  Alcotest.(check int) "no blocking" 0 stats.Wdm_traffic.Churn.blocked;
  Alcotest.(check bool) "traffic flowed" true (stats.Wdm_traffic.Churn.accepted > 20)

let nonblocking_suite =
  List.concat_map
    (fun (construction, cname) ->
      List.concat_map
        (fun output_model ->
          (* MAW-dominant with an MSW output stage pins the last hop to
             the source wavelength; Theorem 2's multiset argument
             assumes the output stage can retune (see Network), so we
             exercise the MSW output model under MSW-dominant only. *)
          if construction = Network.Maw_dominant && output_model = Model.MSW then []
          else
            List.map
              (fun (n, r, k, seed) ->
                Alcotest.test_case
                  (Format.asprintf "%s/%a n=%d r=%d k=%d" cname Model.pp
                     output_model n r k)
                  `Slow
                  (nonblocking_case ~construction ~output_model ~n ~r ~k ~seed
                     ~steps:400))
              [ (2, 2, 1, 7); (2, 2, 2, 11); (3, 3, 2, 13); (4, 4, 2, 17); (3, 4, 3, 19) ])
        Model.all)
    [ (Network.Msw_dominant, "MSW-dom"); (Network.Maw_dominant, "MAW-dom") ]

let test_blocking_below_bound_exists () =
  (* At m = n (the topological minimum) an adversarial-ish load must
     eventually block an MSW-dominant network — evidence that the
     theorem's margin is doing real work. *)
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:4 ~m:4 ~r:4 ~k:1 () in
  let rng = Random.State.make [| 23 |] in
  let spec = Topology.spec (Network.topology t) in
  let stats =
    Wdm_traffic.Churn.run rng ~spec ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Uniform (2, 4)) ~steps:600 ~teardown_bias:0.3
      (churn_sut t)
  in
  Alcotest.(check bool) "blocking observed" true (stats.Wdm_traffic.Churn.blocked > 0)

(* --- Fig. 10 ------------------------------------------------------------ *)

let test_fig10 () =
  let msw = Scenarios.fig10 Network.Msw_dominant in
  Alcotest.(check int) "prelude admitted" 3 msw.Scenarios.admitted;
  (match msw.Scenarios.probe_result with
  | Error (Network.Blocked _) -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Network.pp_error e)
  | Ok _ -> Alcotest.fail "MSW middles should block the probe");
  let maw = Scenarios.fig10 Network.Maw_dominant in
  Alcotest.(check int) "prelude admitted" 3 maw.Scenarios.admitted;
  match maw.Scenarios.probe_result with
  | Ok _ -> ()
  | Error e ->
    Alcotest.fail (Format.asprintf "MAW middles should route: %a" Network.pp_error e)

(* --- strategies --------------------------------------------------------- *)

let test_strategies_agree_on_feasibility () =
  (* On an amply-provisioned network all three selection strategies
     admit the same (randomly generated) load. *)
  List.iter
    (fun strategy ->
      let t = net ~strategy ~construction:Network.Msw_dominant
          ~output_model:Model.MSW ~n:3 ~m:9 ~r:3 ~k:2 () in
      let rng = Random.State.make [| 5 |] in
      let spec = Topology.spec (Network.topology t) in
      let stats =
        Wdm_traffic.Churn.run rng ~spec ~model:Model.MSW
          ~fanout:(Wdm_traffic.Fanout.Uniform (1, 3)) ~steps:200 ~teardown_bias:0.35
          (churn_sut t)
      in
      Alcotest.(check int) "no blocking" 0 stats.Wdm_traffic.Churn.blocked)
    [ "min-intersection"; "first-fit"; "exhaustive" ]

let test_exhaustive_not_worse_than_greedy () =
  (* Where greedy finds a route, exhaustive must too (it subsumes it). *)
  let mk strategy =
    net ~strategy ~x_limit:2 ~construction:Network.Msw_dominant
      ~output_model:Model.MSW ~n:2 ~m:4 ~r:2 ~k:2 ()
  in
  let greedy = mk "min-intersection" in
  let exhaustive = mk "exhaustive" in
  let reqs =
    [
      conn (ep 1 1) [ ep 1 1; ep 3 1 ];
      conn (ep 2 1) [ ep 2 1; ep 4 1 ];
      conn (ep 3 1) [ ep 2 2; ep 4 2 ];
      conn (ep 3 2) [ ep 1 2 ];
    ]
  in
  List.iter
    (fun c ->
      let g = Result.is_ok (Network.connect greedy c) in
      let e = Result.is_ok (Network.connect exhaustive c) in
      Alcotest.(check bool) "agree" g e)
    reqs

(* --- physical realization ----------------------------------------------- *)

let physical_case ~construction ~output_model ~n ~r ~k ~seed () =
  let eval = Conditions.evaluate construction ~n ~r ~k in
  let topo = Topology.make_exn ~n ~m:eval.Conditions.m_min ~r ~k in
  let t = Network.create ~construction ~output_model topo in
  let phys = Physical.create ~construction ~output_model topo in
  (* route a random batch, then realize it optically *)
  let rng = Random.State.make [| seed |] in
  let spec = Topology.spec topo in
  let _stats =
    Wdm_traffic.Churn.run rng ~spec ~model:output_model
      ~fanout:(Wdm_traffic.Fanout.Uniform (1, 4)) ~steps:120 ~teardown_bias:0.3
      (churn_sut t)
  in
  let routes = Network.active_routes t in
  Alcotest.(check bool) "have live routes" true (List.length routes > 0);
  match Physical.realize phys routes with
  | Ok _ -> ()
  | Error f ->
    Alcotest.fail
      (Format.asprintf "optical realization failed: %a"
         Wdm_crossbar.Delivery.pp_failure f)

let physical_suite =
  [
    Alcotest.test_case "MSW-dom/MSW optical" `Slow
      (physical_case ~construction:Network.Msw_dominant ~output_model:Model.MSW
         ~n:2 ~r:2 ~k:2 ~seed:3);
    Alcotest.test_case "MSW-dom/MAW optical" `Slow
      (physical_case ~construction:Network.Msw_dominant ~output_model:Model.MAW
         ~n:2 ~r:2 ~k:2 ~seed:4);
    Alcotest.test_case "MSW-dom/MSDW optical" `Slow
      (physical_case ~construction:Network.Msw_dominant ~output_model:Model.MSDW
         ~n:2 ~r:2 ~k:2 ~seed:5);
    Alcotest.test_case "MAW-dom/MAW optical" `Slow
      (physical_case ~construction:Network.Maw_dominant ~output_model:Model.MAW
         ~n:2 ~r:2 ~k:2 ~seed:6);
    Alcotest.test_case "MAW-dom/MAW optical 3x3" `Slow
      (physical_case ~construction:Network.Maw_dominant ~output_model:Model.MAW
         ~n:3 ~r:3 ~k:2 ~seed:7);
  ]

let test_physical_tracks_every_step () =
  (* After EVERY setup or teardown, the physical fabric programmed from
     the live routes must deliver exactly the live connections. *)
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2 in
  let t = Network.create ~construction:Network.Msw_dominant
      ~output_model:Model.MAW topo in
  let phys = Physical.create ~construction:Network.Msw_dominant
      ~output_model:Model.MAW topo in
  let verify_now () =
    match Physical.realize phys (Network.active_routes t) with
    | Ok _ -> ()
    | Error f ->
      Alcotest.fail (Format.asprintf "%a" Wdm_crossbar.Delivery.pp_failure f)
  in
  let sut =
    {
      Wdm_traffic.Churn.connect =
        (fun c ->
          match Network.connect t c with
          | Ok route ->
            verify_now ();
            Ok route.Network.id
          | Error e -> Error e);
      disconnect =
        (fun id ->
          ignore (Network.disconnect t id);
          verify_now ());
    }
  in
  let stats =
    Wdm_traffic.Churn.run (Random.State.make [| 314 |])
      ~spec:(Topology.spec topo) ~model:Model.MAW
      ~fanout:(Wdm_traffic.Fanout.Uniform (1, 3)) ~steps:60 ~teardown_bias:0.4
      sut
  in
  Alcotest.(check bool) "steps exercised" true
    (stats.Wdm_traffic.Churn.accepted + stats.Wdm_traffic.Churn.torn_down > 30)

let test_physical_component_census () =
  List.iter
    (fun (construction, output_model) ->
      let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2 in
      let phys = Physical.create ~construction ~output_model topo in
      let b = Cost.breakdown ~construction ~output_model topo in
      Alcotest.(check int) "crosspoints" b.Cost.total_crosspoints
        (Physical.crosspoints phys);
      Alcotest.(check int) "converters" b.Cost.total_converters
        (Physical.converters phys))
    [
      (Network.Msw_dominant, Model.MSW);
      (Network.Msw_dominant, Model.MSDW);
      (Network.Msw_dominant, Model.MAW);
      (Network.Maw_dominant, Model.MAW);
    ]

(* --- capacity equality (Section 3.1 remark) ------------------------------ *)

(* "An N x N k-wavelength nonblocking multistage WDM network under a
   given model will have the same multicast capacity as a crossbar-based
   network under the same model": route EVERY enumerated assignment of
   the small network, connection by connection, on a fresh
   theorem-provisioned three-stage network. *)
let capacity_equality_case ~construction ~output_model ~n ~r ~k () =
  let eval = Conditions.evaluate construction ~n ~r ~k in
  let topo = Topology.make_exn ~n ~m:eval.Conditions.m_min ~r ~k in
  let spec = Topology.spec topo in
  let count = ref 0 in
  (* the budget estimate is model-independent; under MSW the search
     space is only (N+1)^(Nk), so allow the larger nominal figure *)
  Wdm_core.Enumerate.iter_assignments ~budget:5e7 spec output_model (fun a ->
      incr count;
      let t = Network.create ~construction ~output_model topo in
      List.iter
        (fun c ->
          match Network.connect t c with
          | Ok _ -> ()
          | Error e ->
            Alcotest.fail
              (Format.asprintf "assignment %a rejected at %a: %a" Assignment.pp
                 a Connection.pp c Network.pp_error e))
        a.Assignment.connections);
  Alcotest.(check bool) "assignments exercised" true (!count > 100)

let capacity_equality_suite =
  [
    Alcotest.test_case "MSW-dom/MSW N=4 k=1 (625 assignments)" `Slow
      (capacity_equality_case ~construction:Network.Msw_dominant
         ~output_model:Model.MSW ~n:2 ~r:2 ~k:1);
    Alcotest.test_case "MSW-dom/MAW N=4 k=1" `Slow
      (capacity_equality_case ~construction:Network.Msw_dominant
         ~output_model:Model.MAW ~n:2 ~r:2 ~k:1);
    Alcotest.test_case "MAW-dom/MAW N=4 k=1" `Slow
      (capacity_equality_case ~construction:Network.Maw_dominant
         ~output_model:Model.MAW ~n:2 ~r:2 ~k:1);
    (* k = 2 under MSW: 5^8 = 390 625 assignments, still exhaustive *)
    Alcotest.test_case "MSW-dom/MSW N=4 k=2 (390625 assignments)" `Slow
      (capacity_equality_case ~construction:Network.Msw_dominant
         ~output_model:Model.MSW ~n:2 ~r:2 ~k:2);
  ]

(* --- fault injection -------------------------------------------------------- *)

let failed_middles t =
  List.filter_map
    (function Wdm_faults.Fault.Middle j -> Some j | _ -> None)
    (Network.faults t)

let test_fail_middle_returns_victims () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:2 ~m:4 ~r:2 ~k:1 () in
  let c = conn (ep 1 1) [ ep 3 1 ] in
  let route = check_ok (Network.connect t c) in
  let j = (List.hd route.Network.hops).Network.middle in
  let victims = Network.inject_fault t (Wdm_faults.Fault.Middle j) in
  Alcotest.(check int) "one victim" 1 (List.length victims);
  Alcotest.(check bool) "the victim" true (Connection.equal c (List.hd victims));
  Alcotest.(check int) "route gone" 0 (List.length (Network.active_routes t));
  Alcotest.(check (list int)) "failure recorded" [ j ] (failed_middles t);
  (* endpoints freed: the victim can be re-requested and avoids j *)
  let route2 = check_ok (Network.connect t c) in
  Alcotest.(check bool) "rerouted around the fault" true
    ((List.hd route2.Network.hops).Network.middle <> j);
  Network.clear_fault t (Wdm_faults.Fault.Middle j);
  Alcotest.(check (list int)) "repaired" [] (failed_middles t)

let test_fault_tolerant_provisioning () =
  (* m = m_min + f stays nonblocking under f faults. *)
  let f = 2 in
  let eval = Conditions.msw_dominant ~n:3 ~r:3 in
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:3 ~m:(eval.Conditions.m_min + f) ~r:3 ~k:2 () in
  Alcotest.(check (list Alcotest.string)) "no victims on idle fail" []
    (List.map (Format.asprintf "%a" Connection.pp)
       (Network.inject_fault t (Wdm_faults.Fault.Middle 1)));
  ignore (Network.inject_fault t (Wdm_faults.Fault.Middle 2));
  let stats =
    Wdm_traffic.Churn.run (Random.State.make [| 71 |])
      ~spec:(Topology.spec (Network.topology t)) ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 9; s = 1.1 })
      ~steps:500 ~teardown_bias:0.35 (churn_sut t)
  in
  Alcotest.(check int) "still nonblocking with f faults" 0
    stats.Wdm_traffic.Churn.blocked

let test_all_middles_failed_blocks_everything () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:2 ~m:4 ~r:2 ~k:1 () in
  for j = 1 to 4 do
    ignore (Network.inject_fault t (Wdm_faults.Fault.Middle j))
  done;
  match Network.connect t (conn (ep 1 1) [ ep 1 1 ]) with
  | Error (Network.Blocked { available_middles = []; _ }) -> ()
  | _ -> Alcotest.fail "expected total blocking"

(* --- rearrangement -------------------------------------------------------- *)

(* Under churn on an undersized network, some blocked requests are only
   order-blocked and a single rearrangement admits them (roughly half
   here are capacity-blocked and stay refused — rearrangement never
   lies).  Rearranged victims keep their route id, so the driver's
   id-based teardowns keep succeeding across moves. *)
let test_rearrangement_unblocks () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:3 ~m:3 ~r:3 ~k:1 () in
  let blocked = ref 0 and rescued = ref 0 in
  let sut =
    {
      Wdm_traffic.Churn.connect =
        (fun c ->
          match Network.connect t c with
          | Ok route -> Ok route.Network.id
          | Error _ -> (
            incr blocked;
            match Network.connect_rearrangeable t c with
            | Ok (route, moved) ->
              Alcotest.(check int) "exactly one move" 1 moved;
              incr rescued;
              Ok route.Network.id
            | Error e -> Error e));
      disconnect = (fun id -> ignore (Network.disconnect t id));
    }
  in
  let _ =
    Wdm_traffic.Churn.run (Random.State.make [| 5 |])
      ~spec:(Topology.spec (Network.topology t)) ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 9; s = 1.0 })
      ~steps:3000 ~teardown_bias:0.3 sut
  in
  Alcotest.(check bool) "undersized network blocked" true (!blocked > 100);
  Alcotest.(check bool) "rearrangement rescued some" true (!rescued >= 1);
  (* bookkeeping must be intact after all the moves and rollbacks *)
  reconstruct_occupancy t

let test_rearrangement_noop_when_free () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
      ~n:2 ~m:4 ~r:2 ~k:1 () in
  match Network.connect_rearrangeable t (conn (ep 1 1) [ ep 1 1 ]) with
  | Ok (_, moved) -> Alcotest.(check int) "no moves needed" 0 moved
  | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e)

(* A rearrangement move must not renumber the victim: drivers (churn,
   the faults campaign) track live connections by route id and tear
   them down with {!Network.disconnect} later.  Before the id was
   preserved, the moved route stayed allocated forever under a fresh
   id while the driver's handle went stale — leaking capacity. *)
let test_rearrangement_preserves_victim_id () =
  let t = net ~x_limit:1 ~construction:Network.Msw_dominant
      ~output_model:Model.MSW ~n:2 ~m:2 ~r:2 ~k:1 () in
  (* a on middle 1: in-module 1 -> out-module 1 *)
  let a = check_ok (Network.connect t (conn (ep 1 1) [ ep 1 1 ])) in
  (* steer b onto middle 2 by occupying middle 1's in-module-2 link
     with a temporary route, then releasing it *)
  let tmp = check_ok (Network.connect t (conn (ep 4 1) [ ep 3 1 ])) in
  let b = check_ok (Network.connect t (conn (ep 3 1) [ ep 4 1 ])) in
  (match Network.disconnect t tmp.Network.id with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Network.Error.disconnect_to_string e));
  (* probe in-module 1 -> out-module 2: middle 1's stage-1 link is
     held by a, middle 2's stage-2 link by b — order-blocked until one
     victim moves *)
  match Network.connect_rearrangeable t (conn (ep 2 1) [ ep 3 1 ]) with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e)
  | Ok (probe, moved) ->
    Alcotest.(check int) "one move" 1 moved;
    (* the moved victim answers to its original id, on new hops *)
    (match Network.find_route t a.Network.id with
    | None -> Alcotest.fail "victim id vanished after rearrangement"
    | Some a' ->
      Alcotest.(check bool) "same connection" true
        (Connection.equal a'.Network.connection a.Network.connection);
      Alcotest.(check bool) "hops actually changed" true
        (a'.Network.hops <> a.Network.hops));
    (* an id-based teardown — what the churn driver does — still works *)
    (match Network.disconnect t a.Network.id with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Network.Error.disconnect_to_string e));
    let remaining =
      List.map (fun (r : Network.route) -> r.Network.id) (Network.active_routes t)
      |> List.sort Int.compare
    in
    Alcotest.(check (list int)) "only b and the probe remain"
      (List.sort Int.compare [ b.Network.id; probe.Network.id ])
      remaining;
    reconstruct_occupancy t

let test_rearrangement_failure_restores_state () =
  (* Saturate a 1-middle network so even rearrangement cannot help, and
     check nothing changed. *)
  let t = net ~x_limit:1 ~construction:Network.Msw_dominant
      ~output_model:Model.MSW ~n:2 ~m:2 ~r:2 ~k:1 () in
  ignore (check_ok (Network.connect t (conn (ep 1 1) [ ep 4 1 ])));
  ignore (check_ok (Network.connect t (conn (ep 2 1) [ ep 2 1 ])));
  ignore (check_ok (Network.connect t (conn (ep 4 1) [ ep 3 1 ])));
  let before =
    List.map (fun (r : Network.route) -> r.Network.id) (Network.active_routes t)
    |> List.sort Int.compare
  in
  (* probe wants o1+o2 through a single middle; with l1 takeable slots
     all claimed, no victim move can open both on one middle *)
  (match Network.connect_rearrangeable t (conn (ep 3 1) [ ep 1 1 ]) with
  | Ok _ -> () (* if it routes, fine - then state grew by one route *)
  | Error (Network.Blocked _) ->
    let after =
      List.map (fun (r : Network.route) -> r.Network.id) (Network.active_routes t)
      |> List.sort Int.compare
    in
    Alcotest.(check (list int)) "routes untouched" before after
  | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e));
  reconstruct_occupancy t

(* --- offline scheduler ----------------------------------------------------- *)

let test_scheduler_routes_full_assignments_at_bound () =
  let eval = Conditions.msw_dominant ~n:2 ~r:2 in
  let topo = Topology.make_exn ~n:2 ~m:eval.Conditions.m_min ~r:2 ~k:2 in
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 25 do
    let t = Network.create ~construction:Network.Msw_dominant
        ~output_model:Model.MSW topo in
    let a =
      Wdm_traffic.Generator.random_full_assignment rng (Topology.spec topo)
        Model.MSW
    in
    match Scheduler.route_assignment t a with
    | Ok outcome ->
      Alcotest.(check int) "first order works at the bound" 1
        outcome.Scheduler.order_attempts;
      Alcotest.(check int) "no rearrangement" 0 outcome.Scheduler.reroutes;
      Alcotest.(check int) "all connections placed"
        (Assignment.size a)
        (List.length outcome.Scheduler.routes)
    | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e)
  done

let test_scheduler_rejects_unroutable_batch () =
  (* The adversary's m = 2 witness batch is genuinely unroutable with
     the x = 1 strategy: the probe's single middle must carry both
     output modules, leaving the two same-switch unicasts to share one
     remaining middle with k = 1.  The scheduler must fail — with and
     without rearrangement — and leave the network empty. *)
  let topo = Topology.make_exn ~n:2 ~m:2 ~r:2 ~k:1 in
  let a =
    Assignment.make
      [ conn (ep 1 1) [ ep 4 1 ]; conn (ep 2 1) [ ep 2 1 ];
        conn (ep 3 1) [ ep 1 1; ep 3 1 ] ]
  in
  List.iter
    (fun rearrange ->
      let t = Network.create
          ~config:{ Network.Config.default with x_limit = Some 1 }
          ~construction:Network.Msw_dominant
          ~output_model:Model.MSW topo in
      (match Scheduler.route_assignment ~max_order_attempts:6 ~rearrange t a with
      | Error (Network.Blocked _) -> ()
      | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e)
      | Ok _ -> Alcotest.fail "batch should be unroutable at m = 2, x = 1");
      Alcotest.(check int) "network left empty" 0
        (List.length (Network.active_routes t)))
    [ false; true ];
  (* relaxing the routing strategy to x = 2 makes the same batch
     routable: the probe splits across both middles *)
  let t = Network.create
      ~config:{ Network.Config.default with x_limit = Some 2 }
      ~construction:Network.Msw_dominant
      ~output_model:Model.MSW topo in
  match Scheduler.route_assignment t a with
  | Ok outcome ->
    Alcotest.(check int) "routable at x=2" 3 (List.length outcome.Scheduler.routes)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e)

let test_scheduler_rearrange_recovers_below_bound () =
  (* Below the theorem bound a fixed-order first-fit pass loses some
     full assignments that are merely order-blocked; rearrangement (one
     move per placement) must recover a share of them, and every outright
     failure must leave the network empty. *)
  let topo = Topology.make_exn ~n:2 ~m:3 ~r:2 ~k:2 in
  let spec = Topology.spec topo in
  let mk () =
    Network.create
      ~config:{ Network.Config.default with strategy = "first-fit" }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let fixed_losses = ref 0 and recovered = ref 0 in
  for seed = 1 to 60 do
    let a =
      Wdm_traffic.Generator.random_full_assignment
        (Random.State.make [| seed |])
        spec Model.MSW
    in
    let t = mk () in
    match Scheduler.route_assignment ~max_order_attempts:1 ~rearrange:false t a with
    | Ok _ -> ()
    | Error _ ->
      incr fixed_losses;
      Alcotest.(check int) "empty after fixed-order failure" 0
        (List.length (Network.active_routes t));
      let t' = mk () in
      (match Scheduler.route_assignment ~max_order_attempts:1 ~rearrange:true t' a with
      | Ok outcome ->
        incr recovered;
        Alcotest.(check bool) "recovery used a rearrangement" true
          (outcome.Scheduler.reroutes > 0);
        Alcotest.(check int) "all connections placed" (Assignment.size a)
          (List.length outcome.Scheduler.routes)
      | Error _ ->
        Alcotest.(check int) "empty after rearranged failure" 0
          (List.length (Network.active_routes t')))
  done;
  Alcotest.(check bool) "fixed order lost some assignments" true
    (!fixed_losses > 0);
  Alcotest.(check bool) "rearrangement recovered some of them" true
    (!recovered > 0)

let test_scheduler_empty_and_validation () =
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:1 in
  let t = Network.create ~construction:Network.Msw_dominant
      ~output_model:Model.MSW topo in
  (match Scheduler.route_assignment t Assignment.empty with
  | Ok { Scheduler.routes = []; _ } -> ()
  | _ -> Alcotest.fail "empty assignment");
  ignore (check_ok (Network.connect t (conn (ep 1 1) [ ep 1 1 ])));
  Alcotest.check_raises "non-empty network"
    (Invalid_argument "Scheduler.route_assignment: network not empty") (fun () ->
      ignore (Scheduler.route_assignment t Assignment.empty))

(* --- exhaustive adversary ------------------------------------------------ *)

let test_adversary_exact_frontier () =
  (* n = r = 2, k = 1: Theorem 1 gives m_min = 4; exhaustive search over
     the whole reachable state space shows the true frontier is m = 2 —
     a blocking witness exists at m = 2 and m = 3 is provably
     nonblocking under the engine's routing.  (Sufficient, not
     necessary, exactly as expected at this tiny size.) *)
  let results =
    Wdm_analysis.Adversary.frontier_exact ~construction:Network.Msw_dominant
      ~output_model:Model.MSW ~n:2 ~r:2 ~k:1 ()
  in
  (match List.assoc_opt 2 results with
  | Some (Wdm_analysis.Adversary.Blocking w) ->
    Alcotest.(check bool) "witness replays" true
      (Wdm_analysis.Adversary.replay ~construction:Network.Msw_dominant
         ~output_model:Model.MSW
         (Topology.make_exn ~n:2 ~m:2 ~r:2 ~k:1)
         w)
  | _ -> Alcotest.fail "expected a blocking witness at m = 2");
  List.iter
    (fun m ->
      match List.assoc_opt m results with
      | Some (Wdm_analysis.Adversary.Nonblocking_proved _) -> ()
      | Some v ->
        Alcotest.fail
          (Format.asprintf "m=%d should be proved nonblocking, got %a" m
             Wdm_analysis.Adversary.pp_verdict v)
      | None -> Alcotest.fail "missing m in frontier")
    [ 3; 4 ]

let test_adversary_maw_dominant_small () =
  (* Same exhaustive treatment for the MAW-dominant construction with
     k = 1 (where it coincides with MSW-dominant behaviourally). *)
  let results =
    Wdm_analysis.Adversary.frontier_exact ~construction:Network.Maw_dominant
      ~output_model:Model.MAW ~n:2 ~r:2 ~k:1 ()
  in
  (match List.assoc_opt 2 results with
  | Some (Wdm_analysis.Adversary.Blocking _) -> ()
  | _ -> Alcotest.fail "expected blocking at m = 2");
  match List.assoc_opt 4 results with
  | Some (Wdm_analysis.Adversary.Nonblocking_proved _) -> ()
  | _ -> Alcotest.fail "expected proof at m = 4"

let test_adversary_budget () =
  let topo = Topology.make_exn ~n:2 ~m:3 ~r:2 ~k:1 in
  match
    Wdm_analysis.Adversary.search ~max_states:5
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  with
  | Wdm_analysis.Adversary.Search_exhausted { states_explored = 5 } -> ()
  | v ->
    Alcotest.fail
      (Format.asprintf "expected exhaustion, got %a"
         Wdm_analysis.Adversary.pp_verdict v)

(* --- property: random topologies at the bound never block ----------------- *)

let prop_random_topologies_nonblocking =
  QCheck.Test.make ~name:"random (n,r,k) at m_min never blocks" ~count:25
    (QCheck.make
       ~print:(fun (n, r, k, seed) -> Printf.sprintf "n=%d r=%d k=%d seed=%d" n r k seed)
       QCheck.Gen.(
         quad (int_range 2 4) (int_range 2 4) (int_range 1 3) (int_range 0 10000)))
    (fun (n, r, k, seed) ->
      let eval = Conditions.msw_dominant ~n ~r in
      let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW
          ~n ~m:eval.Conditions.m_min ~r ~k () in
      let stats =
        Wdm_traffic.Churn.run
          (Random.State.make [| seed |])
          ~spec:(Topology.spec (Network.topology t)) ~model:Model.MSW
          ~fanout:(Wdm_traffic.Fanout.Zipf { max = n * r; s = 1.0 })
          ~steps:150 ~teardown_bias:0.35 (churn_sut t)
      in
      stats.Wdm_traffic.Churn.blocked = 0)

let () =
  Alcotest.run "wdm_routing"
    [
      ( "routing-basics",
        [
          Alcotest.test_case "unicast route shape" `Quick test_unicast_route_shape;
          Alcotest.test_case "multicast within x" `Quick test_multicast_within_x_limit;
          Alcotest.test_case "disconnect restores" `Quick test_disconnect_restores_state;
          Alcotest.test_case "admission errors" `Quick test_admission_errors;
          Alcotest.test_case "per-wavelength sources" `Quick
            test_duplicate_source_wavelengths_are_independent;
        ] );
      ( "state-invariants",
        [
          Alcotest.test_case "churn occupancy" `Slow test_state_invariant_under_churn;
          Alcotest.test_case "wavelength discipline" `Slow
            test_route_wavelength_discipline;
          Alcotest.test_case "exact fanout cover" `Slow test_route_covers_exact_fanout;
        ] );
      ("nonblocking-theorems", nonblocking_suite);
      ( "blocking-below-bound",
        [ Alcotest.test_case "m = n blocks" `Slow test_blocking_below_bound_exists ] );
      ("fig10", [ Alcotest.test_case "MSW blocks, MAW routes" `Quick test_fig10 ]);
      ( "strategies",
        [
          Alcotest.test_case "all admit easy load" `Slow
            test_strategies_agree_on_feasibility;
          Alcotest.test_case "exhaustive subsumes greedy" `Quick
            test_exhaustive_not_worse_than_greedy;
        ] );
      ("physical-integration", physical_suite);
      ( "physical-stepwise",
        [
          Alcotest.test_case "light verified after every op" `Slow
            test_physical_tracks_every_step;
        ] );
      ( "physical-census",
        [ Alcotest.test_case "counts match Table 2" `Quick test_physical_component_census ]
      );
      ( "fault-injection",
        [
          Alcotest.test_case "fail returns victims" `Quick test_fail_middle_returns_victims;
          Alcotest.test_case "m_min+f tolerates f faults" `Slow
            test_fault_tolerant_provisioning;
          Alcotest.test_case "all failed blocks" `Quick
            test_all_middles_failed_blocks_everything;
        ] );
      ( "rearrangement",
        [
          Alcotest.test_case "unblocks the m=2 witness" `Quick
            test_rearrangement_unblocks;
          Alcotest.test_case "noop when free" `Quick test_rearrangement_noop_when_free;
          Alcotest.test_case "victim keeps its id" `Quick
            test_rearrangement_preserves_victim_id;
          Alcotest.test_case "failure restores state" `Quick
            test_rearrangement_failure_restores_state;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "full assignments at the bound" `Slow
            test_scheduler_routes_full_assignments_at_bound;
          Alcotest.test_case "unroutable batch rejected; x=2 routes it" `Quick
            test_scheduler_rejects_unroutable_batch;
          Alcotest.test_case "rearrangement recovers below the bound" `Slow
            test_scheduler_rearrange_recovers_below_bound;
          Alcotest.test_case "empty & validation" `Quick
            test_scheduler_empty_and_validation;
        ] );
      ("capacity-equality", capacity_equality_suite);
      ( "adversary",
        [
          Alcotest.test_case "exact frontier n=r=2 k=1" `Slow
            test_adversary_exact_frontier;
          Alcotest.test_case "MAW-dominant k=1" `Slow test_adversary_maw_dominant_small;
          Alcotest.test_case "budget respected" `Quick test_adversary_budget;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_random_topologies_nonblocking ] );
    ]
