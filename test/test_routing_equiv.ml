(* The bitset link-state implementation is an optimization, not a
   behaviour change: for any seeded workload it must pick byte-identical
   routes to the retained bool-array reference implementation.  These
   tests drive both implementations in lockstep through churn with
   faults in force (checking after every op that each network's running
   state digest equals its restored encoding's), and pin the supporting
   data structures (Bitops, Event_heap, Free_pool) against naive
   references.  Also here: the fault-counter reconciliation and
   run_timed gauge-reset regressions. *)

open Wdm_core
open Wdm_multistage
module Tel = Wdm_telemetry
module Fault = Wdm_faults.Fault
module Schedule = Wdm_faults.Schedule
module Backend = Wdm_persist.Backend
open Wdm_traffic

let rng seed = Random.State.make [| seed |]

(* --- Bitops vs naive references ----------------------------------------- *)

let naive_popcount x =
  let c = ref 0 in
  for i = 0 to 61 do
    if x land (1 lsl i) <> 0 then incr c
  done;
  !c

let naive_ctz x =
  let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
  if x = 0 then 62 else go 0

let test_bitops () =
  let r = rng 42 in
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "popcount %d" x)
        (naive_popcount x) (Wdm_core.Bitops.popcount x);
      Alcotest.(check int)
        (Printf.sprintf "ctz %d" x)
        (naive_ctz x) (Wdm_core.Bitops.ctz x))
    (0 :: 1 :: 2 :: 3 :: max_int :: (1 lsl 61)
    :: List.init 200 (fun _ -> Random.State.int r ((1 lsl 30) - 1)));
  (* lowest_clear reproduces the linear first-free scan *)
  for width = 1 to 8 do
    for x = 0 to (1 lsl width) - 1 do
      let naive =
        let rec go i =
          if i >= width then None
          else if x land (1 lsl i) = 0 then Some i
          else go (i + 1)
        in
        go 0
      in
      Alcotest.(check (option int))
        (Printf.sprintf "lowest_clear w=%d x=%d" width x)
        naive
        (Wdm_core.Bitops.lowest_clear ~width x)
    done
  done;
  (* iter_set visits set bits in ascending order *)
  let visited = ref [] in
  Wdm_core.Bitops.iter_set ~width:10 (fun i -> visited := i :: !visited) 0b1010010110;
  Alcotest.(check (list int)) "iter_set" [ 1; 2; 4; 7; 9 ] (List.rev !visited)

(* --- Event_heap vs sorted-list semantics -------------------------------- *)

let test_event_heap () =
  let module H = Wdm_traffic.Event_heap in
  let h = H.create () in
  Alcotest.(check bool) "empty peek" true (H.peek h = None);
  let r = rng 7 in
  (* reference: stable sorted list with strictly-less-inserts-before *)
  let reference = ref [] in
  let insert time v =
    let rec go = function
      | (t', v') :: rest when t' <= time -> (t', v') :: go rest
      | rest -> (time, v) :: rest
    in
    reference := go !reference
  in
  for i = 0 to 499 do
    (* coarse times force plenty of ties *)
    let time = float_of_int (Random.State.int r 20) in
    H.push h ~time i;
    insert time i
  done;
  Alcotest.(check int) "size" 500 (H.size h);
  List.iter
    (fun (t_ref, v_ref) ->
      match H.pop h with
      | None -> Alcotest.fail "heap drained early"
      | Some (t, v) ->
        Alcotest.(check (float 0.)) "time order" t_ref t;
        Alcotest.(check int) "FIFO on ties" v_ref v)
    !reference;
  Alcotest.(check bool) "drained" true (H.pop h = None)

(* --- Free_pool vs List.filter ------------------------------------------- *)

let test_free_pool () =
  let sp = Network_spec.make_exn ~n:5 ~k:3 in
  let universe = Network_spec.inputs sp in
  let pool = Free_pool.create universe in
  let busy = Hashtbl.create 16 in
  let reference () =
    List.filter (fun e -> not (Hashtbl.mem busy e)) universe
  in
  let r = rng 13 in
  for _ = 1 to 2000 do
    let e = List.nth universe (Random.State.int r (List.length universe)) in
    if Random.State.bool r then begin
      Free_pool.remove pool e;
      Hashtbl.replace busy e ()
    end
    else begin
      Free_pool.add pool e;
      Hashtbl.remove busy e
    end;
    Alcotest.(check int) "count" (List.length (reference ()))
      (Free_pool.free_count pool)
  done;
  Alcotest.(check bool) "contents and order" true
    (reference () = Free_pool.to_list pool);
  Alcotest.check_raises "outside universe"
    (Invalid_argument "Free_pool: endpoint outside the universe")
    (fun () -> Free_pool.remove pool (Endpoint.make ~port:99 ~wl:1))

(* --- lockstep equivalence: Bitset vs Reference -------------------------- *)

(* The digest contract: a live network's running digest equals the
   digest of its own restored encoding.  Restore re-adds the routes in
   id order, while the live sum saw op order, re-keyed rearrangement
   moves and fault teardowns. *)
let check_digest_roundtrip label net =
  let live = Backend.Net net in
  match Backend.restore (Backend.encode_state live) with
  | Error e -> Alcotest.failf "%s: restore failed: %s" label e
  | Ok restored ->
    if Backend.digest live <> Backend.digest restored then
      Alcotest.failf "%s: live digest %d, restored %d" label
        (Backend.digest live) (Backend.digest restored)

(* A faulty_sut that applies every operation to both networks and fails
   the test on any observable divergence, or on either network breaking
   the digest contract after the op.  [moves] counts rearrangements. *)
let lockstep_sut ~moves ta tb =
  let checked x =
    check_digest_roundtrip "bitset" ta;
    check_digest_roundtrip "reference" tb;
    x
  in
  let check_routes label (ra : Network.route) (rb : Network.route) =
    if ra <> rb then
      Alcotest.failf "%s diverged:@.bitset    %a@.reference %a" label
        Network.pp_route ra Network.pp_route rb
  in
  let connect_both via c =
    match (via ta c, via tb c) with
    | Ok (ra : Network.route), Ok rb ->
      check_routes "route" ra rb;
      Ok ra.Network.id
    | Error ea, Error eb ->
      let s e = Format.asprintf "%a" Network.pp_error e in
      Alcotest.(check string) "same error" (s ea) (s eb);
      Error ea
    | Ok ra, Error eb ->
      Alcotest.failf "bitset admitted %a, reference blocked with %a"
        Network.pp_route ra Network.pp_error eb
    | Error ea, Ok rb ->
      Alcotest.failf "reference admitted %a, bitset blocked with %a"
        Network.pp_route rb Network.pp_error ea
  in
  {
    Churn.base =
      {
        Churn.connect = (fun c -> checked (connect_both Network.connect c));
        disconnect =
          (fun id ->
            ignore (Network.disconnect ta id);
            ignore (Network.disconnect tb id);
            checked ());
      };
    inject =
      (fun f ->
        let va = Network.inject_fault ta f and vb = Network.inject_fault tb f in
        Alcotest.(check int)
          (Format.asprintf "victims of %a" Fault.pp f)
          (List.length va) (List.length vb);
        if va <> vb then
          Alcotest.failf "victim sets of %s diverged" (Fault.to_string f);
        checked va);
    clear =
      (fun f ->
        Network.clear_fault ta f;
        Network.clear_fault tb f;
        checked ());
    reconnect =
      (fun c ->
        checked
          (match (Network.connect_rearrangeable ta c, Network.connect_rearrangeable tb c) with
          | Ok (ra, ma), Ok (rb, mb) ->
            check_routes "rearranged route" ra rb;
            Alcotest.(check int) "moves" ma mb;
            moves := !moves + ma;
            Ok ra.Network.id
          | Error ea, Error _ -> Error ea
          | _ -> Alcotest.fail "rearrangement admit/deny diverged"))
  }

let run_lockstep ~moves ~seed ~construction ~output_model ~strategy ~n ~m ~r ~k =
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let ta =
    Network.create
      ~config:
        { Network.Config.default with strategy;
          link_impl = Some Network.Bitset }
      ~construction ~output_model topo
  and tb =
    Network.create
      ~config:
        { Network.Config.default with strategy;
          link_impl = Some Network.Reference }
      ~construction ~output_model topo
  in
  Alcotest.(check bool) "impls differ" true
    (Network.link_impl ta <> Network.link_impl tb);
  let schedule =
    Schedule.generate ~rng:(rng (seed + 1000))
      ~universe:(Fault.universe ~m ~r ~k)
      ~mtbf:120. ~mttr:60. ~steps:400
    |> List.map (fun { Schedule.step; action } ->
           match action with
           | Schedule.Inject f -> (step, `Inject f)
           | Schedule.Clear f -> (step, `Clear f))
  in
  let s =
    Churn.run_with_faults (rng seed)
      ~spec:(Topology.spec topo) ~model:output_model
      ~fanout:(Fanout.Uniform (1, r))
      ~steps:400 ~teardown_bias:0.4 ~schedule (lockstep_sut ~moves ta tb)
  in
  (* the workload must actually exercise the interesting paths *)
  Alcotest.(check bool) "some accepts" true (s.Churn.churn.Churn.accepted > 0);
  (* and the final states must agree wholesale *)
  let final t = Format.asprintf "%a" Network.pp_state t in
  Alcotest.(check string) "final state" (final tb) (final ta);
  Alcotest.(check bool) "final routes" true
    (Network.active_routes ta = Network.active_routes tb);
  s

let test_lockstep_msw () =
  let exercised_faults = ref false in
  let moves = ref 0 in
  for seed = 1 to 6 do
    let s =
      run_lockstep ~moves ~seed ~construction:Network.Msw_dominant
        ~output_model:Model.MSW ~strategy:Network.Min_intersection ~n:3 ~m:6
        ~r:3 ~k:2
    in
    if s.Churn.injected > 0 then exercised_faults := true
  done;
  Alcotest.(check bool) "faults were in force" true !exercised_faults;
  Alcotest.(check bool) "rearrangements moved routes" true (!moves > 0)

let test_lockstep_maw () =
  let exercised_faults = ref false in
  let moves = ref 0 in
  for seed = 1 to 6 do
    let s =
      run_lockstep ~moves ~seed ~construction:Network.Maw_dominant
        ~output_model:Model.MAW ~strategy:Network.First_fit ~n:3 ~m:5 ~r:3 ~k:2
    in
    if s.Churn.injected > 0 then exercised_faults := true
  done;
  Alcotest.(check bool) "faults were in force" true !exercised_faults;
  Alcotest.(check bool) "rearrangements moved routes" true (!moves > 0)

(* Static spot-check on a wider-than-62-wavelength fabric: the packed
   representation is refused and the wide fallback engages. *)
let test_wide_k_fallback () =
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:63 in
  let t =
    Network.create ~construction:Network.Maw_dominant ~output_model:Model.MAW
      topo
  in
  Alcotest.(check bool) "falls back to reference" true
    (Network.link_impl t = Network.Reference);
  Alcotest.check_raises "packed refused"
    (Invalid_argument "Network.create: Bitset link state needs k <= 62")
    (fun () ->
      ignore
        (Network.create
           ~config:
             { Network.Config.default with link_impl = Some Network.Bitset }
           ~construction:Network.Maw_dominant ~output_model:Model.MAW topo))

(* --- fault-counter reconciliation (duplicate injections) ----------------- *)

let faulty_sut t =
  {
    Churn.base =
      {
        Churn.connect =
          (fun c ->
            match Network.connect t c with
            | Ok route -> Ok route.Network.id
            | Error e -> Error e);
        disconnect = (fun id -> ignore (Network.disconnect t id));
      };
    inject = Network.inject_fault t;
    clear = Network.clear_fault t;
    reconnect =
      (fun c ->
        match Network.connect_rearrangeable t c with
        | Ok (route, _) -> Ok route.Network.id
        | Error e -> Error e);
  }

let test_duplicate_injection_counters () =
  let sink = Tel.Sink.create () in
  let topo = Topology.make_exn ~n:3 ~m:8 ~r:3 ~k:2 in
  let t =
    Network.create
      ~config:{ Network.Config.default with telemetry = Some sink }
      ~construction:Network.Msw_dominant
      ~output_model:Model.MSW topo
  in
  (* m1 injected twice, cleared twice; m2 injected twice, never cleared;
     the re-injections and re-clear are no-ops for the network, so the
     driver must not count them either. *)
  let schedule =
    [
      (5, `Inject (Fault.Middle 1));
      (10, `Inject (Fault.Middle 1));
      (15, `Clear (Fault.Middle 1));
      (20, `Clear (Fault.Middle 1));
      (25, `Inject (Fault.Middle 2));
      (30, `Inject (Fault.Middle 2));
    ]
  in
  let s =
    Churn.run_with_faults ~telemetry:sink (rng 3) ~spec:(Topology.spec topo)
      ~model:Model.MSW
      ~fanout:(Fanout.Uniform (1, 3))
      ~steps:60 ~teardown_bias:0.3 ~schedule (faulty_sut t)
  in
  Alcotest.(check int) "stats.injected" 2 s.Churn.injected;
  Alcotest.(check int) "stats.cleared" 1 s.Churn.cleared;
  let snap = Tel.Sink.snapshot sink in
  let c name = Option.get (Tel.Metrics.find_counter snap name) in
  Alcotest.(check int) "driver and network inject counters reconcile"
    (c "wdmnet_faults_injected_total")
    (c "churn_faults_injected_total");
  Alcotest.(check int) "driver and network clear counters reconcile"
    (c "wdmnet_faults_cleared_total")
    (c "churn_faults_cleared_total");
  Alcotest.(check int) "injects counted once" 2 (c "churn_faults_injected_total");
  Alcotest.(check int) "clears counted once" 1 (c "churn_faults_cleared_total");
  Alcotest.(check int) "m2 still in force" 1 (List.length (Network.faults t))

(* --- run_timed leaves the active gauge clean ----------------------------- *)

let test_run_timed_gauge_reset () =
  let sink = Tel.Sink.create () in
  let topo = Topology.make_exn ~n:4 ~m:10 ~r:4 ~k:2 in
  let t =
    Network.create
      ~config:{ Network.Config.default with telemetry = Some sink }
      ~construction:Network.Msw_dominant
      ~output_model:Model.MSW topo
  in
  let sut =
    {
      Churn.connect =
        (fun c ->
          match Network.connect t c with
          | Ok route -> Ok route.Network.id
          | Error e -> Error e);
      disconnect = (fun id -> ignore (Network.disconnect t id));
    }
  in
  let s =
    Churn.run_timed ~telemetry:sink (rng 5) ~spec:(Topology.spec topo)
      ~model:Model.MSW ~fanout:(Fanout.Fixed 1) ~arrival_rate:2.0
      ~mean_holding:5.0 ~horizon:50. sut
  in
  (* long holding vs the horizon: some connections must still be up *)
  Alcotest.(check bool) "connections abandoned in flight" true
    (s.Churn.completed < s.Churn.t_accepted);
  Alcotest.(check bool) "network still holds them" true
    (Network.active_routes t <> []);
  let snap = Tel.Sink.snapshot sink in
  Alcotest.(check (float 0.)) "gauge reset at run end" 0.
    (Option.get (Tel.Metrics.find_gauge snap "churn_active_connections"))

let () =
  Alcotest.run "wdm_routing_equiv"
    [
      ( "primitives",
        [
          Alcotest.test_case "bitops" `Quick test_bitops;
          Alcotest.test_case "event heap" `Quick test_event_heap;
          Alcotest.test_case "free pool" `Quick test_free_pool;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "msw-dominant, min-intersection" `Slow
            test_lockstep_msw;
          Alcotest.test_case "maw-dominant, first-fit" `Slow test_lockstep_maw;
          Alcotest.test_case "k > 62 falls back" `Quick test_wide_k_fallback;
        ] );
      ( "counters",
        [
          Alcotest.test_case "duplicate injections reconcile" `Quick
            test_duplicate_injection_counters;
          Alcotest.test_case "run_timed resets active gauge" `Quick
            test_run_timed_gauge_reset;
        ] );
    ]
