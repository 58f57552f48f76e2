(* The engine's packed link planes against the bool-array oracle
   ([Network_oracle]): through faulted, rearranging churns at k = 2 and
   at k > 62, where a link's plane spans several words, every admission
   must match the oracle's prediction (the route, or the refusal with
   its Blocked picture), and after every op the engine's per-link
   counts must match planes rebuilt from its snapshot and its running
   digest must equal its restored encoding's.  Goldens recorded before
   the planes became multi-word pin k > 62 routes and the bench's quick
   trace.  Also here: the supporting data structures (Bitops,
   Event_heap, Free_pool) against naive references, and the
   fault-counter reconciliation and run_timed gauge-reset
   regressions. *)

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
  Alcotest.(check (list int)) "iter_set" [ 1; 2; 4; 7; 9 ] (List.rev !visited);
  (* a multi-word set: bit i is one bit of one word, in order, and
     words_for n words hold bits 0 .. n-1 *)
  for i = 0 to 200 do
    let open Wdm_core.Bitops in
    Alcotest.(check int)
      (Printf.sprintf "word/bit of %d" i)
      i
      ((word_of i * word_bits) + naive_ctz (bit_of i));
    Alcotest.(check int) (Printf.sprintf "popcount bit_of %d" i) 1
      (popcount (bit_of i));
    Alcotest.(check int)
      (Printf.sprintf "words_for %d" (i + 1))
      (word_of i + 1)
      (words_for (i + 1))
  done

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

(* --- lockstep equivalence: engine vs the bool-array oracle ------------- *)

(* The digest contract: a live network's running digest equals the
   digest of its own restored encoding.  Restore re-adds the routes in
   id order, while the live sum saw op order, re-keyed rearrangement
   moves and fault teardowns. *)
let check_digest_roundtrip net =
  let live = Backend.Net net in
  match Backend.restore (Backend.encode_state live) with
  | Error e -> Alcotest.failf "restore failed: %s" e
  | Ok restored ->
    if Backend.digest live <> Backend.digest restored then
      Alcotest.failf "live digest %d, restored %d" (Backend.digest live)
        (Backend.digest restored)

(* The engine's per-link view against bool-array planes rebuilt from
   its own snapshot: busy stage-1 wavelengths per (input module,
   middle), and each middle's destination multiset on every
   wavelength. *)
let check_planes net =
  let oracle = Network_oracle.of_snapshot (Network.snapshot net) in
  let topo = Network.topology net in
  for input_switch = 1 to topo.Topology.r do
    for middle = 1 to topo.Topology.m do
      let e = Network.stage1_in_use net ~input_switch ~middle
      and o = Network_oracle.stage1_in_use oracle ~input_switch ~middle in
      if e <> o then
        Alcotest.failf "stage-1 link (%d, %d): engine %d busy, oracle %d"
          input_switch middle e o
    done
  done;
  for middle = 1 to topo.Topology.m do
    for wl = 1 to topo.Topology.k do
      let e = Network.destination_multiset_plane net ~middle ~wl
      and o = Network_oracle.destination_multiset_plane oracle ~middle ~wl in
      if not (Multiset.equal e o) then
        Alcotest.failf "M_%d on l%d: engine %a, oracle %a" middle wl
          Multiset.pp e Multiset.pp o
    done
  done

let top_wavelength (route : Network.route) =
  List.fold_left
    (fun acc (h : Network.hop) ->
      List.fold_left (fun acc (_, w) -> max acc w) (max acc h.Network.stage1_wl)
        h.Network.serves)
    0 route.Network.hops

(* A faulty_sut that applies every operation to the engine and fails
   the test on any divergence from the oracle.  Each admission is
   predicted by an oracle rebuilt from the engine's snapshot just
   before it; after every op the engine's planes must match an oracle
   rebuilt from its new snapshot, and its running digest must survive a
   restore.  [moves] counts rearrangements, [top_wl] tracks the highest
   wavelength any hop rode. *)
let lockstep_sut ~moves ~top_wl net =
  let oracle () = Network_oracle.of_snapshot (Network.snapshot net) in
  let checked x =
    check_planes net;
    check_digest_roundtrip net;
    x
  in
  let same_route label (expected : Network.route) (got : Network.route) =
    if expected <> got then
      Alcotest.failf "%s diverged:@.oracle %a@.engine %a" label
        Network.pp_route expected Network.pp_route got;
    top_wl := max !top_wl (top_wavelength got)
  in
  let outcome label same expected got =
    match (expected, got) with
    | Ok e, Ok g -> same e g
    | Error e, Error g ->
      if e <> g then
        Alcotest.failf "%s refusals diverged:@.oracle %a@.engine %a" label
          Network.pp_error e Network.pp_error g
    | Ok _, Error g ->
      Alcotest.failf "%s: the oracle admits, the engine refuses with %a" label
        Network.pp_error g
    | Error e, Ok _ ->
      Alcotest.failf "%s: the engine admits, the oracle refuses with %a" label
        Network.pp_error e
  in
  let id_of = Result.map (fun (route : Network.route) -> route.Network.id) in
  {
    Churn.base =
      {
        Churn.connect =
          (fun c ->
            let expected = Network_oracle.connect (oracle ()) c in
            let got = Network.connect net c in
            outcome "connect" (same_route "route") expected got;
            checked (id_of got));
        disconnect =
          (fun id ->
            ignore (Network.disconnect net id);
            checked ());
      };
    inject = (fun f -> checked (Network.inject_fault net f));
    clear =
      (fun f ->
        Network.clear_fault net f;
        checked ());
    reconnect =
      (fun c ->
        let expected = Network_oracle.connect_rearrangeable (oracle ()) c in
        let got = Network.connect_rearrangeable net c in
        outcome "rearrangement"
          (fun (route, moved) (route', n) ->
            same_route "rearranged route" route route';
            Alcotest.(check int) "moves"
              (Option.fold ~none:0 ~some:(fun _ -> 1) moved)
              n;
            moves := !moves + n;
            Option.iter
              (fun (victim : Network.route) ->
                match Network.find_route net victim.Network.id with
                | Some live -> same_route "moved victim" victim live
                | None ->
                  Alcotest.failf "moved victim %d is gone" victim.Network.id)
              moved)
          expected got;
        checked (id_of (Result.map fst got)));
  }

let fault_events schedule =
  List.map
    (fun { Schedule.step; action } ->
      match action with
      | Schedule.Inject f -> (step, `Inject f)
      | Schedule.Clear f -> (step, `Clear f))
    schedule

let run_lockstep ~moves ~seed ~construction ~output_model ~strategy ~n ~m ~r ~k =
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let net =
    Network.create
      ~config:{ Network.Config.default with strategy }
      ~construction ~output_model topo
  in
  let schedule =
    Schedule.generate ~rng:(rng (seed + 1000))
      ~universe:(Fault.universe ~m ~r ~k)
      ~mtbf:120. ~mttr:60. ~steps:400
    |> fault_events
  in
  let s =
    Churn.run_with_faults (rng seed)
      ~spec:(Topology.spec topo) ~model:output_model
      ~fanout:(Fanout.Uniform (1, r))
      ~steps:400 ~teardown_bias:0.4 ~schedule
      (lockstep_sut ~moves ~top_wl:(ref 0) net)
  in
  (* the workload must actually exercise the interesting paths *)
  Alcotest.(check bool) "some accepts" true (s.Churn.churn.Churn.accepted > 0);
  s

let test_lockstep_msw () =
  let exercised_faults = ref false in
  let moves = ref 0 in
  for seed = 1 to 6 do
    let s =
      run_lockstep ~moves ~seed ~construction:Network.Msw_dominant
        ~output_model:Model.MSW ~strategy:"min-intersection" ~n:3 ~m:6
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
        ~output_model:Model.MAW ~strategy:"first-fit" ~n:3 ~m:5 ~r:3 ~k:2
    in
    if s.Churn.injected > 0 then exercised_faults := true
  done;
  Alcotest.(check bool) "faults were in force" true !exercised_faults;
  Alcotest.(check bool) "rearrangements moved routes" true (!moves > 0)

(* A seeded faulted churn on a small fabric (n = m = r = 2) loaded
   until its links carry more than 62 wavelengths at the larger k.  The
   fault rate scales with the component universe, so a wide fabric is
   not simply drowned in dead lasers. *)
let wide_churn ?(strategy = "min-intersection") ~seed ~construction
    ~output_model ~k make_sut =
  let n = 2 and m = 2 and r = 2 and steps = 1200 in
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let net =
    Network.create
      ~config:{ Network.Config.default with strategy }
      ~construction ~output_model topo
  in
  let universe = Fault.universe ~m ~r ~k in
  let schedule =
    Schedule.generate ~rng:(rng (seed + 1000)) ~universe
      ~mtbf:(15. *. float_of_int (List.length universe))
      ~mttr:60. ~steps
    |> fault_events
  in
  Churn.run_with_faults (rng seed) ~spec:(Topology.spec topo) ~model:output_model
    ~fanout:(Fanout.Uniform (1, 4)) ~steps ~teardown_bias:0.25 ~schedule
    (make_sut net)

(* The oracle lockstep on fabrics whose planes span two and three
   words, under each construction and both greedy selectors; some hop
   must ride a wavelength of the second word.  Its seeds are not the
   goldens' (seed = k), so it predicts admissions they do not pin. *)
let test_lockstep_wide k () =
  let top_wl = ref 0 and moves = ref 0 in
  for seed = 1 to 3 do
    List.iter
      (fun (construction, output_model, strategy) ->
        ignore
          (wide_churn ~strategy ~seed ~construction ~output_model ~k
             (lockstep_sut ~moves ~top_wl)))
      [
        (Network.Msw_dominant, Model.MSW, "min-intersection");
        (Network.Maw_dominant, Model.MSDW, "min-intersection");
        (Network.Maw_dominant, Model.MAW, "first-fit");
      ]
  done;
  Alcotest.(check bool) "a hop rode a wavelength above 62" true (!top_wl > 62)

(* First-free is the lowest usable wavelength across all of a link's
   words: with n = m = 1 every connection from input module 1 shares
   stage-1 link (1, 1), so the k-th one lands on wavelength k, a freed
   slot is reused before any higher one, and a dead laser is skipped. *)
let test_first_free_spans_words () =
  List.iter
    (fun k ->
      let net =
        Network.create ~construction:Network.Maw_dominant
          ~output_model:Model.MAW
          (Topology.make_exn ~n:1 ~m:1 ~r:2 ~k)
      in
      let unicast w =
        Connection.make_exn
          ~source:(Endpoint.make ~port:1 ~wl:w)
          ~destinations:[ Endpoint.make ~port:2 ~wl:w ]
      in
      let admit w =
        match Network.connect net (unicast w) with
        | Ok route -> route
        | Error e -> Alcotest.failf "k=%d l%d: %a" k w Network.pp_error e
      in
      let hop_wls (route : Network.route) =
        List.map
          (fun (h : Network.hop) ->
            (h.Network.stage1_wl, List.map snd h.Network.serves))
          route.Network.hops
      in
      let routes = List.init k (fun i -> admit (i + 1)) in
      let last = List.nth routes (k - 1) in
      Alcotest.(check (list (pair int (list int))))
        (Printf.sprintf "k=%d: the k-th connection rides l%d" k k)
        [ (k, [ k ]) ] (hop_wls last);
      Alcotest.(check int) "stage-1 link full" k
        (Network.stage1_in_use net ~input_switch:1 ~middle:1);
      Alcotest.(check int) "M_1 counts every wavelength" k
        (Multiset.multiplicity (Network.destination_multiset net 1) 2);
      (* free l3 and the top wavelength, kill l3's stage-1 laser: the
         next connection must skip the dead slot and take l_k *)
      ignore (Network.disconnect net (List.nth routes 2).Network.id);
      ignore (Network.disconnect net last.Network.id);
      ignore
        (Network.inject_fault net
           (Fault.Stage1_laser { input = 1; middle = 1; wl = 3 }));
      Alcotest.(check (list (pair int (list int))))
        (Printf.sprintf "k=%d: the dead l3 is skipped" k)
        [ (k, [ 3 ]) ] (hop_wls (admit 3));
      check_planes net)
    [ 63; 124; 125 ]

(* --- goldens recorded before the planes became multi-word --------------- *)

(* An observing sut: the hop checksum ([Op.route_checksum]) over every
   admitted and re-homed route, and an MD5 over every outcome's raw
   fields (hops, or the refusal cause). *)
let golden_sut ~checksum ~trace net =
  let note = function
    | Ok (route : Network.route) ->
      checksum := Wdm_persist.Op.route_checksum !checksum route;
      Buffer.add_string trace
        (Printf.sprintf "+%d@%d" route.Network.id route.Network.input_switch);
      List.iter
        (fun (h : Network.hop) ->
          Buffer.add_string trace
            (Printf.sprintf "/%d:%d" h.Network.middle h.Network.stage1_wl);
          List.iter
            (fun (p, w) -> Buffer.add_string trace (Printf.sprintf ",%d.%d" p w))
            h.Network.serves)
        route.Network.hops;
      Ok route.Network.id
    | Error e ->
      Buffer.add_string trace ("!" ^ Network.Error.cause e);
      Error e
  in
  {
    Churn.base =
      {
        Churn.connect = (fun c -> note (Network.connect net c));
        disconnect = (fun id -> ignore (Network.disconnect net id));
      };
    inject = Network.inject_fault net;
    clear = Network.clear_fault net;
    reconnect =
      (fun c -> note (Result.map fst (Network.connect_rearrangeable net c)));
  }

(* Recorded at a7524e8, the last commit that ran every k > 62 fabric on
   bool-array planes, from [wide_churn ~seed:k]: (route checksum,
   accepted, blocked, MD5 of the outcome trace). *)
let wide_goldens =
  [
    ( (Network.Msw_dominant, Model.MSW),
      [
        (63, (2035556664968586793, 523, 157,
              "1f6e92e7d38069d188f5f744b0b4f92e"));
        (96, (-226703975560231218, 582, 137,
              "a2662d91dec681902930fc3a842ba7a0"));
        (125, (-1086540085797461393, 710, 101,
              "63b1ce4b96994fe8dbe5345cfb6da695"));
      ] );
    ( (Network.Maw_dominant, Model.MSDW),
      [
        (63, (-3392186805955618597, 505, 0,
              "af31a86e2d0c86846331dfdf24e08390"));
        (96, (-2793070692381023479, 552, 0,
              "7bbd6b46e32e80d600ebfb4dfbe34dd5"));
        (125, (-2711795893949227945, 713, 26,
              "b2a8741254f2709eeee9af3d20cf3a57"));
      ] );
    ( (Network.Maw_dominant, Model.MAW),
      [
        (63, (-740832594913346163, 493, 0,
              "42036326010e2ca2a9140d7a6a7dbd03"));
        (96, (-884534504652265837, 512, 0,
              "753e65d32f8e23341ed1b0679dd93aba"));
        (125, (3070199470860187560, 646, 8,
              "58d7ac4a2b39d4fe78ac88e1a58a8a96"));
      ] );
  ]

let test_wide_goldens () =
  List.iter
    (fun ((construction, output_model), cases) ->
      List.iter
        (fun (k, (checksum, accepted, blocked, md5)) ->
          let label =
            Printf.sprintf "%s/%s k=%d"
              (match construction with
              | Network.Msw_dominant -> "msw-dominant"
              | Network.Maw_dominant -> "maw-dominant")
              (Model.to_string output_model) k
          in
          let sum = ref 0 and trace = Buffer.create 65536 in
          let s =
            wide_churn ~seed:k ~construction ~output_model ~k
              (golden_sut ~checksum:sum ~trace)
          in
          Alcotest.(check int) (label ^ " route checksum") checksum !sum;
          Alcotest.(check int) (label ^ " accepted") accepted
            s.Churn.churn.Churn.accepted;
          Alcotest.(check int) (label ^ " blocked") blocked
            s.Churn.churn.Churn.blocked;
          Alcotest.(check string) (label ^ " outcome trace") md5
            (Digest.to_hex (Digest.string (Buffer.contents trace))))
        cases)
    wide_goldens

(* The quick profile's routing_throughput trace (bench/main.ml: N=1024
   MSW-dominant at Theorem 1's m, 4,000 churn steps from seed 4242),
   replayed on an instrumented network.  Its route checksum was pinned
   before the planes became multi-word; the bench row reports the same
   value for the same trace. *)
let test_quick_trace_checksum () =
  let n = 32 and r = 32 and k = 2 in
  let m = (Conditions.msw_dominant ~n ~r).Conditions.m_min in
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let net =
    Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
      topo
  in
  let ops = ref [] in
  let sut =
    {
      Churn.connect =
        (fun c ->
          ops := `Connect c :: !ops;
          match Network.connect net c with
          | Ok route -> Ok route.Network.id
          | Error e -> Error e);
      disconnect =
        (fun id ->
          ops := `Disconnect id :: !ops;
          ignore (Network.disconnect net id));
    }
  in
  ignore
    (Churn.run (rng 4242) ~spec:(Topology.spec topo) ~model:Model.MSW
       ~fanout:(Fanout.Zipf { max = 64; s = 1.3 })
       ~steps:4000 ~teardown_bias:0.35 sut);
  let replay =
    Network.create
      ~config:
        { Network.Config.default with telemetry = Some (Tel.Sink.create ()) }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  let accepted = ref 0 and checksum = ref 0 in
  List.iter
    (function
      | `Connect c -> (
        match Network.connect replay c with
        | Ok route ->
          incr accepted;
          checksum := Wdm_persist.Op.route_checksum !checksum route
        | Error _ -> ())
      | `Disconnect id -> ignore (Network.disconnect replay id))
    (List.rev !ops);
  Alcotest.(check int) "ops" 3484 (List.length !ops);
  Alcotest.(check int) "accepted" 2150 !accepted;
  Alcotest.(check int) "route checksum" (-95705355778283357) !checksum

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
          Alcotest.test_case "k=63 against the oracle" `Slow
            (test_lockstep_wide 63);
          Alcotest.test_case "k=125 against the oracle" `Slow
            (test_lockstep_wide 125);
          Alcotest.test_case "first free spans words" `Quick
            test_first_free_spans_words;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "wide-fabric routes" `Quick test_wide_goldens;
          Alcotest.test_case "quick trace route checksum" `Quick
            test_quick_trace_checksum;
        ] );
      ( "counters",
        [
          Alcotest.test_case "duplicate injections reconcile" `Quick
            test_duplicate_injection_counters;
          Alcotest.test_case "run_timed resets active gauge" `Quick
            test_run_timed_gauge_reset;
        ] );
    ]
