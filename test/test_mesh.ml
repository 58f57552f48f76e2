(* Tests for the mesh RWA subsystem: the topology zoo, Yen's k-shortest
   paths against brute-force enumeration, the first-fit/graph-coloring
   equivalence on unicast traffic, the sparse-splitting invariant on
   multicast structures, snapshot codec round-trips, campaign
   reproducibility, and the mesh served behind the socket server with
   WAL recovery. *)

open Wdm_mesh
module Core = Wdm_core
module Backend = Wdm_persist.Backend
module Store = Wdm_persist.Store
module Resp = Wdm_persist.Resp
module Op = Wdm_persist.Op
module Srv = Wdm_server

let conn src dests =
  Core.Connection.make_exn
    ~source:(Core.Endpoint.make ~port:src ~wl:1)
    ~destinations:(List.map (fun p -> Core.Endpoint.make ~port:p ~wl:1) dests)

let mk_mesh ?(topo = "nsf14") ?(k = 4) ?(strategy = Assign.First_fit)
    ?(mode = Light_tree.Hierarchy) ?(splitters = Mesh_network.Split_all) () =
  let config = { Mesh_network.Config.k; strategy; mode; splitters; k_paths = 3 } in
  match Mesh_network.create ~config topo with
  | Ok m -> m
  | Error e -> Alcotest.fail e

(* --- topology zoo -------------------------------------------------------- *)

let test_zoo () =
  let g = Zoo.nsf14 () in
  Alcotest.(check int) "nsf nodes" 14 (Graph.n g);
  Alcotest.(check int) "nsf links" 21 (Graph.m g);
  Alcotest.(check int) "clara nodes" 13 (Graph.n (Zoo.clara ()));
  Alcotest.(check int) "janet nodes" 7 (Graph.n (Zoo.janet ()));
  (match Zoo.by_name "ring8" with
  | Ok g ->
    Alcotest.(check int) "ring nodes" 8 (Graph.n g);
    Alcotest.(check int) "ring links" 8 (Graph.m g)
  | Error e -> Alcotest.fail e);
  (match Zoo.by_name "torus3x4" with
  | Ok g ->
    Alcotest.(check int) "torus nodes" 12 (Graph.n g);
    Alcotest.(check int) "torus links" 24 (Graph.m g)
  | Error e -> Alcotest.fail e);
  match Zoo.by_name "atlantis" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown topology accepted"

(* --- Yen vs brute force --------------------------------------------------- *)

(* Every simple path src->dst by exhaustive DFS, sorted by the same
   (cost, lexicographic node sequence) order the Yen implementation
   promises. *)
let all_simple_paths g ~src ~dst =
  let acc = ref [] in
  let rec go node visited rpath cost =
    if node = dst then acc := (cost, List.rev rpath) :: !acc
    else
      List.iter
        (fun (nb, eid) ->
          if not (List.mem nb visited) then
            go nb (nb :: visited) (nb :: rpath)
              (cost +. (Graph.edge g eid).Graph.w))
        (Graph.adj g node)
  in
  go src [ src ] [ src ] 0.;
  List.sort compare !acc

let path_testable = Alcotest.(list (pair (float 1e-9) (list int)))

let test_yen_vs_brute_force () =
  let g = Zoo.janet () in
  let n = Graph.n g in
  for src = 1 to n do
    for dst = 1 to n do
      if src <> dst then begin
        let brute = all_simple_paths g ~src ~dst in
        let k = min 12 (List.length brute) in
        let expected = List.filteri (fun i _ -> i < k) brute in
        let got = Shortest.k_shortest g ~src ~dst ~k in
        Alcotest.check path_testable
          (Printf.sprintf "paths %d->%d" src dst)
          expected got
      end
    done
  done

let test_yen_respects_edge_filter () =
  let g = Zoo.janet () in
  (* ban the direct 1-2 edge if it exists; no returned path may use a
     banned edge *)
  let banned = Graph.edge_between g 1 2 in
  let use_edge id = Some id <> banned in
  let paths = Shortest.k_shortest ~use_edge g ~src:1 ~dst:2 ~k:5 in
  Alcotest.(check bool) "still connected" true (paths <> []);
  List.iter
    (fun (_, nodes) ->
      let rec arcs = function
        | a :: (b :: _ as rest) ->
          (match Graph.edge_between g a b with
          | Some id ->
            Alcotest.(check bool) "banned edge unused" true (use_edge id)
          | None -> Alcotest.fail "non-adjacent hop");
          arcs rest
        | _ -> ()
      in
      arcs nodes)
    paths

(* The digest contract: a live network's running digest equals the
   digest of its own restored encoding, although restore re-adds the
   routes in id order and the live sum saw them in op order. *)
let check_digest_roundtrip label m =
  let live = Backend.Mesh m in
  match Backend.restore (Backend.encode_state live) with
  | Error e -> Alcotest.failf "%s: restore failed: %s" label e
  | Ok restored ->
    if Backend.digest live <> Backend.digest restored then
      Alcotest.failf "%s: live digest %d, restored %d" label
        (Backend.digest live) (Backend.digest restored)

(* --- first-fit vs graph-coloring on unicast traffic ----------------------- *)

(* For path requests the coloring conflict set is exactly the union of
   occupancy on the path's edges, so coloring must pick the same
   wavelength first-fit does.  Drive both engines with an identical
   connect/disconnect trace and demand identical routes, and both
   digests to survive a restore after every op. *)
let test_first_fit_coloring_equivalent () =
  let a = mk_mesh ~strategy:Assign.First_fit () in
  let b = mk_mesh ~strategy:Assign.Coloring () in
  let rng = Random.State.make [| 42 |] in
  let active = ref [] in
  for step = 1 to 600 do
    if Random.State.int rng 100 < 35 && !active <> [] then begin
      let i = Random.State.int rng (List.length !active) in
      let id = List.nth !active i in
      active := List.filter (fun x -> x <> id) !active;
      match (Mesh_network.disconnect a id, Mesh_network.disconnect b id) with
      | Ok ra, Ok rb ->
        Alcotest.(check int) "released same wl" ra.Mesh_network.wl
          rb.Mesh_network.wl
      | _ -> Alcotest.fail "disconnect diverged"
    end
    else begin
      let src = 1 + Random.State.int rng 14 in
      let dst = 1 + Random.State.int rng 14 in
      let c = conn src [ dst ] in
      match (Mesh_network.connect a c, Mesh_network.connect b c) with
      | Ok ra, Ok rb ->
        Alcotest.(check int)
          (Printf.sprintf "step %d: same wavelength" step)
          ra.Mesh_network.wl rb.Mesh_network.wl;
        Alcotest.(check bool)
          (Printf.sprintf "step %d: same arcs" step)
          true
          (ra.Mesh_network.arcs = rb.Mesh_network.arcs);
        Alcotest.(check int) "same id" ra.Mesh_network.id rb.Mesh_network.id;
        active := ra.Mesh_network.id :: !active
      | Error _, Error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "step %d: admission diverged" step)
    end;
    check_digest_roundtrip (Printf.sprintf "step %d, first-fit" step) a;
    check_digest_roundtrip (Printf.sprintf "step %d, coloring" step) b
  done;
  Alcotest.(check int) "same active count" (Mesh_network.active_count a)
    (Mesh_network.active_count b)

(* --- sparse-splitting invariant ------------------------------------------- *)

(* A multicast-incapable node is drop-and-continue: each signal coming
   in can leave on at most one link, so its out-degree never exceeds
   its in-degree (the source's transmitter grants it one extra).  And
   in both modes an edge carries the structure at most once. *)
let check_structure ~mc ~src ~mode (route : Mesh_network.route) =
  let seen = Hashtbl.create 16 in
  let indeg = Hashtbl.create 16 and outdeg = Hashtbl.create 16 in
  let bump tbl v = Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)) in
  List.iter
    (fun (a, b, eid) ->
      if Hashtbl.mem seen eid then failwith "edge used twice";
      Hashtbl.add seen eid ();
      bump outdeg a;
      bump indeg b)
    route.Mesh_network.arcs;
  let deg tbl v = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
  Hashtbl.iter
    (fun v _ ->
      if not (List.mem v mc) then begin
        let allowance = deg indeg v + if v = src then 1 else 0 in
        if deg outdeg v > allowance then
          failwith (Printf.sprintf "MI node %d branches" v)
      end;
      if mode = Light_tree.Tree && deg indeg v > 1 then
        failwith (Printf.sprintf "tree revisits node %d" v))
    outdeg;
  Hashtbl.iter
    (fun v _ ->
      if mode = Light_tree.Tree && deg indeg v > 1 then
        failwith (Printf.sprintf "tree revisits node %d" v))
    indeg

let prop_no_branching_at_mi_nodes =
  QCheck.Test.make ~count:150 ~name:"no branching at splitting-incapable nodes"
    QCheck.(triple small_nat (int_range 1 3) bool)
    (fun (seed, fan, tree) ->
      let rng = Random.State.make [| seed; 77 |] in
      let mode = if tree then Light_tree.Tree else Light_tree.Hierarchy in
      (* a random minority of nodes can split *)
      let mc_list =
        List.filter (fun _ -> Random.State.int rng 4 = 0) (List.init 14 succ)
      in
      let splitters = Mesh_network.Split_nodes mc_list in
      let m = mk_mesh ~k:3 ~mode ~splitters () in
      let mc = Mesh_network.mc_nodes m in
      let ok = ref true in
      for _ = 1 to 40 do
        let src = 1 + Random.State.int rng 14 in
        let dests =
          List.sort_uniq compare
            (List.init (1 + fan) (fun _ -> 1 + Random.State.int rng 14))
        in
        match Mesh_network.connect m (conn src dests) with
        | Ok route -> (
          match check_structure ~mc ~src ~mode route with
          | () -> ()
          | exception Failure msg ->
            QCheck.Test.fail_report msg)
        | Error (Mesh_network.Blocked _) -> ()
        | Error _ -> ok := false
      done;
      !ok)

(* --- snapshot codec round trip -------------------------------------------- *)

(* Mixed unicast/multicast churn, checking the digest contract after
   every op. *)
let drive m rng steps =
  let active = ref [] in
  for step = 1 to steps do
    (if Random.State.int rng 100 < 30 && !active <> [] then begin
       let i = Random.State.int rng (List.length !active) in
       let id = List.nth !active i in
       active := List.filter (fun x -> x <> id) !active;
       ignore (Mesh_network.disconnect m id)
     end
     else begin
       let src = 1 + Random.State.int rng 14 in
       let fan = 1 + Random.State.int rng 3 in
       let dests = List.init fan (fun _ -> 1 + Random.State.int rng 14) in
       match Mesh_network.connect m (conn src (List.sort_uniq compare dests)) with
       | Ok r -> active := r.Mesh_network.id :: !active
       | Error _ -> ()
     end);
    check_digest_roundtrip (Printf.sprintf "drive step %d" step) m
  done

let test_mesh_codec_roundtrip () =
  let m =
    mk_mesh ~k:6 ~strategy:Assign.Most_used
      ~splitters:(Mesh_network.Split_degree_ge 3) ()
  in
  drive m (Random.State.make [| 7 |]) 300;
  let encoded = Backend.encode_state (Backend.Mesh m) in
  Alcotest.(check bool) "tagged as mesh" true (Backend.is_mesh_state encoded);
  match Backend.restore encoded with
  | Error e -> Alcotest.fail e
  | Ok (Backend.Net _) -> Alcotest.fail "restored as multistage"
  | Ok (Backend.Mesh m' as b') ->
    Alcotest.(check int) "same digest"
      (Backend.digest (Backend.Mesh m))
      (Backend.digest b');
    Alcotest.(check int) "same active routes" (Mesh_network.active_count m)
      (Mesh_network.active_count m');
    (* behaviorally identical afterwards: same connect outcome *)
    let c = conn 1 [ 5; 9; 12 ] in
    (match (Mesh_network.connect m c, Mesh_network.connect m' c) with
    | Ok a, Ok b ->
      Alcotest.(check int) "same wl" a.Mesh_network.wl b.Mesh_network.wl;
      Alcotest.(check bool) "same arcs" true
        (a.Mesh_network.arcs = b.Mesh_network.arcs)
    | Error _, Error _ -> ()
    | _ -> Alcotest.fail "restored mesh diverged")

(* A corrupt state can repeat a route id on another wavelength (which
   overlaps no slot, but would leak the first copy's slots) or claim a
   slot another route holds.  Restoring either must be an [Error]. *)
let refused label state =
  match Backend.restore (Backend.encode_mesh_state state) with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: restored" label
  | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)

(* One unicast route 1 -> 2 on ring6's edge 1-2, wavelength 1. *)
let one_route_state () =
  let m = mk_mesh ~topo:"ring6" ~k:4 () in
  (match Mesh_network.connect m (conn 1 [ 2 ]) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "connect refused");
  let s = Mesh_network.snapshot m in
  (s, List.hd s.Mesh_network.s_routes)

let test_restore_refuses_repeated_id () =
  let s, r = one_route_state () in
  refused "same id, other wavelength"
    { s with Mesh_network.s_routes = [ r; { r with Mesh_network.wl = 2 } ] };
  (* an id the allocator would hand out again *)
  refused "id at next_id" { s with Mesh_network.s_next_id = r.Mesh_network.id }

let test_restore_refuses_overlapping_slot () =
  let s, r = one_route_state () in
  let next = s.Mesh_network.s_next_id in
  refused "same slot, new id"
    {
      s with
      Mesh_network.s_next_id = next + 1;
      s_routes = [ r; { r with Mesh_network.id = next } ];
    };
  refused "an arc repeated within one route"
    {
      s with
      Mesh_network.s_routes =
        [ { r with Mesh_network.arcs = r.Mesh_network.arcs @ r.Mesh_network.arcs } ];
    }

(* The digest sees every field the state codec writes: editing any one
   of them in a valid state, and restoring, changes it. *)
let test_digest_sensitivity () =
  let s, r = one_route_state () in
  let digest state =
    match Mesh_network.restore state with
    | Ok m -> Mesh_network.digest m
    | Error e -> Alcotest.fail e
  in
  let base = digest s in
  Alcotest.(check int) "unedited" base (digest s);
  let g = Zoo.ring 6 in
  let arc a b =
    match Graph.edge_between g a b with
    | Some e -> (a, b, e)
    | None -> Alcotest.failf "no edge %d-%d" a b
  in
  let with_route r' = { s with Mesh_network.s_routes = [ r' ] } in
  List.iter
    (fun (label, edited) ->
      if digest edited = base then Alcotest.failf "%s: digest unchanged" label)
    [
      ("one arc", with_route { r with Mesh_network.arcs = [ arc 1 6 ] });
      ("the wavelength", with_route { r with Mesh_network.wl = 3 });
      ("attempts", { s with Mesh_network.s_attempts = s.Mesh_network.s_attempts + 1 });
    ]

let test_multistage_state_not_mesh () =
  (* dispatch safety: a multistage snapshot must not be mistaken for a
     mesh one and vice versa *)
  let topo = Wdm_multistage.Topology.make_exn ~n:4 ~m:7 ~r:4 ~k:2 in
  let net =
    Wdm_multistage.Network.create
      ~construction:Wdm_multistage.Network.Msw_dominant
      ~output_model:Core.Model.MSW topo
  in
  let s = Backend.encode_state (Backend.Net net) in
  Alcotest.(check bool) "multistage not mesh-tagged" false
    (Backend.is_mesh_state s);
  match Backend.restore s with
  | Ok (Backend.Net _) -> ()
  | Ok (Backend.Mesh _) -> Alcotest.fail "multistage restored as mesh"
  | Error e -> Alcotest.fail e

(* --- campaign reproducibility --------------------------------------------- *)

let test_campaign_reproducible () =
  let spec =
    {
      Campaign.quick with
      Campaign.topos = [ "janet"; "ring6" ];
      loads = [ 6.; 14. ];
      arrivals = 250;
    }
  in
  match (Campaign.run spec, Campaign.run spec) with
  | Ok a, Ok b ->
    Alcotest.(check int) "cell count" (2 * 2 * 2) (List.length a);
    Alcotest.(check bool) "identical tables" true (a = b);
    List.iter
      (fun (c : Campaign.cell) ->
        let p = c.Campaign.point in
        Alcotest.(check int) "arrivals conserved" p.Wdm_traffic.Erlang.arrivals
          (p.Wdm_traffic.Erlang.accepted + p.Wdm_traffic.Erlang.blocked))
      a
  | Error e, _ | _, Error e -> Alcotest.fail e

(* --- mesh behind the socket server, with WAL recovery --------------------- *)

let test_mesh_served_recovers () =
  let dir = Filename.temp_file "wdm_mesh_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let wal = Filename.concat dir "mesh.wal" in
  let sock = Filename.concat dir "srv.sock" in
  let backend = Backend.Mesh (mk_mesh ~topo:"janet" ~k:4 ()) in
  let store = Store.start_backend ~wal backend in
  let srv = Srv.Server.start_backend ~store ~backend (Srv.Server.Unix_socket sock) in
  let final_digest =
    Fun.protect
      ~finally:(fun () -> Srv.Server.stop srv)
      (fun () ->
        match Srv.Client.connect (Srv.Server.address srv) with
        | Error e -> Alcotest.fail (Srv.Client.error_to_string e)
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Srv.Client.close c)
            (fun () ->
              let admit op =
                match Srv.Client.request c (Resp.Admit op) with
                | Ok r -> r
                | Error e -> Alcotest.fail (Srv.Client.error_to_string e)
              in
              (match admit (Op.Connect (conn 1 [ 3; 5 ])) with
              | Resp.Admitted _ -> ()
              | _ -> Alcotest.fail "connect refused");
              (match admit (Op.Connect (conn 2 [ 6 ])) with
              | Resp.Admitted _ -> ()
              | _ -> Alcotest.fail "connect refused");
              (match admit (Op.Disconnect 1) with
              | Resp.Released _ -> ()
              | _ -> Alcotest.fail "disconnect failed");
              (* fault ops are refused on a mesh, not crashed on *)
              (match admit (Op.Inject_fault (Wdm_faults.Fault.Middle 1)) with
              | Resp.Server_error _ -> ()
              | _ -> Alcotest.fail "fault op not refused");
              match Srv.Client.digest c with
              | Ok d -> d
              | Error e -> Alcotest.fail (Srv.Client.error_to_string e)))
  in
  Store.checkpoint_backend store (Srv.Server.backend srv);
  Store.close store;
  (match Store.recover_backend ~wal () with
  | Error e ->
    Alcotest.failf "recovery failed: %a" Store.pp_recovery_error e
  | Ok r ->
    Alcotest.(check string) "mesh came back" "mesh" (Backend.kind r.Store.backend);
    Alcotest.(check int) "digest reproduced" final_digest
      (Backend.digest r.Store.backend);
    match r.Store.backend with
    | Backend.Mesh m ->
      Alcotest.(check int) "one route active" 1 (Mesh_network.active_count m)
    | Backend.Net _ -> Alcotest.fail "wrong backend kind");
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let () =
  Alcotest.run "wdm_mesh"
    [
      ( "topology",
        [
          Alcotest.test_case "zoo shapes" `Quick test_zoo;
        ] );
      ( "routing",
        [
          Alcotest.test_case "yen vs brute force" `Quick test_yen_vs_brute_force;
          Alcotest.test_case "yen edge filter" `Quick
            test_yen_respects_edge_filter;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "first-fit = coloring on paths" `Quick
            test_first_fit_coloring_equivalent;
        ] );
      ( "splitting",
        [ QCheck_alcotest.to_alcotest prop_no_branching_at_mi_nodes ] );
      ( "persistence",
        [
          Alcotest.test_case "mesh codec roundtrip" `Quick
            test_mesh_codec_roundtrip;
          Alcotest.test_case "dispatch tags disjoint" `Quick
            test_multistage_state_not_mesh;
          Alcotest.test_case "restore refuses a repeated id" `Quick
            test_restore_refuses_repeated_id;
          Alcotest.test_case "restore refuses an overlapping slot" `Quick
            test_restore_refuses_overlapping_slot;
          Alcotest.test_case "digest sensitivity" `Quick
            test_digest_sensitivity;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "seed-reproducible table" `Quick
            test_campaign_reproducible;
        ] );
      ( "server",
        [
          Alcotest.test_case "served mesh recovers" `Quick
            test_mesh_served_recovers;
        ] );
    ]
