(* Tests for the mesh RWA subsystem: the topology zoo and its size
   bounds, Yen's k-shortest paths against brute-force enumeration, the
   array-based routing against the list-based oracle ([Mesh_oracle]),
   the coloring strategy against a conflict-graph greedy, the
   sparse-splitting invariant on multicast structures, snapshot codec
   round-trips, campaign reproducibility, whole-engine identity goldens,
   and the mesh served behind the socket server with WAL recovery. *)

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

let mk_mesh ?(topo = "nsf14") ?(k = 4) ?(strategy = "first-fit")
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

(* The torus's links, deduplicated by brute force. *)
let torus_reference rows cols =
  let node r c = (r * cols) + c + 1 in
  List.concat
    (List.init rows (fun r ->
         List.concat
           (List.init cols (fun c ->
                [
                  (node r c, node r ((c + 1) mod cols));
                  (node r c, node ((r + 1) mod rows) c);
                ]))))
  |> List.map (fun (a, b) -> (min a b, max a b))
  |> List.sort_uniq compare

let test_torus_links () =
  for rows = 2 to 6 do
    for cols = 2 to 6 do
      let got =
        Array.to_list (Graph.edges (Zoo.torus rows cols))
        |> List.map (fun (e : Graph.edge) -> (e.Graph.u, e.Graph.v))
      in
      if got <> torus_reference rows cols then
        Alcotest.failf "torus%dx%d links differ from the reference" rows cols
    done
  done

(* Topology names come from outside the program, so the generators are
   bounded: a snapshot naming a huge ring is refused, not built, and the
   largest torus builds quickly. *)
let test_zoo_bounds () =
  let accepts name =
    match Zoo.by_name name with Ok _ -> true | Error _ -> false
  in
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) name ok (accepts name))
    [
      ("ring4096", true); ("ring4097", false); ("ring300000000", false);
      ("torus64x64", true); ("torus64x65", false);
      ("torus2x4611686018427387903", false);
    ];
  let t0 = Unix.gettimeofday () in
  (match Zoo.by_name "torus64x64" with
  | Ok g ->
    Alcotest.(check int) "torus64x64 nodes" 4096 (Graph.n g);
    Alcotest.(check int) "torus64x64 links" 8192 (Graph.m g)
  | Error e -> Alcotest.fail e);
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.5 then Alcotest.failf "torus64x64 took %.2f s" dt;
  let m = mk_mesh ~topo:"ring6" () in
  let s =
    { (Mesh_network.snapshot m) with Mesh_network.s_topo = "ring300000000" }
  in
  match Backend.decode_mesh_state (Backend.encode_mesh_state s) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a state naming ring300000000 decoded"

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

(* --- coloring against the conflict-graph greedy -------------------------- *)

(* The [coloring] strategy registers first-fit's scan order, on the
   argument that an edge's occupancy word is the union of the
   wavelengths of the live routes crossing it.  Hold it to the greedy
   coloring it stands for: before every unicast, predict the route
   from the conflict graph of the snapshot's live routes
   ([Mesh_oracle.Coloring]) and demand the engine's path, wavelength
   or refusal, and a digest that survives a restore after every op. *)
let test_coloring_matches_conflict_graph () =
  let m = mk_mesh ~strategy:"coloring" () in
  let g = Mesh_network.graph m in
  let rng = Random.State.make [| 42 |] in
  let active = ref [] and admitted = ref 0 and refused = ref 0 in
  for step = 1 to 600 do
    if Random.State.int rng 100 < 35 && !active <> [] then begin
      let i = Random.State.int rng (List.length !active) in
      let id = List.nth !active i in
      active := List.filter (fun x -> x <> id) !active;
      ignore (Mesh_network.disconnect m id)
    end
    else begin
      let src = 1 + Random.State.int rng 14 in
      let dst = 1 + Random.State.int rng 14 in
      let predicted =
        if src = dst then Some ([], 1)
        else
          Mesh_oracle.Coloring.unicast g (Mesh_network.snapshot m) ~src ~dst
      in
      match (Mesh_network.connect m (conn src [ dst ]), predicted) with
      | Ok r, Some (edges, wl) ->
        Alcotest.(check int)
          (Printf.sprintf "step %d: wavelength" step)
          wl r.Mesh_network.wl;
        Alcotest.(check (list int))
          (Printf.sprintf "step %d: path" step)
          edges
          (List.map (fun (_, _, e) -> e) r.Mesh_network.arcs);
        incr admitted;
        active := r.Mesh_network.id :: !active
      | Error _, None -> incr refused
      | Ok _, None -> Alcotest.failf "step %d: admitted, no color left" step
      | Error _, Some _ ->
        Alcotest.failf "step %d: refused a colorable path" step
    end;
    check_digest_roundtrip (Printf.sprintf "step %d" step) m
  done;
  (* both outcomes, or the prediction is vacuous for one of them *)
  Alcotest.(check bool) "admitted some" true (!admitted > 0);
  Alcotest.(check bool) "refused some" true (!refused > 0)

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

(* --- production routing against the list-based oracle --------------------- *)

(* A seeded random instance: a zoo graph, a free-edge mask of random
   density, a random splitter set, and a node sampler. *)
let oracle_instance seed =
  let rng = Random.State.make [| seed; 31 |] in
  let topos =
    [|
      "nsf14"; "clara"; "janet"; "ring5"; "ring9"; "torus2x3"; "torus3x4";
      "torus4x4";
    |]
  in
  let g =
    match Zoo.by_name topos.(Random.State.int rng (Array.length topos)) with
    | Ok g -> g
    | Error e -> failwith e
  in
  let n = Graph.n g in
  let density = Random.State.float rng 1.0 in
  let free =
    Array.init (Graph.m g) (fun _ -> Random.State.float rng 1.0 < density)
  in
  let mc = Array.init (n + 1) (fun v -> v >= 1 && Random.State.bool rng) in
  (rng, g, free, mc, fun () -> 1 + Random.State.int rng n)

(* [build] equals the oracle's in both modes, destinations may repeat or
   name the source, and the oracle's unreachable destinations bound the
   uncovered list: none when the build succeeds, at most its length
   when it fails. *)
let prop_light_tree_matches_oracle =
  QCheck.Test.make ~count:1500 ~name:"light-tree build = list-based oracle"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let rng, g, free, mc, node = oracle_instance seed in
      let use_edge e = free.(e) in
      let src = node () in
      let dests = List.init (1 + Random.State.int rng 7) (fun _ -> node ()) in
      let lost =
        List.length (Mesh_oracle.Light_tree.unreachable ~use_edge g ~src ~dests)
      in
      List.for_all
        (fun mode ->
          let got = Light_tree.build ~mode ~mc ~use_edge g ~src ~dests in
          if got <> Mesh_oracle.Light_tree.build ~mode ~mc ~use_edge g ~src ~dests
          then QCheck.Test.fail_reportf "seed %d %s: build differs" seed
              (Light_tree.mode_to_string mode);
          match got with
          | Ok _ -> lost = 0
          | Error uncovered -> lost <= List.length uncovered)
        [ Light_tree.Tree; Light_tree.Hierarchy ])

(* The reach masks equal one oracle depth-first search per wavelength,
   on a random occupancy at a random k and at k = 62, the widest word,
   and set no bit at or above k. *)
let prop_reach_masks_match_dfs =
  QCheck.Test.make ~count:500 ~name:"reach masks = per-wavelength DFS"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let rng, g, _, _, node = oracle_instance seed in
      let src = node () in
      List.for_all
        (fun k ->
          let a = Assign.create ~k ~m:(Graph.m g) in
          let density = Random.State.float rng 1.0 in
          for e = 0 to Graph.m g - 1 do
            for wl = 1 to k do
              if Random.State.float rng 1.0 < density then
                Assign.occupy a ~edges:[ e ] ~wl
            done
          done;
          let reach = Mesh_network.reach_masks g a ~src in
          let full = (1 lsl k) - 1 in
          for v = 1 to Graph.n g do
            if reach.(v) land lnot full <> 0 then
              QCheck.Test.fail_reportf "seed %d k=%d: node %d has a bit >= k"
                seed k v
          done;
          for wl = 1 to k do
            let seen =
              Mesh_oracle.Light_tree.reachable
                ~use_edge:(fun e -> not (Assign.used a ~edge:e ~wl))
                g ~src
            in
            for v = 1 to Graph.n g do
              if reach.(v) land (1 lsl (wl - 1)) <> 0 <> seen.(v) then
                QCheck.Test.fail_reportf
                  "seed %d k=%d: node %d on wavelength %d differs" seed k v wl
            done
          done;
          true)
        [ 1 + Random.State.int rng 62; 62 ])

(* When every node splits, in either mode, a build fails exactly when a
   destination is unreachable, and leaves exactly the unreachable ones
   uncovered: what lets a refusal be read off the reach masks. *)
let prop_all_split_build_fails_iff_unreachable =
  QCheck.Test.make ~count:1500
    ~name:"every node splitting: build fails iff a destination is unreachable"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let rng, g, free, _, node = oracle_instance seed in
      let mc = Array.make (Graph.n g + 1) true in
      let use_edge e = free.(e) in
      let src = node () in
      let dests = List.init (1 + Random.State.int rng 7) (fun _ -> node ()) in
      let lost = Mesh_oracle.Light_tree.unreachable ~use_edge g ~src ~dests in
      List.for_all
        (fun mode ->
          match Light_tree.build ~mode ~mc ~use_edge g ~src ~dests with
          | Ok _ -> lost = []
          | Error uncovered -> uncovered = List.sort compare lost)
        [ Light_tree.Tree; Light_tree.Hierarchy ])

(* Under sparse splitting that equality fails, which is why the engine
   reads refusals off the masks only when every node splits.  On a star
   with no splitter, a signal from leaf 2 reaches leaf 3 through the
   hub, which forwards it once; leaf 4 is reachable over free edges but
   left uncovered, in both modes. *)
let test_sparse_build_misses_reachable () =
  let g = Graph.make ~n:4 [ (1, 2, 1.); (1, 3, 1.); (1, 4, 1.) ] in
  let mc = Array.make 5 false in
  let use_edge _ = true in
  Alcotest.(check (list int))
    "every destination reachable" []
    (Mesh_oracle.Light_tree.unreachable ~use_edge g ~src:2 ~dests:[ 3; 4 ]);
  List.iter
    (fun mode ->
      match Light_tree.build ~mode ~mc ~use_edge g ~src:2 ~dests:[ 3; 4 ] with
      | Error uncovered ->
        Alcotest.(check (list int))
          (Light_tree.mode_to_string mode ^ ": leaf 4 uncovered")
          [ 4 ] uncovered
      | Ok _ -> Alcotest.failf "%s: built" (Light_tree.mode_to_string mode))
    [ Light_tree.Tree; Light_tree.Hierarchy ]

(* [shortest_path] under a random skip set and edge filter, and
   [k_shortest] under a random edge filter, equal the oracle's. *)
let prop_shortest_matches_oracle =
  QCheck.Test.make ~count:1500 ~name:"shortest paths and Yen = list-based oracle"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let rng, g, free, skip, node = oracle_instance seed in
      let use_edge e = free.(e) and skip_node v = skip.(v) in
      let src = node () and dst = node () in
      let k = 1 + Random.State.int rng 5 in
      Shortest.shortest_path ~skip_node ~use_edge g ~src ~dst
      = Mesh_oracle.Shortest.shortest_path ~skip_node ~use_edge g ~src ~dst
      && Shortest.k_shortest ~use_edge g ~src ~dst ~k
         = Mesh_oracle.Shortest.k_shortest ~use_edge g ~src ~dst ~k
      && Shortest.k_shortest g ~src ~dst ~k
         = Mesh_oracle.Shortest.k_shortest g ~src ~dst ~k)

(* One [Light_tree.scratch] and one [Shortest.scratch] serve a random
   sequence of builds, grafts and searches on one graph, as a network's
   do across its connects: both modes, random splitters, free-edge
   masks, sources and destination lists, repeats of the step before and
   builds that fail.  Every answer equals a fresh scratch's and the
   list-based oracle's: a search stops at the first target it settles,
   and a build resets what the builds before it left.  Half the graphs
   reweight a zoo graph's links to 1..4: the zoo's weights are all 1,
   and on those a search stopped at a target's first relaxation would
   still find the right path. *)
let prop_scratch_reuse =
  QCheck.Test.make ~count:300 ~name:"reused scratch = fresh = oracle"
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let rng, zoo, _, _, node = oracle_instance seed in
      let g =
        if Random.State.bool rng then zoo
        else
          Graph.make ~n:(Graph.n zoo)
            (List.map
               (fun { Graph.u; v; _ } ->
                 (u, v, float_of_int (1 + Random.State.int rng 4)))
               (Array.to_list (Graph.edges zoo)))
      in
      let n = Graph.n g in
      let tree = Light_tree.scratch g and search = Shortest.scratch g in
      let subset p = Array.init (n + 1) (fun v -> v >= 1 && p ()) in
      let draw () =
        let density = Random.State.float rng 1.0 in
        let free =
          Array.init (Graph.m g) (fun _ -> Random.State.float rng 1.0 < density)
        in
        let mc = subset (fun () -> Random.State.bool rng) in
        let mode =
          if Random.State.bool rng then Light_tree.Tree else Light_tree.Hierarchy
        in
        let src = node () in
        let dests = List.init (1 + Random.State.int rng 7) (fun _ -> node ()) in
        let sources = subset (fun () -> Random.State.int rng 4 = 0) in
        sources.(src) <- true;
        let targets = subset (fun () -> Random.State.int rng 5 = 0) in
        let skip = subset (fun () -> Random.State.int rng 6 = 0) in
        (free, mc, mode, src, dests, sources, targets, skip, node ())
      in
      (* a grow's arcs as the oracle's (cost, nodes) *)
      let as_path = function
        | [] -> None
        | (a, _, _) :: _ as arcs ->
          Some
            ( List.fold_left
                (fun c (_, _, e) -> c +. (Graph.edge g e).Graph.w)
                0. arcs,
              a :: List.map (fun (_, b, _) -> b) arcs )
      in
      let same_graft ~source ~target got want =
        match (got, want) with
        | None, None -> true
        | Some [], Some (d, [ v ]) -> d = 0. && source v && target v
        | Some arcs, Some _ -> as_path arcs = want
        | _ -> false
      in
      let step = ref (draw ()) in
      for i = 1 to 8 do
        (* a quarter of the steps repeat the one before *)
        if Random.State.int rng 4 > 0 then step := draw ();
        let free, mc, mode, src, dests, sources, targets, skip, dst = !step in
        let use_edge e = free.(e) in
        let fail what =
          QCheck.Test.fail_reportf "seed %d step %d %s: %s differs" seed i
            (Light_tree.mode_to_string mode) what
        in
        let want = Mesh_oracle.Light_tree.build ~mode ~mc ~use_edge g ~src ~dests in
        if Light_tree.build ~scratch:tree ~search ~mode ~mc ~use_edge g ~src ~dests
           <> want
        then fail "reused build";
        if
          Light_tree.build ~scratch:(Light_tree.scratch g)
            ~search:(Shortest.scratch g) ~mode ~mc ~use_edge g ~src ~dests
          <> want
        then fail "fresh build";
        let source v = sources.(v) and target v = targets.(v) in
        let skip_node v = skip.(v) in
        let want =
          Mesh_oracle.Shortest.grow
            ~sources:(List.filter source (List.init n succ))
            ~skip_node ~use_edge ~target g
        in
        let grow s = Shortest.grow s ~source ~skip_node ~use_edge ~target g in
        if not (same_graft ~source ~target (grow search) want) then
          fail "reused grow";
        if not (same_graft ~source ~target (grow (Shortest.scratch g)) want)
        then fail "fresh grow";
        let want =
          Mesh_oracle.Shortest.shortest_path ~skip_node ~use_edge g ~src ~dst
        in
        if Shortest.shortest_path ~scratch:search ~skip_node ~use_edge g ~src ~dst
           <> want
        then fail "reused shortest path";
        if Shortest.shortest_path ~skip_node ~use_edge g ~src ~dst <> want then
          fail "fresh shortest path"
      done;
      true)

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
    mk_mesh ~k:6 ~strategy:"most-used"
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

(* --- whole-engine identity goldens ----------------------------------------- *)

(* Seeded Erlang traffic replayed through one network per configuration.
   Every connect outcome folds into a hash: the route id, wavelength,
   arcs and the bits of the cost, or the refusal's uncovered list.  The
   literals pin the engine's exact behaviour, so a routing change that
   moves any route, wavelength or refusal fails here, even when it
   stays deterministic. *)
type golden = {
  topo : string;
  k : int;
  mode : Light_tree.mode;
  split : Mesh_network.splitters;
  strategy : string;
  load : float;
  blocked : int;
  hash : int;
  digest : int;
}

let golden_arrivals = 30_000

let hash_outcome h outcome =
  let mix = Core.Strategy.mix in
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

let run_golden g =
  let strategy =
    match Assign.strategy_of_string g.strategy with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let config =
    {
      Mesh_network.Config.k = g.k;
      strategy;
      mode = g.mode;
      splitters = g.split;
      k_paths = 3;
    }
  in
  let m =
    match Mesh_network.create ~config g.topo with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let h = ref 0 in
  let sut =
    {
      Wdm_traffic.Churn.connect =
        (fun c ->
          let outcome = Mesh_network.connect m c in
          h := hash_outcome !h outcome;
          Result.map (fun (r : Mesh_network.route) -> r.Mesh_network.id) outcome);
      disconnect = (fun id -> ignore (Mesh_network.disconnect m id));
    }
  in
  let p =
    Wdm_traffic.Erlang.run
      (Random.State.make [| 15; g.k |])
      ~nodes:(Graph.n (Mesh_network.graph m))
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 8; s = 1.3 })
      ~offered:g.load ~arrivals:golden_arrivals sut
  in
  (p.Wdm_traffic.Erlang.blocked, !h, Mesh_network.digest m)

(* One configuration, with the blocked count, outcome hash and final
   digest the list-based routing code (now [Mesh_oracle]) produced. *)
let golden topo k mode split strategy load (blocked, hash, digest) =
  { topo; k; mode; split; strategy; load; blocked; hash; digest }

(* Five topologies, both modes, four splitter sets and nine strategies,
   two of them vetoing; blocking runs from 0.4% (torus6x6 first-fit) to
   62% (clara most-used), so refusals and the wavelength skip both run. *)
let goldens =
  let open Mesh_network in
  let open Light_tree in
  [
    golden "nsf14" 32 Hierarchy Split_all "first-fit" 120.
      (3490, 3524679124956241830, 15010082477192479);
    golden "nsf14" 16 Tree (Split_degree_ge 3) "most-used" 40.
      (752, 2961173675919443731, 30805050308346988);
    golden "nsf14" 8 Hierarchy Split_none "annealed" 30.
      (8270, 2408129534694915476, 33027446544457573);
    golden "clara" 8 Hierarchy (Split_degree_ge 4) "least-used" 20.
      (6113, 1945072801767479246, 19898866187001064);
    golden "clara" 8 Tree Split_none "random" 12.
      (2314, 2651719365461863488, 34230547980564688);
    golden "clara" 4 Hierarchy (Split_degree_ge 3) "most-used" 40.
      (18474, 2225105015171370089, 30401135552342379);
    golden "janet" 8 Tree Split_all "coloring" 16.
      (992, 1586920319811474730, 28441515166357216);
    golden "janet" 4 Hierarchy (Split_degree_ge 4) "crosstalk:first-fit:18" 10.
      (7443, 972957484032765196, 25823461822642500);
    golden "ring12" 8 Hierarchy Split_none "adaptive" 8.
      (3434, 2234809184448629501, 30934318822607894);
    golden "ring12" 4 Tree Split_all "crosstalk:most-used:15" 6.
      (9382, 3274164738035677082, 15745755727747041);
    golden "torus6x6" 8 Hierarchy (Split_degree_ge 4) "coloring" 40.
      (784, 1759572024307897296, 12339975175996888);
    golden "torus6x6" 8 Tree Split_none "first-fit" 24.
      (120, 4541711494328266094, 23433852039978408);
  ]

let golden_case g =
  let name =
    Printf.sprintf "%s k=%d %s %s %.0fE" g.topo g.k
      (Light_tree.mode_to_string g.mode) g.strategy g.load
  in
  Alcotest.test_case name `Quick (fun () ->
      let blocked, hash, digest = run_golden g in
      if (blocked, hash, digest) <> (g.blocked, g.hash, g.digest) then
        Alcotest.failf
          "%s: blocked %d hash %d digest %d, want blocked %d hash %d digest %d"
          name blocked hash digest g.blocked g.hash g.digest)

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
          Alcotest.test_case "torus links" `Quick test_torus_links;
          Alcotest.test_case "zoo bounds" `Quick test_zoo_bounds;
        ] );
      ( "routing",
        [
          Alcotest.test_case "yen vs brute force" `Quick test_yen_vs_brute_force;
          Alcotest.test_case "yen edge filter" `Quick
            test_yen_respects_edge_filter;
          QCheck_alcotest.to_alcotest prop_shortest_matches_oracle;
          QCheck_alcotest.to_alcotest prop_light_tree_matches_oracle;
          QCheck_alcotest.to_alcotest prop_reach_masks_match_dfs;
          QCheck_alcotest.to_alcotest prop_all_split_build_fails_iff_unreachable;
          Alcotest.test_case "sparse build misses a reachable destination"
            `Quick test_sparse_build_misses_reachable;
          QCheck_alcotest.to_alcotest prop_scratch_reuse;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "coloring = conflict-graph greedy" `Quick
            test_coloring_matches_conflict_graph;
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
      ("golden", List.map golden_case goldens);
      ( "server",
        [
          Alcotest.test_case "served mesh recovers" `Quick
            test_mesh_served_recovers;
        ] );
    ]
