(* The list-based shortest-path and light-tree code the mesh engine ran
   before its array rewrite, kept verbatim as the differential oracle:
   production [Shortest] and [Light_tree.build] must return exactly what
   these return.  Only module paths differ.  [Light_tree.reachable] is
   the per-wavelength depth-first search the engine ran before its
   bit-parallel reach masks, the reference those are held to.
   [Coloring] is the greedy conflict-graph coloring the engine once ran
   for its [coloring] strategy, the reference the strategy's first-fit
   scan order is held to. *)

open Wdm_mesh

module Shortest = struct
  let never _ = false
  let always _ = true

  (* O(n^2) selection Dijkstra: the zoo graphs are tens of nodes, and the
     plain loop has an easy determinism story (ascending node scan means
     equal distances resolve to the smallest id with no heap-order
     subtleties). *)
  let run g ~sources ~skip_node ~use_edge =
    let n = Graph.n g in
    let dist = Array.make (n + 1) infinity in
    let pred = Array.make (n + 1) (-1) in (* edge id into the node *)
    let prev = Array.make (n + 1) 0 in    (* predecessor node *)
    let visited = Array.make (n + 1) false in
    List.iter (fun s -> dist.(s) <- 0.) sources;
    let rec loop () =
      let best = ref 0 in
      for v = 1 to n do
        if (not visited.(v)) && dist.(v) < infinity
           && (!best = 0 || dist.(v) < dist.(!best))
        then best := v
      done;
      if !best <> 0 then begin
        let u = !best in
        visited.(u) <- true;
        List.iter
          (fun (v, e) ->
            if (not visited.(v)) && (not (skip_node v)) && use_edge e then begin
              let d = dist.(u) +. (Graph.edge g e).Graph.w in
              if d < dist.(v) then begin
                dist.(v) <- d;
                pred.(v) <- e;
                prev.(v) <- u
              end
            end)
          (Graph.adj g u);
        loop ()
      end
    in
    loop ();
    (dist, pred, prev)

  let walk_back ~prev ~pred ~sources dst =
    let rec go v acc =
      if List.mem v sources && pred.(v) = -1 then v :: acc
      else go prev.(v) (v :: acc)
    in
    go dst []

  let shortest_path ?(skip_node = never) ?(use_edge = always) g ~src ~dst =
    if src = dst then Some (0., [ src ])
    else begin
      let dist, pred, prev =
        run g ~sources:[ src ] ~skip_node ~use_edge
      in
      if dist.(dst) = infinity then None
      else Some (dist.(dst), walk_back ~prev ~pred ~sources:[ src ] dst)
    end

  let grow ~sources ~skip_node ~use_edge ~target g =
    let dist, pred, prev = run g ~sources ~skip_node ~use_edge in
    let n = Graph.n g in
    let best = ref 0 in
    for v = 1 to n do
      if target v && dist.(v) < infinity
         && (!best = 0 || dist.(v) < dist.(!best))
      then best := v
    done;
    if !best = 0 then None
    else Some (dist.(!best), walk_back ~prev ~pred ~sources !best)

  (* ----- Yen ------------------------------------------------------------- *)

  let path_cost g nodes =
    let rec go acc = function
      | a :: (b :: _ as rest) -> (
        match Graph.edge_between g a b with
        | Some e -> go (acc +. (Graph.edge g e).Graph.w) rest
        | None -> invalid_arg "Shortest.path_cost: not a path")
      | _ -> acc
    in
    go 0. nodes

  let candidate_compare (c1, p1) (c2, p2) =
    match compare (c1 : float) c2 with 0 -> compare (p1 : int list) p2 | c -> c

  let k_shortest ?(use_edge = always) g ~src ~dst ~k =
    if k < 1 then invalid_arg "Shortest.k_shortest: k must be >= 1";
    match shortest_path ~use_edge g ~src ~dst with
    | None -> []
    | Some first ->
      let a = ref [ first ] (* accepted, newest first *) in
      let b = ref [] (* candidates, sorted ascending *) in
      let rec take_prefix i = function
        | [] -> []
        | x :: rest -> if i = 0 then [] else x :: take_prefix (i - 1) rest
      in
      let rec fill count =
        if count >= k then ()
        else begin
          let _, last = List.hd !a in
          let len = List.length last in
          (* spur at every node of the previous path except the last *)
          for i = 0 to len - 2 do
            let root = take_prefix (i + 1) last in
            let spur = List.nth last i in
            (* edges leaving any accepted path that shares this root *)
            let banned_edges = Hashtbl.create 8 in
            List.iter
              (fun (_, p) ->
                if take_prefix (i + 1) p = root && List.length p > i + 1 then
                  match
                    Graph.edge_between g (List.nth p i) (List.nth p (i + 1))
                  with
                  | Some e -> Hashtbl.replace banned_edges e ()
                  | None -> ())
              !a;
            let root_nodes = take_prefix i last in
            let skip_node v = List.mem v root_nodes in
            let use_edge' e = use_edge e && not (Hashtbl.mem banned_edges e) in
            match shortest_path ~skip_node ~use_edge:use_edge' g ~src:spur ~dst with
            | None -> ()
            | Some (_, spur_path) ->
              let total = root_nodes @ spur_path in
              let cand = (path_cost g total, total) in
              if
                (not (List.exists (fun (_, p) -> p = total) !a))
                && not (List.mem cand !b)
              then b := List.sort candidate_compare (cand :: !b)
          done;
          match !b with
          | [] -> ()
          | best :: rest ->
            b := rest;
            a := best :: !a;
            fill (count + 1)
        end
      in
      fill 1;
      List.sort candidate_compare !a
end

module Light_tree = struct
  let build ~mode ~mc ~use_edge g ~src ~dests =
    let n = Graph.n g in
    let in_t = Array.make (n + 1) false in
    (* ins counts signal arrivals at a node (the source's transmitter
       counts as one); outs counts departures.  An MI node can grow a new
       branch only while ins > outs — each arrival forwards at most once
       (drop-and-continue).  MC nodes split freely. *)
    let ins = Array.make (n + 1) 0 in
    let outs = Array.make (n + 1) 0 in
    let used_here = Hashtbl.create 16 in
    in_t.(src) <- true;
    ins.(src) <- 1;
    let covered = Array.make (n + 1) false in
    covered.(src) <- true;
    let uncovered = ref (List.filter (fun d -> d <> src) dests) in
    let arcs = ref [] in
    let cost = ref 0. in
    let can_attach v = in_t.(v) && (mc.(v) || ins.(v) > outs.(v)) in
    let graft path =
      let rec go = function
        | a :: (b :: _ as rest) ->
          let e =
            match Graph.edge_between g a b with
            | Some e -> e
            | None -> assert false
          in
          arcs := (a, b, e) :: !arcs;
          cost := !cost +. (Graph.edge g e).Graph.w;
          Hashtbl.replace used_here e ();
          outs.(a) <- outs.(a) + 1;
          ins.(b) <- ins.(b) + 1;
          in_t.(b) <- true;
          covered.(b) <- true;
          go rest
        | _ -> ()
      in
      go path
    in
    let rec loop () =
      match !uncovered with
      | [] -> Ok { Light_tree.arcs = List.rev !arcs; cost = !cost }
      | pending -> (
        let sources =
          List.filter can_attach (List.init n (fun i -> i + 1))
        in
        let skip_node v =
          match mode with
          | Light_tree.Tree -> in_t.(v) (* node-disjoint grafts: attach only at ends *)
          | Light_tree.Hierarchy -> false (* edge-disjoint only: cross-pair reuse *)
        in
        let use_edge' e = use_edge e && not (Hashtbl.mem used_here e) in
        let target v = (not covered.(v)) && List.mem v pending in
        match
          Shortest.grow ~sources ~skip_node ~use_edge:use_edge' ~target g
        with
        | None -> Error (List.sort compare pending)
        | Some (_, path) ->
          graft path;
          uncovered := List.filter (fun d -> not covered.(d)) pending;
          loop ())
    in
    loop ()

  (* The nodes a path from [src] over [use_edge] edges reaches (one
     depth-first search), as a membership array indexed by node. *)
  let reachable ~use_edge g ~src =
    let { Graph.off; nbr; eid; _ } = Graph.adjacency g in
    let seen = Array.make (Graph.n g + 1) false in
    (* each node is pushed at most once *)
    let stack = Array.make (Graph.n g) 0 in
    let top = ref 1 in
    seen.(src) <- true;
    stack.(0) <- src;
    while !top > 0 do
      decr top;
      let u = stack.(!top) in
      for i = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(i) in
        if (not seen.(v)) && use_edge eid.(i) then begin
          seen.(v) <- true;
          stack.(!top) <- v;
          incr top
        end
      done
    done;
    seen

  (* The members of [dests] no such path reaches, in their order. *)
  let unreachable ~use_edge g ~src ~dests =
    let seen = reachable ~use_edge g ~src in
    List.filter (fun d -> not seen.(d)) dests
end

module Coloring = struct
  (* Greedy coloring of the live routes' conflict graph for a unicast
     on a path: the live routes (from a snapshot) sharing an edge with
     the path are its conflicts, and it takes the smallest wavelength
     none of them holds. *)
  let pick (s : Mesh_network.state) edge_ids =
    let conflict = ref 0 in
    List.iter
      (fun (r : Mesh_network.route) ->
        if List.exists (fun (_, _, e) -> List.mem e edge_ids) r.arcs then
          conflict := !conflict lor (1 lsl (r.wl - 1)))
      s.s_routes;
    let rec first wl =
      if wl > s.s_k then None
      else if !conflict land (1 lsl (wl - 1)) = 0 then Some wl
      else first (wl + 1)
    in
    first 1

  (* A unicast's (path edge ids, wavelength): the first of the pair's
     Yen paths, cheapest first, that {!pick} colors; [None] when none
     can be. *)
  let unicast g (s : Mesh_network.state) ~src ~dst =
    let edge_ids nodes =
      let rec go = function
        | a :: (b :: _ as rest) ->
          Option.get (Graph.edge_between g a b) :: go rest
        | _ -> []
      in
      go nodes
    in
    List.find_map
      (fun (_, nodes) ->
        let edges = edge_ids nodes in
        Option.map (fun wl -> (edges, wl)) (pick s edges))
      (Shortest.k_shortest g ~src ~dst ~k:s.s_k_paths)
end
