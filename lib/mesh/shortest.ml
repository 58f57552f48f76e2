let never _ = false
let always _ = true

type scratch = {
  dist : float array;
  pred : int array;  (* edge id into the node, -1 at a source *)
  prev : int array;  (* predecessor node *)
  visited : bool array;
}

let scratch g =
  let n = Graph.n g in
  {
    dist = Array.make (n + 1) infinity;
    pred = Array.make (n + 1) (-1);
    prev = Array.make (n + 1) 0;
    visited = Array.make (n + 1) false;
  }

(* O(n^2) selection Dijkstra over the graph's flat adjacency arrays: the
   zoo graphs are tens of nodes, and the plain loop has an easy
   determinism story (ascending node scan means equal distances resolve
   to the smallest id with no heap-order subtleties).  Every node with
   [source v] starts at distance 0.  It returns the first node to
   settle that [target] accepts, or 0 when none is reachable.

   Nodes settle in (distance, id) order: the scan takes the smallest id
   among the nearest unsettled nodes, and weights are positive, so no
   node reaches a distance below one already settled.  The first target
   to settle is therefore the (distance, id) minimum over the reachable
   targets, the one a full run would pick.  Its [pred]/[prev] chain is
   final once it settles: relaxation is strict, and a settled node's
   distance is at most the relaxing node's, so it is never lowered
   again.  A source never gets a predecessor, so following [prev] from
   any reached node ends at the first node whose [pred] is -1.  Only the
   sources' [pred] and none of [prev] need a reset: the chain runs
   through nodes this search relaxed, and a source. *)
let settle s g ~source ~skip_node ~use_edge ~target =
  let n = Graph.n g in
  let { Graph.off; nbr; eid; wt } = Graph.adjacency g in
  let { dist; pred; prev; visited } = s in
  for v = 1 to n do
    if source v then begin
      dist.(v) <- 0.;
      pred.(v) <- -1
    end
    else dist.(v) <- infinity;
    visited.(v) <- false
  done;
  let found = ref (-1) in
  while !found < 0 do
    let best = ref 0 and best_d = ref infinity in
    for v = 1 to n do
      let d = dist.(v) in
      if d < !best_d && not visited.(v) then begin
        best := v;
        best_d := d
      end
    done;
    let u = !best in
    if u = 0 || target u then found := u
    else begin
      visited.(u) <- true;
      let du = !best_d in
      for i = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(i) in
        let d = du +. wt.(i) in
        if d < dist.(v) && (not (skip_node v)) && use_edge eid.(i) then begin
          dist.(v) <- d;
          pred.(v) <- eid.(i);
          prev.(v) <- u
        end
      done
    end
  done;
  !found

(* The path into a reached node, from its source: as nodes, and as arcs
   [(from, to, edge id)]. *)
let rec walk_back s v acc =
  if s.pred.(v) = -1 then v :: acc else walk_back s s.prev.(v) (v :: acc)

let rec arcs_back s v acc =
  if s.pred.(v) = -1 then acc
  else arcs_back s s.prev.(v) ((s.prev.(v), v, s.pred.(v)) :: acc)

let shortest_path ?scratch:s ?(skip_node = never) ?(use_edge = always) g ~src
    ~dst =
  if src = dst then Some (0., [ src ])
  else begin
    let s = match s with Some s -> s | None -> scratch g in
    if
      settle s g ~source:(fun v -> v = src) ~skip_node ~use_edge
        ~target:(fun v -> v = dst)
      = 0
    then None
    else Some (s.dist.(dst), walk_back s dst [])
  end

let grow s ~source ~skip_node ~use_edge ~target g =
  match settle s g ~source ~skip_node ~use_edge ~target with
  | 0 -> None
  | v -> Some (arcs_back s v [])

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

let k_shortest ?scratch:s ?(use_edge = always) g ~src ~dst ~k =
  if k < 1 then invalid_arg "Shortest.k_shortest: k must be >= 1";
  let scratch = match s with Some s -> s | None -> scratch g in
  match shortest_path ~scratch ~use_edge g ~src ~dst with
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
          match
            shortest_path ~scratch ~skip_node ~use_edge:use_edge' g ~src:spur
              ~dst
          with
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
