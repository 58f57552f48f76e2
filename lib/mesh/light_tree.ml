type mode = Tree | Hierarchy

let mode_to_string = function Tree -> "tree" | Hierarchy -> "hierarchy"

let mode_of_string = function
  | "tree" -> Ok Tree
  | "hierarchy" -> Ok Hierarchy
  | s -> Error (Printf.sprintf "unknown mode %S (want tree or hierarchy)" s)

type structure = {
  arcs : (int * int * int) list;
  cost : float;
}

let build ~mode ~mc ~use_edge g ~src ~dests =
  let n = Graph.n g in
  (* in_t marks the nodes the structure reaches (the covered ones).
     ins counts signal arrivals at a node (the source's transmitter
     counts as one); outs counts departures.  An MI node can grow a new
     branch only while ins > outs — each arrival forwards at most once
     (drop-and-continue).  MC nodes split freely. *)
  let in_t = Array.make (n + 1) false in
  let ins = Array.make (n + 1) 0 in
  let outs = Array.make (n + 1) 0 in
  let used_here = Array.make (Graph.m g) false in
  (* the destinations not yet covered, and how many there are *)
  let target = Array.make (n + 1) false in
  let pending = ref 0 in
  in_t.(src) <- true;
  ins.(src) <- 1;
  List.iter
    (fun d ->
      if not (in_t.(d) || target.(d)) then begin
        target.(d) <- true;
        incr pending
      end)
    dests;
  let arcs = ref [] in
  let cost = ref 0. in
  let source v = in_t.(v) && (mc.(v) || ins.(v) > outs.(v)) in
  let skip_node =
    match mode with
    | Tree -> fun v -> in_t.(v) (* node-disjoint grafts: attach only at ends *)
    | Hierarchy -> fun _ -> false (* edge-disjoint only: cross-pair reuse *)
  in
  let use_edge' e = use_edge e && not used_here.(e) in
  let graft ((a, b, e) as arc) =
    arcs := arc :: !arcs;
    cost := !cost +. (Graph.edge g e).Graph.w;
    used_here.(e) <- true;
    outs.(a) <- outs.(a) + 1;
    ins.(b) <- ins.(b) + 1;
    in_t.(b) <- true;
    if target.(b) then begin
      target.(b) <- false;
      decr pending
    end
  in
  let rec loop () =
    if !pending = 0 then Ok { arcs = List.rev !arcs; cost = !cost }
    else
      match
        Shortest.grow ~source ~skip_node ~use_edge:use_edge'
          ~target:(fun v -> target.(v)) g
      with
      | None ->
        Error (List.sort compare (List.filter (fun d -> not in_t.(d)) dests))
      | Some path ->
        List.iter graft path;
        loop ()
  in
  loop ()
