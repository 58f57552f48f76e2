type edge = { u : int; v : int; w : float; id : int }

type adjacency = {
  off : int array;
  nbr : int array;
  eid : int array;
  wt : float array;
}

type t = { n : int; edges : edge array; adjacency : adjacency }

let make ~n links =
  if n < 1 then invalid_arg "Graph.make: n must be >= 1";
  let canon (u, v, w) =
    if u < 1 || u > n || v < 1 || v > n then
      invalid_arg (Printf.sprintf "Graph.make: endpoint outside 1..%d" n);
    if u = v then invalid_arg (Printf.sprintf "Graph.make: self-loop at %d" u);
    if not (w > 0.) then
      invalid_arg (Printf.sprintf "Graph.make: non-positive weight %d-%d" u v);
    if u < v then (u, v, w) else (v, u, w)
  in
  let links = List.map canon links in
  let links =
    List.sort (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d)) links
  in
  let rec check_dups = function
    | (a, b, _) :: ((c, d, _) :: _ as rest) ->
      if a = c && b = d then
        invalid_arg (Printf.sprintf "Graph.make: duplicate link %d-%d" a b);
      check_dups rest
    | _ -> ()
  in
  check_dups links;
  let edges =
    Array.of_list (List.mapi (fun id (u, v, w) -> { u; v; w; id }) links)
  in
  let off = Array.make (n + 2) 0 in
  Array.iter
    (fun e ->
      off.(e.u + 1) <- off.(e.u + 1) + 1;
      off.(e.v + 1) <- off.(e.v + 1) + 1)
    edges;
  for v = 1 to n do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let slots = 2 * Array.length edges in
  let nbr = Array.make slots 0 and eid = Array.make slots 0 in
  let wt = Array.make slots 0. in
  let next = Array.sub off 0 (n + 1) in
  let put x y e =
    let i = next.(x) in
    nbr.(i) <- y;
    eid.(i) <- e.id;
    wt.(i) <- e.w;
    next.(x) <- i + 1
  in
  (* edges ascend by (u, v): the first pass gives each node its lower
     neighbours in ascending order, the second its higher ones *)
  Array.iter (fun e -> put e.v e.u e) edges;
  Array.iter (fun e -> put e.u e.v e) edges;
  { n; edges; adjacency = { off; nbr; eid; wt } }

let n t = t.n
let m t = Array.length t.edges
let edges t = t.edges
let adjacency t = t.adjacency

let edge t id =
  if id < 0 || id >= Array.length t.edges then
    invalid_arg (Printf.sprintf "Graph.edge: no edge %d" id);
  t.edges.(id)

let degree t v =
  if v < 1 || v > t.n then invalid_arg (Printf.sprintf "Graph: no node %d" v);
  t.adjacency.off.(v + 1) - t.adjacency.off.(v)

let adj t v =
  let { off; nbr; eid; _ } = t.adjacency in
  List.init (degree t v) (fun i -> (nbr.(off.(v) + i), eid.(off.(v) + i)))

let edge_between t a b =
  if a < 1 || a > t.n || b < 1 || b > t.n then None
  else
    let { off; nbr; eid; _ } = t.adjacency in
    let rec find i =
      if i = off.(a + 1) then None
      else if nbr.(i) = b then Some eid.(i)
      else find (i + 1)
    in
    find off.(a)

let pp ppf t =
  Format.fprintf ppf "graph(n=%d, m=%d)" t.n (m t)
