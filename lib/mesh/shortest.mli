(** Deterministic shortest-path routing: Dijkstra, Yen's k-shortest
    loopless paths, and the multi-source variant that light-tree
    construction grows grafts with.  All three run one Dijkstra: an
    O(n^2) selection loop over {!Graph.adjacency}'s flat arrays, which
    stops as soon as the node it looks for settles.

    Determinism contract: ties between equal-cost paths are broken by
    smaller node id at every selection point, and Yen orders equal-cost
    candidates lexicographically by node sequence — the same graph and
    arguments always yield byte-identical answers, which is what lets
    WAL replay reproduce routes exactly. *)

type scratch
(** The search's working arrays (distance, predecessor edge and node,
    settled flag), sized to one graph.  Every search resets what it
    reads, so one scratch serves any sequence of searches on its graph,
    and the answer never depends on the searches before it.  The
    functions below allocate a fresh one when none is passed. *)

val scratch : Graph.t -> scratch
(** A scratch for searches on this graph only. *)

val shortest_path :
  ?scratch:scratch ->
  ?skip_node:(int -> bool) ->
  ?use_edge:(int -> bool) ->
  Graph.t ->
  src:int ->
  dst:int ->
  (float * int list) option
(** Cost and node sequence [src .. dst].  [skip_node] excludes
    intermediate/terminal nodes (never [src]); [use_edge] filters edges
    by id (e.g. wavelength-free).  The search stops when [dst]
    settles. *)

val k_shortest :
  ?scratch:scratch ->
  ?use_edge:(int -> bool) ->
  Graph.t ->
  src:int ->
  dst:int ->
  k:int ->
  (float * int list) list
(** Up to [k] loopless paths, cheapest first; equal costs ordered
    lexicographically by node sequence.  Every search runs on the one
    [scratch]. *)

val grow :
  scratch ->
  source:(int -> bool) ->
  skip_node:(int -> bool) ->
  use_edge:(int -> bool) ->
  target:(int -> bool) ->
  Graph.t ->
  (int * int * int) list option
(** Cheapest path from any node satisfying [source] (all at distance
    0) to the nearest node satisfying [target]; ties prefer the smaller
    target id.  The path comes back as its arcs [(from, to, edge id)],
    starting at the chosen source.  Sources are exempt from
    [skip_node]; targets are not.

    The search stops at the first target to settle.  Nodes settle in
    (distance, id) order, since weights are positive and the scan takes
    the smallest id among the nearest unsettled nodes, so that target is
    the (distance, id) minimum over every reachable target: the one a
    search run to exhaustion would pick, along the same path, because
    relaxation is strict and a settled node is never relaxed again. *)
