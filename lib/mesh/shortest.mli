(** Deterministic shortest-path routing: Dijkstra, Yen's k-shortest
    loopless paths, and the multi-source variant that light-tree
    construction grows grafts with.  All three run one Dijkstra: an
    O(n^2) selection loop over {!Graph.adjacency}'s flat arrays.

    Determinism contract: ties between equal-cost paths are broken by
    smaller node id at every selection point, and Yen orders equal-cost
    candidates lexicographically by node sequence — the same graph and
    arguments always yield byte-identical answers, which is what lets
    WAL replay reproduce routes exactly. *)

val shortest_path :
  ?skip_node:(int -> bool) ->
  ?use_edge:(int -> bool) ->
  Graph.t ->
  src:int ->
  dst:int ->
  (float * int list) option
(** Cost and node sequence [src .. dst].  [skip_node] excludes
    intermediate/terminal nodes (never [src]); [use_edge] filters edges
    by id (e.g. wavelength-free). *)

val k_shortest :
  ?use_edge:(int -> bool) ->
  Graph.t ->
  src:int ->
  dst:int ->
  k:int ->
  (float * int list) list
(** Up to [k] loopless paths, cheapest first; equal costs ordered
    lexicographically by node sequence. *)

val grow :
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
    [skip_node]; targets are not. *)
