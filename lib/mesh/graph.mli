(** Undirected weighted multigraph-free graphs for mesh RWA.

    Nodes are 1-based ints (matching {!Wdm_core.Endpoint.t.port});
    edges are canonicalized with [u < v] and numbered densely from 0 in
    a deterministic order (sorted by endpoints), so per-edge wavelength
    occupancy can live in plain arrays indexed by edge id.  Adjacency is
    kept as flat arrays ({!adjacency}).  Graphs are immutable; all
    mutable RWA state lives in {!Assign} and {!Mesh_network}. *)

type edge = private { u : int; v : int; w : float; id : int }
(** One undirected fiber link, [1 <= u < v <= n], [w > 0]. *)

type t

val make : n:int -> (int * int * float) list -> t
(** [make ~n links] builds a graph on nodes [1..n].  Links are given as
    [(u, v, w)] in either endpoint order and are canonicalized,
    deduplicated checks applied.
    @raise Invalid_argument on [n < 1], an endpoint outside [1..n], a
    self-loop, a duplicate link, or a non-positive weight. *)

val n : t -> int
(** Node count. *)

val m : t -> int
(** Edge count. *)

val edges : t -> edge array
(** Indexed by edge id; do not mutate. *)

val edge : t -> int -> edge
(** By id. @raise Invalid_argument out of range. *)

val adj : t -> int -> (int * int) list
(** [(neighbor, edge id)] pairs in ascending neighbor order, as a fresh
    list. *)

type adjacency = private {
  off : int array;
      (** node [v]'s entries sit at [off.(v) .. off.(v + 1) - 1];
          length [n + 2] *)
  nbr : int array;  (** neighbour ids, ascending within each node *)
  eid : int array;  (** the joining edge's id *)
  wt : float array;  (** the joining edge's weight *)
}
(** Every node's {!adj} at once, as the flat arrays {!make} builds:
    what the routing loops scan, so they neither chase list cells nor
    look weights up by edge id.  Do not mutate. *)

val adjacency : t -> adjacency

val edge_between : t -> int -> int -> int option
(** Edge id joining two nodes, if any (either order). *)

val degree : t -> int -> int
val pp : Format.formatter -> t -> unit
