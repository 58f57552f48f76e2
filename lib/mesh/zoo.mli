(** Named mesh topologies and parametric generators.

    The three named networks follow the topologies shipped by the
    rwa-wdm-sim exemplar (NSFNET T1 backbone, RedCLARA, JANET); edge
    weights are unit hop costs, so routing minimizes hop count with
    deterministic tie-breaks.  The generators cover the synthetic
    shapes the hotspot-ring and torus literature sweeps over. *)

val nsf14 : unit -> Graph.t
(** The 14-node / 21-link NSFNET T1 backbone. *)

val clara : unit -> Graph.t
(** The 13-node RedCLARA Latin-American academic backbone. *)

val janet : unit -> Graph.t
(** The 7-node UK JANET core. *)

val max_nodes : int
(** 4096: the most nodes {!ring} and {!torus} build.  Topology names
    arrive from outside the program (a served network's flag, a
    decoded snapshot), and the engine's routing loops are quadratic in
    the node count, so a name may not ask for an unbounded graph. *)

val ring : int -> Graph.t
(** [ring n]: cycle on [n] nodes, [3 <= n <= max_nodes].
    @raise Invalid_argument otherwise. *)

val torus : int -> int -> Graph.t
(** [torus rows cols]: wrap-around grid, [rows, cols >= 2] and
    [rows * cols <= max_nodes]; node [(r, c)] (0-based) is
    [r * cols + c + 1].  Built in time linear in its size.
    @raise Invalid_argument otherwise. *)

val by_name : string -> (Graph.t, string) result
(** Parses ["nsf14"], ["clara"], ["janet"], ["ringN"] (e.g. ["ring8"])
    and ["torusRxC"] (e.g. ["torus4x4"]).  A generator's
    [Invalid_argument], a size beyond {!max_nodes} included, is an
    [Error]. *)

val names : string list
(** The named (non-parametric) topologies, for CLI docs. *)
