(** Per-edge wavelength occupancy and assignment strategies.

    Occupancy is an int bitmask per edge (so [k <= 62]) plus a per-
    wavelength global use count, giving O(1) occupy/release/test and
    O(k) strategy ordering.  Strategies only *order* the candidate
    wavelengths; feasibility (free on every edge of the candidate
    structure) is checked by the caller, which keeps the ordering
    reusable for both unicast paths and multicast trees.

    [Random] is a stateless hash rotation: the caller passes a
    replay-deterministic hash (the network uses its monotonically
    increasing attempt counter mixed with the request), so a WAL replay
    reproduces the exact same "random" choices — the determinism
    contract of DESIGN.md section 6 extends to mesh unchanged.

    [Coloring] orders like first-fit; {!Mesh_network} implements it by
    greedy coloring of the active-route conflict graph and asserts the
    two agree — the classic result that incremental greedy coloring of
    interval-free conflict graphs is exactly first-fit. *)

type strategy =
  | First_fit
  | Most_used
  | Least_used
  | Random
  | Coloring
  | Named of string
      (** A wavelength-selection plug-in by registry name (see the
          plug-in section below).  The five classic strategies are
          registered under their own names and order identically to
          their enum constructors; the lab strategies ([adaptive],
          [annealed], [crosstalk:BASE:DB]) are only reachable this way.
          {!Mesh_network.build} refuses unknown names. *)

val strategy_of_string : string -> (strategy, string) result
(** Classic names map to their enum constructors; any other name the
    plug-in registry resolves maps to [Named]. *)

val strategy_to_string : strategy -> string
val pp_strategy : Format.formatter -> strategy -> unit

val strategies : strategy list
(** The classic enum strategies only (not registry plug-ins). *)

type t

val create : k:int -> m:int -> t
(** [k] wavelengths per fiber over [m] edges.
    @raise Invalid_argument unless [1 <= k <= 62] and [m >= 0]. *)

val k : t -> int
val used : t -> edge:int -> wl:int -> bool
val occupancy : t -> edge:int -> int
(** The edge's occupancy word: bit [wl - 1] is set when [wl] is in use
    on it, so its complement within the low [k] bits is the edge's free
    wavelength set. *)

val free_on : t -> edges:int list -> wl:int -> bool
(** Free on {e every} listed edge. *)

val occupy : t -> edges:int list -> wl:int -> unit
(** @raise Invalid_argument if any edge already carries [wl]. *)

val release : t -> edges:int list -> wl:int -> unit
(** @raise Invalid_argument if any edge does not carry [wl]. *)

val use_count : t -> wl:int -> int
(** Edges currently carrying this wavelength. *)

val occupied_slots : t -> int
(** Total (edge, wavelength) pairs in use. *)

val edge_load : t -> edge:int -> int
(** Wavelengths currently in use on one edge — the live load signal the
    crosstalk-budget plug-in estimates sharers from. *)

val order : t -> strategy -> hash:int -> int list
(** Candidate wavelengths [1..k] in strategy preference order.
    @raise Invalid_argument on a [Named] strategy whose name no longer
    resolves (builds check names up front, so this means the registry
    changed underneath a live network). *)

(** {2 Strategy plug-ins}

    The mesh half of the shared {!Wdm_core.Strategy} contract.  A mesh
    plug-in contributes the wavelength scan {e order} and may veto
    individual assignments via an {e admit} predicate; path search,
    light-tree construction and feasibility stay with {!Mesh_network},
    which keeps plug-ins reusable across unicast and multicast exactly
    like the enum strategies.

    Determinism: [order] and [admit] must be pure in the assignment
    state and the request hash — derive randomness from the hash via
    {!Wdm_core.Strategy.Det_rng} only, so WAL replay re-derives the
    same choices.

    Registered names: [first-fit], [most-used], [least-used], [random],
    [coloring] (the classics as plug-ins), [adaptive] (least-loaded
    wavelength first, driven by the live per-wavelength use counts),
    [annealed] (simulated annealing over the scan order, request-
    seeded), and the parameterized decorator [crosstalk[:BASE[:DB]]]
    (BASE's order, refusing wavelengths whose worst-case
    {!Wdm_optics.Crosstalk} margin over the chosen edges falls below DB;
    defaults [first-fit] and 20 dB). *)

type plugin

val make_plugin :
  name:string ->
  doc:string ->
  ?admit:(t -> edges:int list -> wl:int -> fanout:int -> bool) ->
  (t -> hash:int -> int list) ->
  plugin
(** A plug-in from its scan ordering and optional admission veto. *)

val register_plugin : plugin -> unit
(** Install (or replace) under its name; reachable as [Named name]. *)

val register_plugin_parser : (string -> plugin option) -> unit
(** Install a parser for parameterized names such as
    [crosstalk:most-used:18]. *)

val resolve_plugin : string -> plugin option
val plugin_names : unit -> string list
val plugin_name : plugin -> string
val plugin_doc : plugin -> string

val plugin_order : plugin -> t -> hash:int -> int list
(** The plug-in's candidate wavelength ordering. *)

val plugin_admits : plugin -> t -> edges:int list -> wl:int -> fanout:int -> bool
(** Whether the plug-in accepts assigning [wl] over [edges] for a
    request of the given fanout; always [true] for plug-ins without an
    admission predicate. *)
