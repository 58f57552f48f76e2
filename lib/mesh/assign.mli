(** Per-edge wavelength occupancy and the wavelength-assignment
    strategy plug-ins.

    Occupancy is an int bitmask per edge (so [k <= 62]) plus a per-
    wavelength global use count, giving O(1) occupy/release/test and
    O(k) strategy ordering.  Strategies only *order* the candidate
    wavelengths; feasibility (free on every edge of the candidate
    structure) is checked by the caller, which keeps the ordering
    reusable for both unicast paths and multicast trees.

    A strategy is named by its registry name only (see the plug-in
    section below); {!Mesh_network} resolves the name once at build. *)

val strategy_of_string : string -> (string, string) result
(** [Ok name] when the plug-in registry resolves [name]; otherwise an
    [Error] listing the registered names. *)

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

(** {2 Strategy plug-ins}

    The mesh half of the shared {!Wdm_core.Strategy} contract.  A mesh
    plug-in contributes the wavelength scan {e order} and may veto
    individual assignments via an {e admit} predicate; path search,
    light-tree construction and feasibility stay with {!Mesh_network},
    which keeps plug-ins reusable across unicast and multicast.

    Determinism: [order] and [admit] must be pure in the assignment
    state and the request hash — derive randomness from the hash via
    {!Wdm_core.Strategy.Det_rng} only, so WAL replay re-derives the
    same choices.

    Registered names:
    - [first-fit], the default: lowest index first.
    - [most-used] / [least-used]: by the global per-wavelength use
      count, busiest / least busy first, ties to the lower index.
    - [random]: a stateless rotation of the scan by the request hash.
      The caller passes a replay-deterministic hash (the network mixes
      its monotone attempt counter with the request), so a WAL replay
      reproduces the same "random" choices: the determinism contract
      of DESIGN.md section 6 extends to the mesh unchanged.
    - [coloring]: greedy coloring of the live routes' conflict graph,
      which gives a request the smallest wavelength no route sharing
      an edge with it holds.  An edge's occupancy word is exactly the
      union of those routes' wavelengths, so that is the first free
      wavelength of the first-fit scan, and the plug-in registers
      first-fit's order.
    - [adaptive]: least-loaded wavelength first, driven by the live
      per-wavelength use counts (the [least-used] order).
    - [annealed]: simulated annealing over the scan order,
      request-seeded.
    - the parameterized decorator [crosstalk[:BASE[:DB]]]: BASE's
      order, refusing wavelengths whose worst-case
      {!Wdm_optics.Crosstalk} margin over the chosen edges falls below
      DB; defaults [first-fit] and 20 dB. *)

type plugin

val make_plugin :
  name:string ->
  doc:string ->
  ?admit:(t -> edges:int list -> wl:int -> fanout:int -> bool) ->
  (t -> hash:int -> int list) ->
  plugin
(** A plug-in from its scan ordering and optional admission veto. *)

val register_plugin : plugin -> unit
(** Install under its name, which {!Mesh_network.Config.strategy} can
    name afterwards.
    @raise Invalid_argument if the name is already registered: a name,
    once registered, is never rebound (see
    {!Wdm_core.Strategy.Registry}). *)

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
