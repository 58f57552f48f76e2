(** A stateful mesh RWA network with the same operational surface as
    {!Wdm_multistage.Network}: validated connect / typed-error refusal,
    disconnect by route id (ids are never reused), deterministic
    snapshot/restore with re-derived occupancy, and optional telemetry.

    Endpoints are reinterpreted for a mesh: [Endpoint.port] is the
    1-based node id and the endpoint's wavelength field is {e ignored}
    — the network performs its own wavelength assignment, exactly as
    the RWA literature separates the request (a node pair or group)
    from the lightpath the control plane picks for it.  A destination
    equal to the source is trivially covered (the source taps its own
    signal) and occupies nothing.

    Determinism: every connect outcome is a pure function of the
    construction arguments and the op sequence so far.  The [random]
    strategy hashes a monotone attempt counter (advanced on every
    connect, accepted or refused), so WAL replay — which records
    refused connects too — reproduces routes byte-for-byte.

    Cost: a unicast tries the pair's [k_paths] Yen paths, memoised per
    (source, destination) on the pair's first unicast (they depend on
    the pair alone: no edge filter, and the graph never changes); a
    path's free wavelengths are the clear bits of its edges' ORed
    {!Assign.occupancy} words.  A multicast first runs {!reach_masks}
    from its source, and ANDing the destinations' masks gives every
    wavelength on which each destination is reachable.  Only those are
    built, in scan order, until one builds and is admitted: a build
    never covers an unreachable destination, so no other could win.
    When every node splits, a build on such a wavelength always
    succeeds, and a refusal's uncovered list (the unreachable
    destinations of the wavelength that leaves the fewest) is read off
    the masks with no build; under sparse splitting a refusal also
    builds the other wavelengths, skipping one whose mask shows it
    cannot shorten the list.  A build grafts one destination at a time,
    each graft a Dijkstra that stops at the first destination it
    settles.  The builds, the Dijkstras and the mask pass all run on
    working arrays the network allocates once, at {!create} or
    {!restore}, so a connect allocates little beyond the route it
    returns.  None of this is part of the state: {!snapshot}, {!digest}
    and {!restore} are unaffected. *)

module Sink = Wdm_telemetry.Sink
module Connection = Wdm_core.Connection
module Endpoint = Wdm_core.Endpoint

type splitters =
  | Split_all  (** every node multicast-capable *)
  | Split_none  (** drop-and-continue only, everywhere *)
  | Split_nodes of int list  (** exactly these nodes are MC *)
  | Split_degree_ge of int
      (** nodes of topology degree >= d are MC — the usual "put the
          splitters at the hubs" sparse-splitting deployment *)

module Config : sig
  type t = {
    k : int;  (** wavelengths per fiber, [1..62] *)
    strategy : string;
        (** An {!Assign} plug-in registry name; every request is routed
            through the plug-in it resolves to, once, at build. *)
    mode : Light_tree.mode;
    splitters : splitters;
    k_paths : int;  (** Yen candidates for unicast routing, [>= 1] *)
  }

  val default : t
  (** 8 wavelengths, first-fit, light-hierarchy, all-MC, 3 paths. *)
end

type t

type route = {
  id : int;
  connection : Connection.t;
  wl : int;  (** the single wavelength the structure occupies *)
  arcs : (int * int * int) list;  (** (from, to, edge id) *)
  cost : float;
}

type error =
  | Source_out_of_range of Endpoint.t
  | Destination_out_of_range of Endpoint.t
  | Blocked of { uncovered : int list }
      (** no (structure, wavelength) pair could cover these nodes: a
          unicast's destination, or the shortest uncovered list any
          wavelength's build left (the earliest among equals; every
          destination when plug-in vetoes were the only failures) *)

type disconnect_error = Unknown_route of int | Already_released of int

val create :
  ?telemetry:Sink.t -> ?config:Config.t -> string -> (t, string) result
(** [create name] builds the {!Zoo} topology [name] (e.g. ["nsf14"],
    ["ring8"]).  Errors on an unknown topology, a [Split_nodes] id out
    of range, an out-of-range config field, or a strategy name the
    plug-in registry does not resolve. *)

val connect : t -> Connection.t -> (route, error) result
val disconnect : t -> int -> (route, disconnect_error) result

val reach_masks : Graph.t -> Assign.t -> src:int -> int array
(** [reach_masks g a ~src], indexed by node: bit [wl - 1] of entry [v]
    is set when a path from [src] to [v] runs over edges all free on
    [wl] under [a]; no bit at or above [Assign.k a] is ever set, and
    [src]'s entry has all [k] set.  One worklist pass over
    {!Graph.adjacency} covers every wavelength at once: the pass
    {!connect} runs on the network's own arrays, here on fresh ones. *)

val graph : t -> Graph.t
val topology_name : t -> string
val config : t -> Config.t
val mc_nodes : t -> int list
(** Multicast-capable node ids, ascending. *)

val active_count : t -> int
val utilization : t -> float
(** Occupied (edge, wavelength) slots over [m * k]. *)

(** {1 Snapshot / restore} *)

type state = {
  s_topo : string;
  s_k : int;
  s_strategy : string;
  s_mode : Light_tree.mode;
  s_k_paths : int;
  s_mc : bool array;  (** resolved capability, index 0 unused *)
  s_next_id : int;
  s_attempts : int;
  s_routes : route list;  (** ascending id *)
}

val snapshot : t -> state
val restore : ?telemetry:Sink.t -> state -> (t, string) result
(** Rebuilds the graph from [s_topo] and re-derives wavelength
    occupancy by re-marking every active route, so a restored network
    is behaviorally indistinguishable from the snapshotted one.  An
    inconsistent state is an [Error]: an unknown strategy name, a route
    id at or above [s_next_id] or repeated, or a route claiming an
    (edge, wavelength) slot that another route, or another of its own
    arcs, holds. *)

val digest : t -> int
(** A fingerprint of everything {!snapshot} captures, in [0, 2^55):
    equal states give equal digests.  It costs O(nodes), not
    O(routes): the network keeps a running sum (mod 2^63) of a
    per-route hash — {!Wdm_core.Strategy.mix} folded over every field
    the route codec writes — updated on every connect, disconnect and
    restore, and [digest] mixes that sum with the route count, the
    topology name, the config (the strategy by name), the splitter map,
    [next_id] and the attempt counter. *)

(** Refusal rendering, mirroring {!Wdm_multistage.Network.Error} so
    callers (wdmnet in particular) print both engines' refusals through
    one code path. *)
module Error : sig
  type nonrec t = error

  val cause : t -> string
  (** Short stable tag ([source_out_of_range],
      [destination_out_of_range], [blocked]). *)

  val to_string : t -> string

  val to_json : t -> Wdm_telemetry.Json.t
  (** [{"cause": ..., ...}] with per-constructor fields: the offending
      endpoint or the uncovered node list. *)

  val disconnect_cause : disconnect_error -> string
  val disconnect_to_string : disconnect_error -> string
  val disconnect_to_json : disconnect_error -> Wdm_telemetry.Json.t
end

val pp_error : Format.formatter -> error -> unit
val pp_disconnect_error : Format.formatter -> disconnect_error -> unit
val pp_route : Format.formatter -> route -> unit
