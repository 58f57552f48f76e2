(** Connection-level state and routing for three-stage WDM multicast
    networks (Section 3).

    A network instance tracks, per fiber link of Fig. 8, which of its
    [k] wavelengths are in use, plus the busy input/output endpoints.
    Each link's wavelength plane is a packed bitset of [ceil(k/62)] ints
    (one int whenever [k <= 62]), so first-free and coverage probes are
    mask operations; the first free wavelength is always the lowest one
    across all the link's words.
    {!connect} admits one multicast connection using at most [x_limit]
    middle modules (the paper's routing strategy behind Theorems 1-2)
    and {!disconnect} releases it — the dynamic, any-sequence setting in
    which the nonblocking conditions are claimed.

    The two constructions:
    - {!Msw_dominant}: input- and middle-stage modules are MSW, so a
      connection sourced on wavelength [lambda_s] rides the
      [lambda_s]-plane through the first two stages;
    - {!Maw_dominant}: input- and middle-stage modules are MAW, so every
      link wavelength is fungible (converters retune hop by hop).

    The output-stage model is the network's model: it decides which
    destination wavelength patterns are legal, and — in the MAW-dominant
    construction — whether the middle-to-output hop may land on any free
    wavelength (MSDW/MAW output modules convert on entry) or must arrive
    on the destination wavelength itself (MSW output modules cannot
    convert). *)

open Wdm_core

type construction = Conditions.construction = Msw_dominant | Maw_dominant

type hop = {
  middle : int;  (** middle module index, 1-based *)
  stage1_wl : int;  (** wavelength on the input-module -> middle link *)
  serves : (int * int) list;
      (** (output module, wavelength on the middle -> output link) *)
}

type route = {
  id : int;
  connection : Connection.t;
  input_switch : int;
  hops : hop list;
}

type blocked_info = {
  fanout_switches : int list;  (** output modules the request spans *)
  available_middles : int list;  (** middles with a free stage-1 slot *)
  uncovered : int list;  (** output modules no selected middle reaches *)
}

type error =
  | Invalid of Assignment.error
  | Source_busy of Endpoint.t
  | Destination_busy of Endpoint.t
  | Unserviceable of Wdm_faults.Fault.t
      (** an endpoint of the request sits on a failed input/output
          module; no route can exist until the fault clears *)
  | Blocked of blocked_info

(** A typed reason a {!disconnect} was refused.  Route ids are never
    reused, so the two cases are unambiguous: {!Unknown_route} means the
    allocator never issued the id (a caller bug), {!Already_released}
    means the route existed but was torn down earlier — by an explicit
    disconnect, a fault, or {!clear} (often benign under churn). *)
type disconnect_error = Unknown_route of int | Already_released of int

type t

(** Construction-time options gathered into one value, so call sites
    name only what they override and a new knob does not ripple another
    optional argument through every signature that wraps {!create}. *)
module Config : sig
  type t = {
    strategy : string;
        (** A {!Strategy} registry name; {!create} and {!restore}
            resolve it once and refuse an unknown one. *)
    x_limit : int option;
        (** [None]: the optimal [x] of the construction's nonblocking
            condition (Theorem 1 or 2) for the topology. *)
    rearrange_limit : int;
        (** Cap on how many existing connections
            {!connect_rearrangeable} will try to move aside for one
            blocked request. *)
    telemetry : Wdm_telemetry.Sink.t option;
        (** [None]: uninstrumented, with zero per-operation overhead. *)
  }

  val default : t
  (** ["min-intersection"], optimal [x_limit], [rearrange_limit = 64],
      no telemetry. *)
end

val create :
  ?config:Config.t ->
  construction:construction ->
  output_model:Model.t ->
  Topology.t ->
  t
(** [create ?config ~construction ~output_model topo] builds an empty
    network; [config] defaults to {!Config.default}, and overrides read
    as [{ Config.default with x_limit = Some 2 }].
    @raise Invalid_argument for a non-positive [x_limit] or
    [rearrange_limit], or a strategy name the registry does not
    resolve.

    When [config.telemetry] is set, the network is instrumented:
    {!connect}, {!connect_rearrangeable} and {!disconnect} feed
    counters ([wdmnet_connect_attempts_total],
    [wdmnet_connect_success_total], a per-cause
    [wdmnet_connect_blocked_total] family keyed by the {!error}
    constructor, [wdmnet_rearrange_moves_total]) and latency
    histograms; fault injection feeds
    [wdmnet_faults_injected_total]/[wdmnet_faults_cleared_total]/
    [wdmnet_fault_teardowns_total]; gauges track {!utilization},
    {!input_utilization}, active routes, faults in force and
    per-middle first-stage occupancy.  If the sink carries a
    {!Wdm_telemetry.Trace.t}, every connect/block/disconnect/
    rearrange/fault event is appended to it. *)

(** The routing-strategy plug-in API (the engine half of the shared
    {!Wdm_core.Strategy} contract).

    Every request is routed by the network's plug-in, the one its
    configured name resolved to.  A plug-in sees one admission attempt
    as a {!ctx} — the live network plus the request's sourcing
    coordinates and the output modules it must cover — and answers
    with a {!plan}: which middle modules to use and which output
    modules each serves.  The engine validates every plan against its
    invariants (distinct available middles, exact cover, at most
    [x_limit] picks), the built-ins' included, and then allocates
    wavelengths; a plug-in returning [None] surfaces as an ordinary
    {!Blocked} refusal.

    Determinism contract (see {!Wdm_core.Strategy}): [select] must be a
    pure function of the context.  Derive any pseudo-randomness from
    {!request_key} via {!Wdm_core.Strategy.Det_rng} so WAL replays make
    identical choices.

    Registered names:
    - [min-intersection], the default: Lemma 5's argument made
      operational.  Repeatedly pick the available middle module
      minimizing the residual intersection (equivalently, covering the
      most still-uncovered output modules).  The routing rule behind
      Theorems 1-2.
    - [first-fit]: scan middle modules in index order, keep any that
      covers something new.
    - [exhaustive]: search all subsets of available middles of size
      [<= x_limit] for a cover, smallest first.  Exponential; for
      ablation and small fabrics only.
    - [adaptive]: least-occupied middles first, driven by the live
      per-middle occupancy.
    - [annealed]: simulated annealing over the middle scan order,
      request-seeded.
    - the parameterized decorator [crosstalk[:BASE[:DB]]]: reject plans
      whose worst-case {!Wdm_optics.Crosstalk} margin falls below DB,
      default base [min-intersection], default budget 20 dB. *)
module Strategy : sig
  type ctx

  val input_switch : ctx -> int
  val src_wl : ctx -> int

  val fanout : ctx -> int list
  (** Output modules the request spans (ascending, distinct). *)

  val middles : ctx -> int
  (** [m], the middle-stage width. *)

  val x_limit : ctx -> int

  val available : ctx -> int list
  (** Middles with a usable first-stage slot for this request,
      ascending. *)

  val covers : ctx -> middle:int -> int -> bool
  (** Whether [middle] can currently reach the given output module for
      this request. *)

  val occupancy : ctx -> middle:int -> int
  (** Busy first-stage slots into [middle] — the live load signal the
      adaptive strategy ranks by. *)

  val request_key : ctx -> int
  (** A deterministic fingerprint of (input switch, source wavelength,
      fanout): the replay-safe seed for stochastic strategies. *)

  type plan = (int * int list) list
  (** [(middle, output modules it serves)] — the shape {!select}
      executes. *)

  type t = { name : string; doc : string; select : ctx -> plan option }

  val register : t -> unit
  (** Install a plug-in under its [name], which {!Config.strategy} can
      name afterwards.
      @raise Invalid_argument if the name is already registered: a
      name, once registered, is never rebound (see
      {!Wdm_core.Strategy.Registry}). *)

  val register_parser : (string -> t option) -> unit
  (** Install a parser for parameterized names such as
      [crosstalk:first-fit:18]. *)

  val resolve : string -> t option
  val names : unit -> string list

  val cover_in_order : ctx -> int list -> plan option
  (** Greedy cover scanning middles in the given order (the first-fit
      kernel): the building block for ordering-based strategies.
      Middles that are not {!available} for this request are skipped,
      so any order of middle indices, [1 .. middles c] included, yields
      a plan the engine accepts, or [None]. *)
end

val strategy_of_string : string -> (string, string) result
(** [Ok name] when the {!Strategy} registry resolves [name]; otherwise
    an [Error] listing the registered names. *)

val topology : t -> Topology.t
val construction : t -> construction
val output_model : t -> Model.t
val x_limit : t -> int
val strategy : t -> string
(** The registry name the network routes by. *)

val connect : t -> Connection.t -> (route, error) result

val disconnect : t -> int -> (route, disconnect_error) result
(** Releases a route by id; returns it.  Refusals are typed (see
    {!disconnect_error}) so callers branch on the constructor instead
    of string-matching; render with {!Error.disconnect_to_string}. *)

val connect_rearrangeable : t -> Connection.t -> (route * int, error) result
(** Like {!connect}, but when the request blocks, tries to admit it by
    rerouting one existing connection (tear it down, place the request,
    put the old connection back on fresh links).  Returns the route and
    the number of connections that were rerouted (0 when plain
    {!connect} sufficed).  On failure the network state is untouched.

    Strict-sense nonblocking (Theorems 1-2) needs no rearrangement by
    definition; this shows the classic trade-off — a smaller [m]
    suffices when moving existing connections is acceptable.

    A rerouted victim keeps its route id: only its hops change, so
    handles held by callers (e.g. the churn driver's active list, or a
    pending {!disconnect}) remain valid across the move.

    Victims are tried fewest-hops-first (ties by ascending id), and at
    most [rearrange_limit] of them: a route spanning fewer middles is
    the likeliest to re-home, and the cap keeps one admission from
    degenerating into a sweep over the whole live population. *)

val active_routes : t -> route list
val find_route : t -> int -> route option

val destination_multiset : t -> int -> Multiset.t
(** [M_j]: connections per middle-to-output link (all wavelengths). *)

val destination_multiset_plane : t -> middle:int -> wl:int -> Multiset.t
(** The single-wavelength [M_j] of one plane ([k = 1] multiset), the
    view relevant to the MSW-dominant construction. *)

val stage1_in_use : t -> input_switch:int -> middle:int -> int
(** Wavelengths in use on one first-stage link. *)

val utilization : t -> float
(** Fraction of busy {e output} endpoints: busy destinations over
    [num_ports * k].  In a multicast network this is not the same as
    {!input_utilization} — one busy source can light many
    destinations. *)

val input_utilization : t -> float
(** Fraction of busy {e input} endpoints: busy sources over
    [num_ports * k]. *)

val clear : t -> unit
(** Tear down everything. *)

val copy : t -> t
(** An independent snapshot: connects/disconnects on the copy do not
    affect the original.  Used by the exhaustive adversary search.
    The copy is not instrumented — speculative operations on it must
    not pollute the original's telemetry. *)

(** {1 Persistence}

    {!snapshot} captures the minimal durable state of a network: its
    construction parameters, the live routes (with their allocated
    hops), the fault set, and the route-id allocator.  Everything else
    — link-plane occupancy, busy endpoint sets, per-middle tallies, the
    derived fault views — is re-derived by {!restore}, so a snapshot
    has a single source of truth and cannot encode an internally
    inconsistent state.  The on-disk binary encoding of this value
    lives in [Wdm_persist.Store]; this layer is format-agnostic. *)

type snapshot = {
  s_topology : Topology.t;
  s_construction : construction;
  s_output_model : Model.t;
  s_x_limit : int;
  s_strategy : string;
  s_rearrange_limit : int;
  s_next_id : int;  (** route-id allocator; ids are never reused *)
  s_routes : route list;  (** ascending id *)
  s_faults : Wdm_faults.Fault.t list;  (** {!Wdm_faults.Fault.compare} order *)
}

val snapshot : t -> snapshot

val restore : ?telemetry:Wdm_telemetry.Sink.t -> snapshot -> t
(** A network behaviorally indistinguishable from the one {!snapshot}
    captured: the link planes are rebuilt by re-marking each route's
    hops, the fault views by re-applying the fault set, so any
    operation sequence applied to the restored
    network chooses byte-identical routes (and ids) to the original
    continuing uninterrupted.  [telemetry] instruments the restored
    network exactly as {!create} would — counters start at the sink's
    current values (history is not replayed into them), gauges are set
    to the restored state.
    @raise Invalid_argument on an inconsistent snapshot: fault indices
    outside the topology, a route id at or above [s_next_id] or
    repeated, or a route that claims a slot or an endpoint another
    route holds (or a wavelength outside [1..k]). *)

val digest : t -> int
(** A fingerprint of everything {!snapshot} captures, in [0, 2^55):
    equal snapshots give equal digests, and a leader and follower
    compare these to detect divergence.  It costs O(faults), not
    O(routes): the network keeps a running sum (mod 2^63) of a
    per-route hash — {!Wdm_core.Strategy.mix} folded over every field
    the route codec writes — updated wherever a route is added or
    removed, and [digest] mixes that sum with the route count and every
    non-route field: topology, construction, model, [x_limit], the
    strategy name, [rearrange_limit], [next_id] and the fault set.  A
    constant 0 sits where earlier releases mixed a link-implementation
    tag: 0 for their bitset planes (the default whenever [k <= 62]), 1
    for their bool-array planes.  States of the first kind keep their
    digests. *)

(** {1 Fault injection}

    Hardware faults ({!Wdm_faults.Fault.t}) degrade the network in
    place: routing transparently avoids failed middles, dead lasers and
    stuck converters, requests whose endpoints sit on a failed
    input/output module are refused with {!Unserviceable}, and live
    routes crossing a newly failed component are torn down (their
    connections are returned so a repair pass —
    {!Scheduler.repair} — can re-home them). *)

val inject_fault : t -> Wdm_faults.Fault.t -> Connection.t list
(** Take one component out of service.  Every live route traversing it
    is torn down and its connection returned (endpoints freed, so the
    caller may immediately re-request).  Idempotent: injecting a fault
    already present returns [[]].  A [Converter] fault only claims the
    routes that actually retuned on that link — MSW middle modules
    never convert, so MSW-dominant routes are immune.  A fabric
    provisioned with [m_min + f] middles stays nonblocking under any [f]
    [Middle] faults ({!Wdm_analysis.Fault_tolerance} verifies the rule).
    @raise Invalid_argument if the fault's indices exceed the topology. *)

val clear_fault : t -> Wdm_faults.Fault.t -> unit
(** Return the component to service (a no-op if it was healthy).
    Routes lost to the fault are {e not} resurrected — re-request them
    or run {!Scheduler.repair}. *)

val faults : t -> Wdm_faults.Fault.t list
(** Faults currently in force, in {!Wdm_faults.Fault.compare} order. *)

val degraded : t -> bool
(** [faults t <> []]. *)

(** The single rendering point for refusals.  The CLI, trace events,
    and the control-plane wire responses all format errors through
    this module, so a given cause reads identically everywhere it can
    surface. *)
module Error : sig
  type nonrec t = error

  val cause : t -> string
  (** Short stable tag ([invalid], [source_busy], [destination_busy],
      [unserviceable], [blocked]) — the same key that labels the
      [wdmnet_connect_blocked_total] counter family and trace [Block]
      events. *)

  val to_string : t -> string

  val to_json : t -> Wdm_telemetry.Json.t
  (** [{"cause": ..., ...}] with per-constructor fields: the offending
      endpoint, the fault, or the blocked-request picture
      (fanout/available/uncovered module lists). *)

  val disconnect_cause : disconnect_error -> string
  val disconnect_to_string : disconnect_error -> string
  val disconnect_to_json : disconnect_error -> Wdm_telemetry.Json.t
end

val pp_error : Format.formatter -> error -> unit
val pp_disconnect_error : Format.formatter -> disconnect_error -> unit
val pp_route : Format.formatter -> route -> unit

val pp_state : Format.formatter -> t -> unit
(** Renders the link occupancy: the input-module x middle-module
    wavelength-use matrix and each middle module's destination multiset
    — the state the Section 3 analysis reasons about, for demos and
    debugging. *)
