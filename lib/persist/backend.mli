(** The replicated state machine behind the WAL, the snapshots and the
    server: either the paper's multistage fabric or a mesh RWA network.

    One WAL format, one op codec, one digest definition cover both —
    the state snapshot carries the dispatch tag.  A multistage state
    begins with its topology's [n] (always [>= 1]); a mesh state
    begins with a [0] word followed by a version byte, so every
    pre-mesh snapshot and WAL on disk decodes exactly as before and a
    mesh snapshot can never be misread as a fabric.

    The state and route codecs live here, below {!Resp} and {!Store}
    in the module order, so recovery can restore either kind and the
    response codec can write routes without depending on {!Store}.
    An op reaches a backend only through {!Resp.execute_backend}
    (replay: {!Resp.replay}). *)

module Network = Wdm_multistage.Network
module Mesh = Wdm_mesh.Mesh_network

type t = Net of Network.t | Mesh of Mesh.t

val kind : t -> string
(** ["multistage"] or ["mesh"], for logs and /readyz. *)

(** {1 Multistage state codec} *)

val max_link_slots : int
(** 4,194,304 (2{^22}): the most link-state slots — r·m·k, one per
    (input module, middle module, wavelength) — a decoded multistage
    state may name; {!decode_net_state} refuses a larger topology with
    [Error].  States arrive from outside the program (a snapshot file,
    a leader's [Init_snapshot]), and restoring one allocates four link
    planes of r·m·ceil(k/62) ints and four tables of k ints, so a
    CRC-valid state naming m = r = 100000 would otherwise exhaust
    memory.  The largest fabric the repository builds, the N = 1024
    serving benchmark (r = 32, m = 192, k = 2), has 12,288. *)

val encode_net_state : Network.snapshot -> string
(** Writes the strategy name as one tag byte: 0 [min-intersection],
    1 [first-fit], 2 [exhaustive], or 3 followed by any other name.
    Decoding maps each tag back to its name.  Writes 0 in the
    link-state byte that follows the strategy. *)

val decode_net_state : string -> (Network.snapshot, string) result
(** Accepts 0 or 1 in the link-state byte: a 1 is how earlier releases
    marked their bool-array planes, and decodes to the same network.
    Any other value is an [Error]. *)

val encode_route : Buffer.t -> Network.route -> unit
val decode_route : Wire.reader -> Network.route
(** The allocated-route sub-codec of the multistage state, also used
    by {!Resp} for wire responses, so a route serializes identically
    in a snapshot file and on a control-plane socket.
    [decode_route] @raise Wire.Decode_error on malformed input. *)

(** {1 Mesh state codec} *)

val encode_mesh_state : Mesh.state -> string
(** Writes the strategy name as one tag byte: 0 [first-fit],
    1 [most-used], 2 [least-used], 3 [random], 4 [coloring], or 5
    followed by any other name. *)

val decode_mesh_state : string -> (Mesh.state, string) result
(** Arc edge ids and route costs are re-derived from the topology on
    decode, so the encoding stores only what replay cannot rebuild. *)

(** {1 Dispatch} *)

val is_mesh_state : string -> bool
(** Peeks the leading tag word. *)

val encode_state : t -> string
(** Deterministic byte encoding of the backend's current state. *)

val restore :
  ?telemetry:Wdm_telemetry.Sink.t -> string -> (t, string) result
(** Decode an {!encode_state} string and rebuild a live backend. *)

val digest : t -> int
(** The engine's own state digest ({!Network.digest} or
    {!Mesh.digest}), the fingerprint recovery and replication compare:
    states with equal {!encode_state} bytes have equal digests.  Its
    cost does not grow with the number of live routes: each engine
    keeps a running sum of per-route hashes, and the digest is not
    computed from the encoding's bytes.  A leader and its followers
    must therefore run builds with the same digest definition: a
    mismatched pair disagrees at every check, and the follower resyncs
    by snapshot on every digest. *)

(** {1 Mesh-to-wire adapters}

    The control-plane protocol speaks {!Network.route} /
    {!Network.error}; mesh results are mapped onto that vocabulary so
    clients, the response codec and checksums work unchanged.  A mesh
    route's arcs become hops: [middle] is the arc's tail node,
    [stage1_wl] the structure's wavelength, [serves] the single
    (head node, wavelength) pair. *)

val net_route_of_mesh : Mesh.route -> Network.route
val net_error_of_mesh : Mesh.error -> Network.error
val net_disconnect_error_of_mesh : Mesh.disconnect_error -> Network.disconnect_error
