(** Blocking-probability-vs-load campaigns over the topology zoo.

    A campaign crosses topologies x assignment strategies x offered
    loads, running one fresh {!Mesh_network} per cell under the
    {!Wdm_traffic.Erlang} driver.  Per-cell seeds are derived from the
    campaign seed and the cell's coordinates, so any cell — and hence
    the whole table — is reproducible independently of evaluation
    order. *)

type cell = {
  topo : string;
  strategy : string;  (** an {!Assign} plug-in registry name *)
  point : Wdm_traffic.Erlang.point;
}

type spec = {
  seed : int;
  k : int;  (** wavelengths per fiber *)
  mode : Light_tree.mode;
  splitters : Mesh_network.splitters;
  k_paths : int;
  topos : string list;
  strategies : string list;
  loads : float list;  (** offered Erlangs *)
  arrivals : int;  (** per cell *)
  fanout : Wdm_traffic.Fanout.t;
}

val default : spec
(** nsf14 + janet, first-fit + graph-coloring, loads 4..24, 4000
    arrivals of Zipf(1.3) fanout over 8 wavelengths — the acceptance
    table (2 topologies x 2 strategies). *)

val quick : spec
(** [default] shrunk to 400 arrivals and 3 loads for CI smoke. *)

val run :
  ?telemetry:Wdm_telemetry.Sink.t -> spec -> (cell list, string) result
(** Cells in [topos x strategies x loads] order.  Errors on an unknown
    topology, unknown strategy name or invalid config rather than
    raising. *)

val pp_table : Format.formatter -> cell list -> unit
(** Aligned blocking-probability table grouped by topology/strategy. *)

val to_json : spec -> cell list -> Wdm_telemetry.Json.t
(** The table as the [mesh_blocking] object of [BENCH_results.json]
    (schema: EXPERIMENTS.md), which [wdmnet mesh --json] also writes. *)
