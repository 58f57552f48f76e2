(** Race routing strategies over identical seeded traffic.

    The strategy plug-in API ({!Wdm_multistage.Network.Strategy},
    {!Wdm_mesh.Assign}) makes strategies values with names; this module
    makes them comparable: every strategy in a spec is driven over the
    {e same} per-workload seeded traffic stream — the per-cell RNG is
    derived from the campaign seed and the workload index only, never
    the strategy — so two cells in one row differ only by the routing
    decisions under test.

    Workloads span both engines: multistage cells run the
    {!Wdm_traffic.Churn} setup/teardown driver against an
    (intentionally undersized) three-stage fabric, mesh cells run the
    {!Wdm_traffic.Erlang} Poisson-load driver against a {!Wdm_mesh}
    topology.  Latency is the observed wall-clock mean around the
    connect call; it is measured outside the traffic driver's RNG, so
    it never perturbs the routed stream. *)

type workload =
  | Multistage of {
      label : string;
      n : int;  (** input/output modules *)
      m : int;  (** middle modules — pick below the nonblocking bound *)
      r : int;  (** ports per module *)
      k : int;  (** wavelengths *)
      steps : int;
      teardown_bias : float;
      fanout : Wdm_traffic.Fanout.t;
    }
  | Mesh of {
      label : string;
      topo : string;  (** a {!Wdm_mesh.Zoo} topology name *)
      k : int;  (** wavelengths per fiber *)
      k_paths : int;
      offered : float;  (** Erlangs *)
      arrivals : int;
      fanout : Wdm_traffic.Fanout.t;
    }

val workload_label : workload -> string
val workload_engine : workload -> string
(** ["multistage"] or ["mesh"]. *)

type spec = {
  seed : int;
  strategies : string list;
      (** registry names; each must resolve on every engine the
          workload list exercises *)
  workloads : workload list;
}

type cell = {
  engine : string;
  workload : string;
  strategy : string;
  attempts : int;
  accepted : int;
  blocked : int;
  blocking : float;  (** [blocked / attempts], 0 when no attempts *)
  mean_connect_us : float;  (** wall-clock mean of the connect call *)
}

val default : spec
(** Two undersized multistage fabrics and two mesh topologies, racing
    [first-fit], [adaptive], [annealed] and [crosstalk] — the lab
    acceptance table. *)

val quick : spec
(** [default] shrunk for CI smoke. *)

val run : spec -> (cell list, string) result
(** Cells in [workloads x strategies] order.  Errors (rather than
    raises) on a strategy name an engine cannot resolve or an invalid
    workload. *)

val pp_table : Format.formatter -> cell list -> unit
(** Aligned blocking/latency table grouped by workload. *)

val to_json : spec -> cell list -> Wdm_telemetry.Json.t
(** The table as the [strategy_compare] object of [BENCH_results.json]
    (schema: EXPERIMENTS.md), which [wdmnet compare --json] also
    writes. *)
