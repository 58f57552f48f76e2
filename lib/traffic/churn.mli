(** Dynamic setup/teardown workloads.

    The nonblocking claims of Theorems 1-2 are about {e any} sequence of
    connection setups and teardowns, not just static assignments.  This
    driver runs such a sequence against an abstract switch (anything
    offering connect/disconnect), tracking which endpoints are free so
    every generated request is one the network is obliged to admit. *)

open Wdm_core

type stats = {
  attempts : int;  (** connection requests issued *)
  accepted : int;
  blocked : int;  (** rejections — must be 0 for a nonblocking switch *)
  torn_down : int;
  peak_active : int;
}

type ('id, 'err) sut = {
  connect : Connection.t -> ('id, 'err) result;
  disconnect : 'id -> unit;
}

(** {1 Checkpoint pacing}

    Durable recording ([Wdm_persist.Store]) wants periodic snapshots;
    the driver is where the op cadence is known, so it owns the pacing
    and the caller owns the storage.  One "op" is one SUT interaction a
    WAL would carry: a setup attempt (admitted or refused), a teardown,
    a fault event, or a victim repair attempt.  The pacer never
    consults the RNG ([Every_n_ops] never reads the clock either), so a
    persisted run replays an unpersisted one draw-for-draw. *)

type persist_policy =
  | Every_n_ops of int  (** checkpoint when [n] ops have accrued *)
  | Every_seconds of float
      (** checkpoint when the sink's clock has advanced this far —
          wall time by default, deterministic under a custom [~clock] *)

type persist = {
  policy : persist_policy;
  checkpoint : ops:int -> unit;
      (** called between steps with the ops applied so far; typically
          [Wdm_persist.Store.checkpoint_backend] partially applied *)
}

val run :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?persist:persist ->
  ?on_blocked:(Connection.t -> 'err -> unit) ->
  Random.State.t ->
  spec:Network_spec.t ->
  model:Model.t ->
  fanout:Fanout.t ->
  steps:int ->
  teardown_bias:float ->
  ('id, 'err) sut ->
  stats
(** Each step tears down a random active connection with probability
    [teardown_bias] (when any exists), otherwise attempts a setup drawn
    from the free endpoints.  [on_blocked] observes rejections (default:
    count only).

    The driver's tallies are telemetry counters ([churn_attempts_total],
    [churn_accepted_total], [churn_blocked_total],
    [churn_teardowns_total], and the fault family below) plus
    [churn_active_connections]/[churn_peak_active] gauges.  With
    [telemetry] they land in the caller's sink, where they accumulate
    across runs; the returned {!stats} always cover this run only.
    Telemetry never consults the RNG, so a run with a sink replays a
    run without one draw-for-draw. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Churn under component faults}

    A production fabric loses hardware mid-run.  {!run_with_faults}
    drives the same setup/teardown workload while replaying a fault
    schedule (typically {!Wdm_faults.Schedule.generate}, MTBF/MTTR
    exponential processes): each injection tears down the routes
    crossing the component, a repair pass immediately tries to re-home
    the victims on the degraded fabric, and blocking is attributed to
    degraded or healthy states.  The driver is polymorphic in the fault
    type, so it works with any switch exposing inject/clear hooks. *)

type ('id, 'err, 'fault) faulty_sut = {
  base : ('id, 'err) sut;
  inject : 'fault -> Connection.t list;
      (** take the component down; return the torn-down connections *)
  clear : 'fault -> unit;
  reconnect : Connection.t -> ('id, 'err) result;
      (** repair attempt for a victim (e.g.
          {!Wdm_multistage.Network.connect_rearrangeable}) *)
}

type fault_stats = {
  churn : stats;  (** the usual workload counters *)
  injected : int;  (** fault injections applied *)
  cleared : int;  (** fault clears applied *)
  victims : int;  (** connections torn down by injections *)
  repaired : int;  (** victims re-homed by the repair pass *)
  dropped : int;  (** victims no degraded-mode route could carry *)
  degraded_attempts : int;  (** setups attempted while >= 1 fault in force *)
  blocked_degraded : int;  (** of [churn.blocked], those while degraded *)
}

val run_with_faults :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?persist:persist ->
  ?on_blocked:(Connection.t -> 'err -> unit) ->
  Random.State.t ->
  spec:Network_spec.t ->
  model:Model.t ->
  fanout:Fanout.t ->
  steps:int ->
  teardown_bias:float ->
  schedule:(int * [ `Inject of 'fault | `Clear of 'fault ]) list ->
  ('id, 'err, 'fault) faulty_sut ->
  fault_stats
(** Like {!run}, plus fault events: an event scheduled at step [s] is
    applied just before step [s] executes (the schedule is sorted
    internally; events beyond [steps] never fire).

    Injection and clear counters follow network semantics: injecting a
    fault already in force (or clearing one that is not) is a no-op for
    [churn_faults_injected_total]/[churn_faults_cleared_total] and for
    the returned {!fault_stats}, so over any schedule — duplicates
    included — the driver's tallies reconcile with the network's
    [wdmnet_faults_injected_total]/[wdmnet_faults_cleared_total].  The
    [inject]/[clear] hooks themselves are still invoked on every event.

    Fault handling
    never consults the RNG and the per-step teardown/setup gate is
    drawn unconditionally, so for the same seed a degraded run tracks
    the healthy run draw-for-draw until the first fault event alters
    the active set or free endpoints; from then on the action draws
    necessarily diverge, and comparisons should be made on aggregate
    rates rather than individual steps. *)

val pp_fault_stats : Format.formatter -> fault_stats -> unit

(** {1 Continuous-time traffic}

    The discrete driver above alternates setups and teardowns by a
    bias; classical switching evaluation instead offers Poisson
    arrivals with exponential holding times and reports blocking
    against the offered load in Erlangs.  {!run_timed} is that
    methodology. *)

type timed_stats = {
  offered_erlangs : float;  (** [arrival_rate * mean_holding] *)
  t_attempts : int;
  t_accepted : int;
  t_blocked : int;
  completed : int;  (** connections that departed within the horizon *)
  mean_active : float;  (** time-averaged concurrent connections *)
}

val run_timed :
  ?telemetry:Wdm_telemetry.Sink.t ->
  ?on_blocked:(Connection.t -> 'err -> unit) ->
  Random.State.t ->
  spec:Network_spec.t ->
  model:Model.t ->
  fanout:Fanout.t ->
  arrival_rate:float ->
  mean_holding:float ->
  horizon:float ->
  ('id, 'err) sut ->
  timed_stats
(** Event-driven simulation on [0, horizon]: arrivals form a Poisson
    process of the given rate; each accepted connection holds for an
    independent exponential time.  With no blocking and light load,
    [mean_active] approaches the offered load (Little's law), which the
    tests check.

    Connections still held when the horizon is reached are
    intentionally never disconnected: the run stops mid-flight rather
    than winding the system down, so [completed] counts only departures
    within the horizon and the switch under test is left holding the
    in-flight routes.  [churn_active_connections] is reset to 0 when
    the run ends, so a reused sink does not keep reporting those
    abandoned connections as active. *)

val pp_timed_stats : Format.formatter -> timed_stats -> unit
