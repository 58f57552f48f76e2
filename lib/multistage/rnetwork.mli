(** Routing for recursively constructed multistage networks.

    Section 3 opens with: "In general, a network can have any odd number
    of stages and be built in a recursive fashion from these switching
    modules, which are in fact regarded as networks of a smaller size."
    {!Recursive} prices those networks; this module {e routes} them: a
    three-stage {!Network} whose middle "switches" may themselves be
    recursive networks one level smaller.

    When the outer router picks middle module [j] for a hop, the nested
    network behind [j] must itself carry a connection from local input
    [i] (the outer input module's index) on the stage-1 wavelength to
    the served local outputs on their stage-2 wavelengths.  Atomic
    (crossbar) middles always can; nested middles run their own
    admission, and a nested refusal makes the whole request block — so
    a recursive network is nonblocking when {e every} level is
    provisioned to its own Theorem-1/2 bound, which is exactly the
    experiment the tests run.  (On a nested refusal this implementation
    does not retry the outer selection with other middles, so below the
    bounds it may block slightly more than an ideal router.) *)

open Wdm_core

type t

type route = {
  base : Network.route;  (** this level's hops *)
  subroutes : (int * route) list;
      (** per nested middle module index (1-based), the inner route *)
}

val create :
  ?strategy:string ->
  construction:Network.construction ->
  Recursive.t ->
  t
(** Instantiates the design tree: every level gets its own link state
    and (per-level default) [x_limit]; inner levels use the
    construction's dominant model end to end, the outermost output
    stage uses the design's model. *)

val stages : t -> int
val topology : t -> Topology.t
(** The outermost level's topology. *)

val connect : t -> Connection.t -> (route, Network.error) result
val disconnect : t -> int -> (route, Network.disconnect_error) result
(** By the outer route id. *)

val active_routes : t -> route list
val utilization : t -> float
