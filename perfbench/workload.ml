(* The three workloads: engine flags (spelled out once, for both
   `wdmnet serve` and the in-process twin), client shape, and the
   seeded request traces. *)

open Wdm_core
open Stats
module Network = Wdm_multistage.Network
module Mesh = Wdm_mesh.Mesh_network
module Backend = Wdm_persist.Backend

type engine =
  | Fabric of { n : int; r : int; k : int; m : int; strategy : string }
      (** MSW-dominant construction with MSW output modules *)
  | Mesh_topo of { topo : string; k : int; strategy : string }
      (** mesh RWA engine; mode, splitters and Yen paths stay at
          [Mesh.Config.default], exactly what [serve --mesh] uses *)

type traffic =
  | Churn of { fanout_max : int; teardown_bias : float }
      (** set-up / tear-down churn over free endpoints *)
  | Erlang of { offered : float; fanout_max : int }
      (** Poisson arrivals, unit-mean exponential holding *)

type t = {
  name : string;
  engine : engine;
  traffic : traffic;
  follower : bool;  (** one `serve --follower` process replicates the leader *)
  batch : int;  (** requests per frame; 1 sends plain single-op frames *)
  warmup : int;  (** requests answered before the timed window opens *)
}

let zipf_s = 1.3

(* Theorem 1's minimum middle-module count for an MSW-dominant fabric *)
let theorem1_m ~n ~r = (Wdm_multistage.Conditions.msw_dominant ~n ~r).m_min

(* The N=1024 MSW-dominant fabric under churn, one request in flight. *)
let ms_seq =
  {
    name = "ms-seq";
    engine =
      (let n = 32 and r = 32 in
       Fabric { n; r; k = 2; m = theorem1_m ~n ~r; strategy = "min-intersection" });
    traffic = Churn { fanout_max = 64; teardown_bias = 0.35 };
    follower = false;
    batch = 1;
    warmup = 25_000;
  }

let all =
  [
    ms_seq;
    { ms_seq with name = "ms-repl"; follower = true };
    {
      name = "mesh-batch";
      engine = Mesh_topo { topo = "nsf14"; k = 32; strategy = "first-fit" };
      traffic = Erlang { offered = 120.; fanout_max = 8 };
      follower = false;
      batch = 64;
      warmup = 10_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Provisioned to Theorem 1, so a refused connect fails the run. *)
let nonblocking w =
  match w.engine with
  | Fabric f -> f.m >= theorem1_m ~n:f.n ~r:f.r
  | Mesh_topo _ -> false

(* The engine half of the `wdmnet serve` command line. *)
let serve_flags = function
  | Fabric f ->
    [ "--construction"; "msw-dominant"; "--model"; "MSW";
      "--n-local"; string_of_int f.n; "-r"; string_of_int f.r;
      "-k"; string_of_int f.k; "-m"; string_of_int f.m;
      "--strategy"; f.strategy ]
  | Mesh_topo t ->
    [ "--mesh"; t.topo; "--wavelengths"; string_of_int t.k;
      "--strategy"; t.strategy ]

(* The twin: the same engine, built in-process from the same fields. *)
let backend ?telemetry = function
  | Fabric f ->
    let strategy = Result.get_ok (Network.strategy_of_string f.strategy) in
    let topo = Wdm_multistage.Topology.make_exn ~n:f.n ~m:f.m ~r:f.r ~k:f.k in
    Backend.Net
      (Network.create
         ~config:{ Network.Config.default with strategy; telemetry }
         ~construction:Network.Msw_dominant ~output_model:Model.MSW topo)
  | Mesh_topo t -> (
    let strategy = Result.get_ok (Wdm_mesh.Assign.strategy_of_string t.strategy) in
    let config = { Mesh.Config.default with Mesh.Config.k = t.k; strategy } in
    match Mesh.create ?telemetry ~config t.topo with
    | Ok m -> Backend.Mesh m
    | Error e -> failwith e)

(* {1 Traces}

   A trace is the client's script, a pure function of the seed.  A
   tear-down names the connect it undoes by its ordinal among the
   trace's connects; the client substitutes the route id the server
   answered that connect with, and skips the tear-down when the
   connect was refused.

   A trace has no end: the traffic library's generator
   ({!Wdm_traffic.Churn.run} or {!Wdm_traffic.Erlang.run}, against a
   recorder that admits everything) runs in a fiber that is suspended
   after each step, and steps are drawn as far as the client asks.  So no run can outpace
   its trace, and a longer run replays a shorter one's steps first.
   The benchmark draws steps before the servers start and between
   timed seconds ({!ensure}); {!step} draws on the spot only if a
   second ran further than that. *)

type step = Connect of Connection.t | Disconnect of int

type trace = { steps : step Vec.t; next : unit -> step }

(* [produce emit] calls [emit] once per step, for ever; the result
   hands those steps out one per call, running [produce] only that far. *)
let on_demand (produce : (step -> unit) -> unit) : unit -> step =
  let open Effect.Shallow in
  let module E = struct
    type _ Effect.t += Yield : step -> unit Effect.t
  end in
  let k = ref (fiber (fun () -> produce (fun s -> Effect.perform (E.Yield s)))) in
  let handler =
    {
      retc = (fun () -> failwith "trace generator ended");
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | E.Yield s ->
            Some
              (fun (rest : (a, unit) continuation) ->
                k := rest;
                s)
          | _ -> None);
    }
  in
  fun () -> continue_with !k () handler

(* A system under test that admits every connect: on a Theorem-1
   fabric that is what the server must do, and on the mesh the client
   skips the tear-downs of whatever the server refuses. *)
let recorder emit =
  let connects = ref 0 in
  {
    Wdm_traffic.Churn.connect =
      (fun c ->
        emit (Connect c);
        incr connects;
        Ok (!connects - 1));
    disconnect = (fun j -> emit (Disconnect j));
  }

let mesh_nodes topo =
  match Mesh.create topo with
  | Ok m -> Wdm_mesh.Graph.n (Mesh.graph m)
  | Error e -> failwith e

let trace w ~seed =
  (* seeded by the traffic alone: ms-seq and ms-repl replay one trace *)
  let rng = Random.State.make [| seed |] in
  let zipf max = Wdm_traffic.Fanout.Zipf { max; s = zipf_s } in
  let produce =
    match (w.traffic, w.engine) with
    | Churn c, Fabric f ->
      let spec = Network_spec.make_exn ~n:(f.n * f.r) ~k:f.k in
      fun emit ->
        ignore
          (Wdm_traffic.Churn.run rng ~spec ~model:Model.MSW ~fanout:(zipf c.fanout_max)
             ~steps:max_int ~teardown_bias:c.teardown_bias (recorder emit))
    | Erlang e, Mesh_topo t ->
      let nodes = mesh_nodes t.topo in
      fun emit ->
        ignore
          (Wdm_traffic.Erlang.run rng ~nodes ~fanout:(zipf e.fanout_max) ~offered:e.offered
             ~arrivals:max_int (recorder emit))
    | _ -> invalid_arg "Workload.trace: traffic does not fit the engine"
  in
  { steps = Vec.create (); next = on_demand produce }

(* Draw steps until the first [n] are drawn. *)
let ensure t n =
  while Vec.length t.steps < n do
    Vec.push t.steps (t.next ())
  done

let step t i =
  ensure t (i + 1);
  Vec.get t.steps i
