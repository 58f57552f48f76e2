open Wdm_core
open Wdm_multistage
module Churn = Wdm_traffic.Churn
module Fanout = Wdm_traffic.Fanout

type measurement = {
  m : int;
  attempts : int;
  blocked : int;
  probability : float;
}

let churn_sut t =
  {
    Churn.connect =
      (fun c ->
        match Network.connect t c with
        | Ok route -> Ok route.Network.id
        | Error e -> Error e);
    disconnect = (fun id -> ignore (Network.disconnect t id));
  }

let run_once ~seed ~steps ~fanout ~teardown_bias ~construction ~output_model topo =
  let t = Network.create ~construction ~output_model topo in
  let spec = Topology.spec topo in
  Churn.run (Random.State.make [| seed |]) ~spec ~model:output_model ~fanout
    ~steps ~teardown_bias (churn_sut t)

let blocking_vs_m ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(steps = 400)
    ?(fanout = Fanout.Zipf { max = 64; s = 1.1 }) ?(teardown_bias = 0.3)
    ~construction ~output_model ~n ~r ~k ~ms () =
  (* every (m, seed) run owns all its state: fan out over domains *)
  let runs =
    Parallel.map
      (fun (m, seed) ->
        let topo = Topology.make_exn ~n ~m ~r ~k in
        let stats =
          run_once ~seed ~steps ~fanout ~teardown_bias ~construction
            ~output_model topo
        in
        (m, stats))
      (List.concat_map (fun m -> List.map (fun s -> (m, s)) seeds) ms)
  in
  List.map
    (fun m ->
      let attempts, blocked =
        List.fold_left
          (fun (a, b) (m', stats) ->
            if m' = m then (a + stats.Churn.attempts, b + stats.Churn.blocked)
            else (a, b))
          (0, 0) runs
      in
      {
        m;
        attempts;
        blocked;
        probability =
          (if attempts = 0 then 0.
           else float_of_int blocked /. float_of_int attempts);
      })
    ms

let blocking_table ~construction ~output_model ~n ~r ~k =
  let eval = Conditions.evaluate construction ~n ~r ~k in
  let m_min = eval.Conditions.m_min in
  let ms =
    List.sort_uniq Int.compare
      (List.filter (fun m -> m >= n) [ n; (n + m_min) / 2; m_min - 1; m_min; m_min + 1 ])
  in
  let results =
    blocking_vs_m ~construction ~output_model ~n ~r ~k ~ms ()
  in
  let cname =
    match construction with
    | Network.Msw_dominant -> "MSW-dominant"
    | Network.Maw_dominant -> "MAW-dominant"
  in
  let t =
    Table.make
      ~title:
        (Format.asprintf
           "Blocking probability vs m (%s, %a, n=%d r=%d k=%d, m_min=%d)" cname
           Model.pp output_model n r k m_min)
      ~header:[ "m"; "attempts"; "blocked"; "P(block)"; "note" ]
      ()
  in
  List.iter
    (fun res ->
      Table.add_row t
        [
          string_of_int res.m;
          string_of_int res.attempts;
          string_of_int res.blocked;
          Printf.sprintf "%.4f" res.probability;
          (if res.m >= m_min then "m >= m_min (theorem: nonblocking)" else "");
        ])
    results;
  t

let construction_ablation ~n ~r ~k ~ms =
  let t =
    Table.make
      ~title:
        (Printf.sprintf
           "Construction ablation at equal m (network model MAW, n=%d r=%d k=%d)"
           n r k)
      ~header:[ "m"; "MSW-dom blocked"; "MAW-dom blocked"; "attempts each" ]
      ()
  in
  List.iter
    (fun m ->
      let measure construction =
        match
          blocking_vs_m ~construction ~output_model:Model.MAW ~n ~r ~k ~ms:[ m ] ()
        with
        | [ res ] -> res
        | _ -> assert false
      in
      let a = measure Network.Msw_dominant in
      let b = measure Network.Maw_dominant in
      Table.add_row t
        [
          string_of_int m;
          string_of_int a.blocked;
          string_of_int b.blocked;
          string_of_int a.attempts;
        ])
    ms;
  t

let blocking_vs_load ?(seeds = [ 11; 12; 13 ]) ?(steps = 500) ~construction
    ~output_model ~n ~r ~k ~m () =
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let t =
    Table.make
      ~title:
        (Format.asprintf "Blocking vs offered load (%a, n=%d r=%d k=%d, m=%d)"
           Model.pp output_model n r k m)
      ~header:[ "teardown bias"; "attempts"; "blocked"; "P(block)"; "mean util %" ]
      ()
  in
  List.iter
    (fun bias ->
      let attempts = ref 0 and blocked = ref 0 and util = ref 0. in
      List.iter
        (fun seed ->
          let net = Network.create ~construction ~output_model topo in
          let stats =
            Churn.run
              (Random.State.make [| seed |])
              ~spec:(Topology.spec topo) ~model:output_model
              ~fanout:(Fanout.Zipf { max = n * r; s = 1.1 })
              ~steps ~teardown_bias:bias (churn_sut net)
          in
          attempts := !attempts + stats.Churn.attempts;
          blocked := !blocked + stats.Churn.blocked;
          util := !util +. Network.utilization net)
        seeds;
      Table.add_row t
        [
          Printf.sprintf "%.2f" bias;
          string_of_int !attempts;
          string_of_int !blocked;
          Printf.sprintf "%.4f"
            (if !attempts = 0 then 0.
             else float_of_int !blocked /. float_of_int !attempts);
          Printf.sprintf "%.1f" (100. *. !util /. float_of_int (List.length seeds));
        ])
    [ 0.6; 0.45; 0.3; 0.15; 0.05 ];
  t

let erlang_curve ?(seed = 33) ?(horizon = 300.) ~construction ~output_model ~n
    ~r ~k ~m ~offered () =
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let t =
    Table.make
      ~title:
        (Format.asprintf
           "Erlang view: blocking vs offered load (%a, n=%d r=%d k=%d, m=%d)"
           Model.pp output_model n r k m)
      ~header:[ "offered (E)"; "attempts"; "blocked"; "P(block)"; "mean active" ]
      ()
  in
  List.iter
    (fun load ->
      let net = Network.create ~construction ~output_model topo in
      let stats =
        Churn.run_timed
          (Random.State.make [| seed |])
          ~spec:(Topology.spec topo) ~model:output_model
          ~fanout:(Fanout.Zipf { max = n * r; s = 1.2 })
          ~arrival_rate:load ~mean_holding:1.0 ~horizon (churn_sut net)
      in
      Table.add_row t
        [
          Printf.sprintf "%.1f" stats.Churn.offered_erlangs;
          string_of_int stats.Churn.t_attempts;
          string_of_int stats.Churn.t_blocked;
          Printf.sprintf "%.4f"
            (if stats.Churn.t_attempts = 0 then 0.
             else
               float_of_int stats.Churn.t_blocked
               /. float_of_int stats.Churn.t_attempts);
          Printf.sprintf "%.2f" stats.Churn.mean_active;
        ])
    offered;
  t

let frontier ?(seeds = List.init 8 (fun i -> 100 + i)) ?(steps = 600)
    ~construction ~output_model ~n ~r ~k () =
  let eval = Conditions.evaluate construction ~n ~r ~k in
  let ms =
    List.init (Stdlib.max 0 (eval.Conditions.m_min - n)) (fun i -> n + i)
  in
  let blocked_at m =
    List.exists
      (fun seed ->
        let topo = Topology.make_exn ~n ~m ~r ~k in
        let stats =
          run_once ~seed ~steps
            ~fanout:(Fanout.Zipf { max = n * r; s = 1.0 })
            ~teardown_bias:0.3 ~construction ~output_model topo
        in
        stats.Churn.blocked > 0)
      seeds
  in
  List.fold_left (fun acc m -> if blocked_at m then Some m else acc) None ms

let rearrangement_ablation ?(seeds = [ 5; 6; 7 ]) ?(steps = 1500) ~construction
    ~output_model ~n ~r ~k ~ms () =
  let t =
    Table.make
      ~title:
        (Format.asprintf "Rearrangement ablation (%a, n=%d r=%d k=%d)"
           Model.pp output_model n r k)
      ~header:[ "m"; "attempts"; "blocked"; "rescued"; "rescue rate" ]
      ()
  in
  List.iter
    (fun m ->
      let attempts = ref 0 and blocked = ref 0 and rescued = ref 0 in
      List.iter
        (fun seed ->
          let topo = Topology.make_exn ~n ~m ~r ~k in
          let net = Network.create ~construction ~output_model topo in
          let sut =
            {
              Churn.connect =
                (fun c ->
                  match Network.connect net c with
                  | Ok route -> Ok route.Network.id
                  | Error _ -> (
                    incr blocked;
                    match Network.connect_rearrangeable net c with
                    | Ok (route, _) ->
                      incr rescued;
                      Ok route.Network.id
                    | Error e -> Error e));
              disconnect = (fun id -> ignore (Network.disconnect net id));
            }
          in
          let stats =
            Churn.run
              (Random.State.make [| seed |])
              ~spec:(Topology.spec topo) ~model:output_model
              ~fanout:(Fanout.Zipf { max = n * r; s = 1.0 })
              ~steps ~teardown_bias:0.3 sut
          in
          attempts := !attempts + stats.Churn.attempts)
        seeds;
      Table.add_row t
        [
          string_of_int m;
          string_of_int !attempts;
          string_of_int !blocked;
          string_of_int !rescued;
          (if !blocked = 0 then "-"
           else Printf.sprintf "%.3f" (float_of_int !rescued /. float_of_int !blocked));
        ])
    ms;
  t

let strategy_ablation ~construction ~output_model ~n ~r ~k ~m =
  let t =
    Table.make
      ~title:
        (Printf.sprintf "Routing-strategy ablation (n=%d r=%d k=%d, m=%d)" n r k m)
      ~header:[ "strategy"; "attempts"; "blocked"; "mean middles/route" ]
      ()
  in
  List.iter
    (fun strategy ->
      let topo = Topology.make_exn ~n ~m ~r ~k in
      let net =
        Network.create
          ~config:{ Network.Config.default with strategy }
          ~construction ~output_model topo
      in
      let hops_total = ref 0 and routes_total = ref 0 in
      let sut =
        {
          Churn.connect =
            (fun c ->
              match Network.connect net c with
              | Ok route ->
                hops_total := !hops_total + List.length route.Network.hops;
                incr routes_total;
                Ok route.Network.id
              | Error e -> Error e);
          disconnect = (fun id -> ignore (Network.disconnect net id));
        }
      in
      let stats =
        Churn.run (Random.State.make [| 97 |]) ~spec:(Topology.spec topo)
          ~model:output_model
          ~fanout:(Fanout.Uniform (1, Stdlib.max 1 (n * r / 2)))
          ~steps:400 ~teardown_bias:0.3 sut
      in
      Table.add_row t
        [
          strategy;
          string_of_int stats.Churn.attempts;
          string_of_int stats.Churn.blocked;
          (if !routes_total = 0 then "-"
           else Printf.sprintf "%.2f"
               (float_of_int !hops_total /. float_of_int !routes_total));
        ])
    [ "min-intersection"; "first-fit"; "exhaustive" ];
  t
