(* Tests for the fault-injection subsystem: the fault vocabulary and
   seedable schedules (lib/faults), degraded-mode routing (routing never
   touches a failed middle, laser or converter), the repair pass, the
   m + f slack rule with its adversarial verification, and churn
   campaigns under MTBF/MTTR fault processes. *)

open Wdm_core
open Wdm_multistage
module Fault = Wdm_faults.Fault
module Schedule = Wdm_faults.Schedule

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

let net ?strategy ?x_limit ~construction ~output_model ~n ~m ~r ~k () =
  Network.create
    ~config:
      {
        Network.Config.default with
        strategy = Option.value ~default:"min-intersection" strategy;
        x_limit;
      }
    ~construction ~output_model
    (Topology.make_exn ~n ~m ~r ~k)

let check_ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Format.asprintf "%a" Network.pp_error e)

let churn_sut t =
  {
    Wdm_traffic.Churn.connect =
      (fun c ->
        match Network.connect t c with
        | Ok route -> Ok route.Network.id
        | Error e -> Error e);
    disconnect = (fun id -> ignore (Network.disconnect t id));
  }

let faulty_sut t =
  {
    Wdm_traffic.Churn.base = churn_sut t;
    inject = Network.inject_fault t;
    clear = Network.clear_fault t;
    reconnect =
      (fun c ->
        match Network.connect_rearrangeable t c with
        | Ok (route, _) -> Ok route.Network.id
        | Error e -> Error e);
  }

(* --- fault vocabulary ---------------------------------------------------- *)

let test_validate () =
  let v = Fault.validate ~m:4 ~r:3 ~k:2 in
  Alcotest.(check bool) "middle ok" true (Result.is_ok (v (Fault.Middle 4)));
  Alcotest.(check bool) "middle bad" true (Result.is_error (v (Fault.Middle 5)));
  Alcotest.(check bool) "input bad" true
    (Result.is_error (v (Fault.Input_module 0)));
  Alcotest.(check bool) "output ok" true
    (Result.is_ok (v (Fault.Output_module 3)));
  Alcotest.(check bool) "laser ok" true
    (Result.is_ok (v (Fault.Stage1_laser { input = 3; middle = 4; wl = 2 })));
  Alcotest.(check bool) "laser wl bad" true
    (Result.is_error (v (Fault.Stage1_laser { input = 1; middle = 1; wl = 3 })));
  Alcotest.(check bool) "stage2 middle bad" true
    (Result.is_error (v (Fault.Stage2_laser { middle = 5; output = 1; wl = 1 })));
  Alcotest.(check bool) "converter ok" true
    (Result.is_ok (v (Fault.Converter { middle = 4; output = 3 })))

let test_universe_census () =
  let m = 3 and r = 2 and k = 2 in
  let u = Fault.universe ~m ~r ~k in
  (* m middles + r inputs + r outputs + r*m*k + m*r*k lasers + m*r converters *)
  Alcotest.(check int) "universe size"
    (m + r + r + (r * m * k) + (m * r * k) + (m * r))
    (List.length u);
  Alcotest.(check int) "all valid" 0
    (List.length
       (List.filter (fun f -> Result.is_error (Fault.validate ~m ~r ~k f)) u));
  Alcotest.(check int) "no duplicates" (List.length u)
    (Fault.Set.cardinal (Fault.Set.of_list u));
  Alcotest.(check (list string)) "middles"
    [ "middle m1"; "middle m2"; "middle m3" ]
    (List.map Fault.to_string (Fault.middles ~m))

let test_fault_pp () =
  Alcotest.(check string) "stage1 laser" "laser l2 on i1->m3"
    (Fault.to_string (Fault.Stage1_laser { input = 1; middle = 3; wl = 2 }));
  Alcotest.(check string) "converter" "converter m2->o1"
    (Fault.to_string (Fault.Converter { middle = 2; output = 1 }))

(* --- schedules ----------------------------------------------------------- *)

let test_schedule_deterministic () =
  let gen seed =
    Schedule.generate
      ~rng:(Random.State.make [| seed |])
      ~universe:(Fault.universe ~m:3 ~r:2 ~k:2)
      ~mtbf:40. ~mttr:15. ~steps:300
  in
  Alcotest.(check bool) "same seed, same schedule" true (gen 9 = gen 9);
  Alcotest.(check bool) "some failures over 300 steps" true
    (Schedule.injections (gen 9) > 0)

let test_schedule_sorted_and_alternating () =
  let s =
    Schedule.generate
      ~rng:(Random.State.make [| 4 |])
      ~universe:(Fault.middles ~m:5) ~mtbf:30. ~mttr:10. ~steps:500
  in
  let rec sorted = function
    | { Schedule.step = a; _ } :: ({ Schedule.step = b; _ } :: _ as rest) ->
      a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by step" true (sorted s);
  (* per component, inject and clear must alternate, inject first *)
  List.iter
    (fun fault ->
      let mine =
        List.filter_map
          (fun { Schedule.action; _ } ->
            match action with
            | Schedule.Inject f when Fault.equal f fault -> Some `I
            | Schedule.Clear f when Fault.equal f fault -> Some `C
            | _ -> None)
          s
      in
      let rec alternates expected = function
        | [] -> true
        | x :: rest -> x = expected && alternates (if x = `I then `C else `I) rest
      in
      Alcotest.(check bool)
        (Fault.to_string fault ^ " alternates")
        true (alternates `I mine))
    (Fault.middles ~m:5)

let test_schedule_validation () =
  let rng = Random.State.make [| 1 |] in
  List.iter
    (fun (mtbf, mttr, steps) ->
      match
        Schedule.generate ~rng ~universe:[ Fault.Middle 1 ] ~mtbf ~mttr ~steps
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [ (0., 1., 10); (1., 0., 10); (1., 1., -1) ];
  Alcotest.(check (list unit)) "empty universe, empty schedule" []
    (List.map ignore
       (Schedule.generate ~rng ~universe:[] ~mtbf:1. ~mttr:1. ~steps:50))

(* --- degraded-mode routing ----------------------------------------------- *)

let drive ?(seed = 42) ?(steps = 250) ~model t =
  let spec = Topology.spec (Network.topology t) in
  ignore
    (Wdm_traffic.Churn.run
       (Random.State.make [| seed |])
       ~spec ~model
       ~fanout:(Wdm_traffic.Fanout.Uniform (1, 3))
       ~steps ~teardown_bias:0.4 (churn_sut t))

let test_routing_avoids_failed_middle () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:3
      ~m:8 ~r:3 ~k:2 () in
  Alcotest.(check (list unit)) "idle network, no victims" []
    (List.map ignore (Network.inject_fault t (Fault.Middle 3)));
  Alcotest.(check bool) "degraded" true (Network.degraded t);
  drive ~model:Model.MSW t;
  Alcotest.(check bool) "traffic flowed" true
    (List.length (Network.active_routes t) > 0);
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          Alcotest.(check bool) "never the failed middle" true
            (h.Network.middle <> 3))
        route.Network.hops)
    (Network.active_routes t)

let test_routing_avoids_dead_stage1_laser () =
  let t = net ~construction:Network.Maw_dominant ~output_model:Model.MAW ~n:3
      ~m:8 ~r:3 ~k:2 () in
  let dead = Fault.Stage1_laser { input = 1; middle = 2; wl = 1 } in
  ignore (Network.inject_fault t dead);
  drive ~model:Model.MAW t;
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          Alcotest.(check bool) "dead laser slot untouched" false
            (route.Network.input_switch = 1 && h.Network.middle = 2
             && h.Network.stage1_wl = 1))
        route.Network.hops)
    (Network.active_routes t)

let test_routing_avoids_dead_stage2_laser () =
  let t = net ~construction:Network.Maw_dominant ~output_model:Model.MAW ~n:3
      ~m:8 ~r:3 ~k:2 () in
  let dead = Fault.Stage2_laser { middle = 2; output = 1; wl = 2 } in
  ignore (Network.inject_fault t dead);
  drive ~model:Model.MAW t;
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          if h.Network.middle = 2 then
            List.iter
              (fun (p, w2) ->
                Alcotest.(check bool) "dead laser slot untouched" false
                  (p = 1 && w2 = 2))
              h.Network.serves)
        route.Network.hops)
    (Network.active_routes t)

let test_routing_respects_stuck_converter () =
  (* With the m2->o1 converter stuck, any route through middle 2 to
     output module 1 must pass through unconverted. *)
  let t = net ~construction:Network.Maw_dominant ~output_model:Model.MAW ~n:3
      ~m:8 ~r:3 ~k:3 () in
  ignore (Network.inject_fault t (Fault.Converter { middle = 2; output = 1 }));
  drive ~model:Model.MAW t;
  let through = ref 0 in
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          if h.Network.middle = 2 then
            List.iter
              (fun (p, w2) ->
                if p = 1 then begin
                  incr through;
                  Alcotest.(check int) "pass-through wavelength"
                    h.Network.stage1_wl w2
                end)
              h.Network.serves)
        route.Network.hops)
    (Network.active_routes t);
  ignore !through

let test_unserviceable_modules () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:2
      ~m:4 ~r:2 ~k:1 () in
  let c = conn (ep 1 1) [ ep 3 1 ] in
  ignore (check_ok (Network.connect t c));
  (* ports 1-2 are input module 1; ports 3-4 output module 2 *)
  let victims = Network.inject_fault t (Fault.Input_module 1) in
  Alcotest.(check int) "live route torn down" 1 (List.length victims);
  (match Network.connect t c with
  | Error (Network.Unserviceable (Fault.Input_module 1)) -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error: %a" Network.pp_error e)
  | Ok _ -> Alcotest.fail "routed through a dark input module");
  (* other input module unaffected *)
  ignore (check_ok (Network.connect t (conn (ep 3 1) [ ep 1 1 ])));
  ignore (Network.inject_fault t (Fault.Output_module 2));
  (match Network.connect t (conn (ep 2 1) [ ep 4 1 ]) with
  | Error (Network.Unserviceable (Fault.Input_module 1)) -> ()
  | _ -> Alcotest.fail "source check comes first");
  Network.clear_fault t (Fault.Input_module 1);
  (match Network.connect t (conn (ep 2 1) [ ep 4 1 ]) with
  | Error (Network.Unserviceable (Fault.Output_module 2)) -> ()
  | _ -> Alcotest.fail "expected dark output module");
  Network.clear_fault t (Fault.Output_module 2);
  Alcotest.(check bool) "healthy again" false (Network.degraded t);
  ignore (check_ok (Network.connect t (conn (ep 2 1) [ ep 4 1 ])))

let test_inject_idempotent_and_validated () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:2
      ~m:4 ~r:2 ~k:1 () in
  ignore (check_ok (Network.connect t (conn (ep 1 1) [ ep 3 1 ])));
  let f = Fault.Middle 1 in
  ignore (Network.inject_fault t f);
  Alcotest.(check int) "second inject finds nothing" 0
    (List.length (Network.inject_fault t f));
  Alcotest.(check int) "recorded once" 1 (List.length (Network.faults t));
  (match Network.inject_fault t (Fault.Middle 9) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  match Network.inject_fault t (Fault.Stage1_laser { input = 1; middle = 1; wl = 2 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument (wl > k)"

let test_clear_reopens_resource () =
  (* k = 1 and every middle but m1 dead: only m1 can carry anything. *)
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:2
      ~m:2 ~r:2 ~k:1 () in
  ignore (Network.inject_fault t (Fault.Middle 2));
  let r1 = check_ok (Network.connect t (conn (ep 1 1) [ ep 3 1 ])) in
  Alcotest.(check int) "forced onto m1" 1
    (List.hd r1.Network.hops).Network.middle;
  (match Network.connect t (conn (ep 2 1) [ ep 4 1 ]) with
  | Error (Network.Blocked _) -> ()
  | _ -> Alcotest.fail "stage1 fiber i1->m1 is saturated at k = 1");
  Network.clear_fault t (Fault.Middle 2);
  let r2 = check_ok (Network.connect t (conn (ep 2 1) [ ep 4 1 ])) in
  Alcotest.(check int) "repaired middle back in rotation" 2
    (List.hd r2.Network.hops).Network.middle

(* --- repair pass --------------------------------------------------------- *)

let test_repair_rehomes_victims () =
  (* Provision one module of slack, load the fabric, kill a middle:
     every victim must be re-homed and the survivors left alone. *)
  let eval = Conditions.msw_dominant ~n:3 ~r:3 in
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:3
      ~m:(eval.Conditions.m_min + 1) ~r:3 ~k:2 () in
  drive ~model:Model.MSW ~seed:7 t;
  let before = List.length (Network.active_routes t) in
  Alcotest.(check bool) "fabric is loaded" true (before > 3);
  (* kill the busiest middle so there are victims *)
  let busiest =
    List.concat_map
      (fun (r : Network.route) ->
        List.map (fun (h : Network.hop) -> h.Network.middle) r.Network.hops)
      (Network.active_routes t)
    |> List.fold_left
         (fun acc j -> if List.mem_assoc j acc then acc else (j, ()) :: acc)
         [] |> List.hd |> fst
  in
  let victims = Network.inject_fault t (Fault.Middle busiest) in
  Alcotest.(check bool) "victims exist" true (victims <> []);
  let outcome = Scheduler.repair t victims in
  Alcotest.(check int) "all re-homed" (List.length victims)
    (List.length outcome.Scheduler.repaired);
  Alcotest.(check int) "none dropped" 0 (List.length outcome.Scheduler.dropped);
  Alcotest.(check int) "population restored" before
    (List.length (Network.active_routes t));
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          Alcotest.(check bool) "no route on the dead middle" true
            (h.Network.middle <> busiest))
        route.Network.hops)
    (Network.active_routes t)

let test_repair_after_clear_restores_everything () =
  (* Acceptance: victims that cannot be re-homed while degraded are all
     restored by a repair pass once every fault clears. *)
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:3
      ~m:5 ~r:3 ~k:1 () in
  drive ~model:Model.MSW ~seed:11 ~steps:400 t;
  let before = List.length (Network.active_routes t) in
  Alcotest.(check bool) "fabric is loaded" true (before > 3);
  let faults = [ Fault.Middle 1; Fault.Middle 2; Fault.Middle 3 ] in
  let victims = List.concat_map (Network.inject_fault t) faults in
  Alcotest.(check bool) "victims exist" true (victims <> []);
  let degraded = Scheduler.repair t victims in
  let lost = List.map fst degraded.Scheduler.dropped in
  List.iter (Network.clear_fault t) faults;
  Alcotest.(check bool) "healthy" false (Network.degraded t);
  let healed = Scheduler.repair t lost in
  Alcotest.(check int) "every connection restored" 0
    (List.length healed.Scheduler.dropped);
  Alcotest.(check int) "population restored" before
    (List.length (Network.active_routes t))

let test_repair_reports_unserviceable () =
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:2
      ~m:4 ~r:2 ~k:1 () in
  ignore (check_ok (Network.connect t (conn (ep 1 1) [ ep 3 1 ])));
  let victims = Network.inject_fault t (Fault.Input_module 1) in
  let outcome = Scheduler.repair t victims in
  Alcotest.(check int) "nothing repairable" 0
    (List.length outcome.Scheduler.repaired);
  match outcome.Scheduler.dropped with
  | [ (_, Network.Unserviceable (Fault.Input_module 1)) ] -> ()
  | _ -> Alcotest.fail "expected one Unserviceable drop"

(* --- the m + f slack rule ------------------------------------------------ *)

let test_provision_arithmetic () =
  let s =
    Wdm_analysis.Fault_tolerance.provision ~construction:Network.Msw_dominant
      ~n:2 ~r:2 ~k:1 ~f:2
  in
  Alcotest.(check int) "m_min" 4 s.Wdm_analysis.Fault_tolerance.eval.Conditions.m_min;
  Alcotest.(check int) "m_required" 6 s.Wdm_analysis.Fault_tolerance.m_required;
  List.iter
    (fun (m, f, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "tolerates m=%d f=%d" m f)
        expected
        (Wdm_analysis.Fault_tolerance.tolerates
           ~construction:Network.Msw_dominant ~n:2 ~r:2 ~k:1 ~m ~f))
    [ (4, 0, true); (5, 1, true); (4, 1, false); (6, 2, true); (5, -1, false) ];
  match
    Wdm_analysis.Fault_tolerance.provision ~construction:Network.Msw_dominant
      ~n:2 ~r:2 ~k:1 ~f:(-1)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_slack_verified_adversarially () =
  (* n = r = 2, k = 1: the searched frontier is m = 3 (see the adversary
     suite).  At m = 4 every 1-fault degradation keeps m_eff = 3, so the
     exhaustive search must prove every one nonblocking. *)
  let checks =
    Wdm_analysis.Fault_tolerance.verify_middle_slack ~all_subsets:true
      ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:2 ~r:2 ~k:1
      ~m:4 ~f:1 ()
  in
  Alcotest.(check int) "C(4,1) degradations searched" 4 (List.length checks);
  List.iter
    (fun (c : Wdm_analysis.Fault_tolerance.check) ->
      match c.Wdm_analysis.Fault_tolerance.verdict with
      | Wdm_analysis.Adversary.Nonblocking_proved _ -> ()
      | v ->
        Alcotest.fail
          (Format.asprintf "%a: expected proof, got %a"
             Wdm_analysis.Fault_tolerance.pp_check c
             Wdm_analysis.Adversary.pp_verdict v))
    checks

let test_slack_exhausted_finds_blocking () =
  (* One fault below the frontier (m = 3, f = 1 -> m_eff = 2) must
     produce a blocking witness for every choice of failed middle. *)
  let checks =
    Wdm_analysis.Fault_tolerance.verify_middle_slack ~all_subsets:true
      ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:2 ~r:2 ~k:1
      ~m:3 ~f:1 ()
  in
  Alcotest.(check int) "C(3,1) degradations searched" 3 (List.length checks);
  List.iter
    (fun (c : Wdm_analysis.Fault_tolerance.check) ->
      match c.Wdm_analysis.Fault_tolerance.verdict with
      | Wdm_analysis.Adversary.Blocking _ -> ()
      | v ->
        Alcotest.fail
          (Format.asprintf "expected a blocking witness, got %a"
             Wdm_analysis.Adversary.pp_verdict v))
    checks

(* --- churn under fault schedules ----------------------------------------- *)

let test_empty_schedule_matches_plain_run () =
  let spec_net () =
    net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:3 ~m:8
      ~r:3 ~k:2 ()
  in
  let t1 = spec_net () and t2 = spec_net () in
  let spec = Topology.spec (Network.topology t1) in
  let plain =
    Wdm_traffic.Churn.run
      (Random.State.make [| 99 |])
      ~spec ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Uniform (1, 3))
      ~steps:300 ~teardown_bias:0.4 (churn_sut t1)
  in
  let s =
    Wdm_traffic.Churn.run_with_faults
      (Random.State.make [| 99 |])
      ~spec ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Uniform (1, 3))
      ~steps:300 ~teardown_bias:0.4 ~schedule:[] (faulty_sut t2)
  in
  Alcotest.(check bool) "identical trajectory" true (s.Wdm_traffic.Churn.churn = plain);
  Alcotest.(check int) "no faults" 0 s.Wdm_traffic.Churn.injected

let test_slack_absorbs_f_failures_over_long_churn () =
  (* Acceptance: f = 2 middles down on a fabric provisioned at
     m_min + 2, 5000 seeded churn steps, zero blocking. *)
  let f = 2 in
  let eval = Conditions.msw_dominant ~n:3 ~r:3 in
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:3
      ~m:(eval.Conditions.m_min + f) ~r:3 ~k:2 () in
  let s =
    Wdm_traffic.Churn.run_with_faults
      (Random.State.make [| 2026 |])
      ~spec:(Topology.spec (Network.topology t))
      ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 9; s = 1.1 })
      ~steps:5000 ~teardown_bias:0.35
      ~schedule:[ (50, `Inject (Fault.Middle 1)); (50, `Inject (Fault.Middle 2)) ]
      (faulty_sut t)
  in
  Alcotest.(check int) "two failures applied" 2 s.Wdm_traffic.Churn.injected;
  Alcotest.(check int) "no victim dropped" 0 s.Wdm_traffic.Churn.dropped;
  Alcotest.(check int) "nonblocking while degraded" 0
    s.Wdm_traffic.Churn.churn.Wdm_traffic.Churn.blocked;
  Alcotest.(check bool) "traffic flowed" true
    (s.Wdm_traffic.Churn.churn.Wdm_traffic.Churn.accepted > 500)

let test_zero_slack_degrades_but_repairs () =
  (* Acceptance: with no slack, one failed middle produces measurable
     degraded-mode blocking, and the repair pass re-homes every victim
     the degraded fabric can still carry. *)
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:4
      ~m:5 ~r:4 ~k:1 () in
  let s =
    Wdm_traffic.Churn.run_with_faults
      (Random.State.make [| 23 |])
      ~spec:(Topology.spec (Network.topology t))
      ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Uniform (2, 4))
      ~steps:600 ~teardown_bias:0.3
      ~schedule:[ (1, `Inject (Fault.Middle 5)) ]
      (faulty_sut t)
  in
  let open Wdm_traffic.Churn in
  Alcotest.(check bool) "degraded blocking observed" true (s.blocked_degraded > 0);
  Alcotest.(check int) "all blocking was degraded-mode" s.churn.blocked
    s.blocked_degraded;
  Alcotest.(check int) "victim ledger balances" s.victims (s.repaired + s.dropped)

let test_churn_under_generated_schedule () =
  (* End-to-end: an MTBF/MTTR schedule over every middle, with repair;
     bookkeeping must balance and the fabric must end consistent. *)
  let eval = Conditions.msw_dominant ~n:3 ~r:3 in
  let m = eval.Conditions.m_min + 1 in
  let t = net ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n:3
      ~m ~r:3 ~k:2 () in
  let schedule =
    Schedule.generate
      ~rng:(Random.State.make [| 8 |])
      ~universe:(Fault.middles ~m) ~mtbf:400. ~mttr:150. ~steps:2000
    |> List.map (fun { Schedule.step; action } ->
           match action with
           | Schedule.Inject f -> (step, `Inject f)
           | Schedule.Clear f -> (step, `Clear f))
  in
  let s =
    Wdm_traffic.Churn.run_with_faults
      (Random.State.make [| 8 |])
      ~spec:(Topology.spec (Network.topology t))
      ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Uniform (1, 3))
      ~steps:2000 ~teardown_bias:0.35 (faulty_sut t) ~schedule
  in
  let open Wdm_traffic.Churn in
  Alcotest.(check bool) "faults exercised" true (s.injected > 0);
  Alcotest.(check int) "victim ledger balances" s.victims (s.repaired + s.dropped);
  (* every route left standing avoids every fault still in force *)
  let dead =
    List.filter_map
      (function Fault.Middle j -> Some j | _ -> None)
      (Network.faults t)
  in
  List.iter
    (fun (route : Network.route) ->
      List.iter
        (fun (h : Network.hop) ->
          Alcotest.(check bool) "no live route on a dead middle" false
            (List.mem h.Network.middle dead))
        route.Network.hops)
    (Network.active_routes t)

let () =
  Alcotest.run "wdm_faults"
    [
      ( "vocabulary",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "universe census" `Quick test_universe_census;
          Alcotest.test_case "printing" `Quick test_fault_pp;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "sorted, alternating" `Quick
            test_schedule_sorted_and_alternating;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
        ] );
      ( "degraded-routing",
        [
          Alcotest.test_case "avoids failed middle" `Slow
            test_routing_avoids_failed_middle;
          Alcotest.test_case "avoids dead stage1 laser" `Slow
            test_routing_avoids_dead_stage1_laser;
          Alcotest.test_case "avoids dead stage2 laser" `Slow
            test_routing_avoids_dead_stage2_laser;
          Alcotest.test_case "stuck converter passes through" `Slow
            test_routing_respects_stuck_converter;
          Alcotest.test_case "dark modules unserviceable" `Quick
            test_unserviceable_modules;
          Alcotest.test_case "idempotent, validated" `Quick
            test_inject_idempotent_and_validated;
          Alcotest.test_case "clear reopens the resource" `Quick
            test_clear_reopens_resource;
        ] );
      ( "repair",
        [
          Alcotest.test_case "re-homes all victims given slack" `Slow
            test_repair_rehomes_victims;
          Alcotest.test_case "restores everything after clear" `Slow
            test_repair_after_clear_restores_everything;
          Alcotest.test_case "reports unserviceable victims" `Quick
            test_repair_reports_unserviceable;
        ] );
      ( "slack-rule",
        [
          Alcotest.test_case "provision arithmetic" `Quick
            test_provision_arithmetic;
          Alcotest.test_case "m_min+1 survives any 1 fault (exhaustive)" `Slow
            test_slack_verified_adversarially;
          Alcotest.test_case "below frontier blocks (exhaustive)" `Slow
            test_slack_exhausted_finds_blocking;
        ] );
      ( "fault-churn",
        [
          Alcotest.test_case "empty schedule = plain run" `Slow
            test_empty_schedule_matches_plain_run;
          Alcotest.test_case "m_min+f absorbs f failures (5000 steps)" `Slow
            test_slack_absorbs_f_failures_over_long_churn;
          Alcotest.test_case "zero slack degrades; repair re-homes" `Slow
            test_zero_slack_degrades_but_repairs;
          Alcotest.test_case "MTBF/MTTR campaign stays consistent" `Slow
            test_churn_under_generated_schedule;
        ] );
    ]
