(* Coverage for the small surfaces: printers, descriptors, label
   helpers and diagram renderers.  These are the parts humans read in
   example output and error messages, so their exact shape is pinned. *)

open Wdm_core
open Wdm_multistage
module An = Wdm_analysis

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

let ep port wl = Endpoint.make ~port ~wl

(* --- wavelengths ---------------------------------------------------------- *)

let test_wavelength () =
  Alcotest.(check (list int)) "all" [ 1; 2; 3 ] (Wavelength.all ~k:3);
  Alcotest.(check bool) "valid" true (Wavelength.valid ~k:3 3);
  Alcotest.(check bool) "invalid 0" false (Wavelength.valid ~k:3 0);
  Alcotest.(check bool) "invalid 4" false (Wavelength.valid ~k:3 4);
  Alcotest.(check string) "to_string" "l2" (Wavelength.to_string 2)

(* --- printers -------------------------------------------------------------- *)

let test_connection_pp () =
  let c =
    Connection.make_exn ~source:(ep 1 2) ~destinations:[ ep 3 1; ep 2 2 ]
  in
  Alcotest.(check string) "rendering" "(1,l2) -> {(2,l2); (3,l1)}"
    (Format.asprintf "%a" Connection.pp c)

let test_assignment_pp_error () =
  let msg e = Format.asprintf "%a" Assignment.pp_error e in
  Alcotest.(check string) "source reused" "source (1,l2) used twice"
    (msg (Assignment.Source_reused (ep 1 2)));
  Alcotest.(check bool) "model violation mentions model" true
    (contains
       (msg
          (Assignment.Model_violation
             {
               model = Model.MSW;
               connection = Connection.unicast ~source:(ep 1 1) ~destination:(ep 2 2);
             }))
       "MSW")

let test_network_spec_describe () =
  let d = Network_spec.describe (Network_spec.make_exn ~n:4 ~k:3) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains d needle))
    [ "4x4"; "3 wavelengths"; "12 addressable endpoints" ]

let test_topology_pp () =
  let s = Format.asprintf "%a" Topology.pp (Topology.make_exn ~n:2 ~m:4 ~r:3 ~k:2) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains s needle))
    [ "N=6"; "r=3"; "2x4"; "4 of 3x3"; "k=2" ]

let test_conditions_pp () =
  let s = Format.asprintf "%a" Conditions.pp_evaluation (Conditions.msw_dominant ~n:4 ~r:4) in
  Alcotest.(check string) "evaluation" "x=2 bound=12.000 m_min=13" s

(* [create_legacy] — the pre-Config optional-argument constructor — is
   gone.  Its one-release migration window closed: the call below is
   what the retired compat test exercised, kept as a quoted snippet so
   the historical calling convention stays greppable:

   {[
     Network.create_legacy ~strategy:Network.First_fit ~x_limit:2
       ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
   ]}

   The equivalence it guarded (optional args = packed Config.t) is now
   vacuous; what remains worth holding is that the Config form accepts
   the same fields the legacy form took. *)
let test_create_legacy_compat () =
  let topo = Topology.make_exn ~n:4 ~m:13 ~r:4 ~k:2 in
  let current =
    Network.create
      ~config:
        {
          Network.Config.default with
          strategy = "first-fit";
          x_limit = Some 2;
        }
      ~construction:Network.Msw_dominant ~output_model:Model.MSW topo
  in
  Alcotest.(check int) "x_limit" 2 (Network.x_limit current);
  Alcotest.(check bool) "strategy" true
    (Network.strategy current = "first-fit");
  let conn =
    Connection.make_exn ~source:(ep 1 1)
      ~destinations:[ ep 1 1; ep 5 1; ep 9 1 ]
  in
  let ra = Result.get_ok (Network.connect current conn) in
  Alcotest.(check bool) "routes" true (ra.Network.hops <> [])

let test_network_pp_state () =
  let t =
    Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
      (Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2)
  in
  ignore
    (Result.get_ok
       (Network.connect t
          (Connection.unicast ~source:(ep 1 1) ~destination:(ep 3 1))));
  let s = Format.asprintf "%a" Network.pp_state t in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains s needle))
    [ "stage 1"; "M_1"; "active routes: 1" ]

let test_churn_pp_stats () =
  let s =
    Format.asprintf "%a" Wdm_traffic.Churn.pp_stats
      {
        Wdm_traffic.Churn.attempts = 10;
        accepted = 8;
        blocked = 2;
        torn_down = 3;
        peak_active = 5;
      }
  in
  Alcotest.(check string) "stats"
    "10 attempts, 8 accepted, 2 blocked, 3 torn down, peak 5 active" s

let test_recursive_pp () =
  match Recursive.design ~stages:5 ~big_n:8 ~k:2 ~output_model:Model.MSW with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let s = Format.asprintf "%a" Recursive.pp d in
    List.iter
      (fun needle -> Alcotest.(check bool) needle true (contains s needle))
      [ "5-stage"; "N=8"; "clos(n=2"; "xbar 2x2" ];
    (match Recursive.view d with
    | Recursive.Clos { n = 2; r = 4; middle = Recursive.Clos { middle = Recursive.Xbar 2; _ }; _ } ->
      ()
    | _ -> Alcotest.fail "unexpected view shape");
    Alcotest.(check int) "k accessor" 2 (Recursive.k d);
    Alcotest.(check bool) "model accessor" true
      (Model.equal Model.MSW (Recursive.output_model d))

(* --- labels ----------------------------------------------------------------- *)

let test_labels () =
  Alcotest.(check string) "in" "in:7" (Wdm_crossbar.Labels.input_port 7);
  Alcotest.(check string) "out" "out:7" (Wdm_crossbar.Labels.output_port 7);
  Alcotest.(check (option int)) "parse" (Some 12)
    (Wdm_crossbar.Labels.parse_output_port "out:12");
  Alcotest.(check (option int)) "parse junk" None
    (Wdm_crossbar.Labels.parse_output_port "in:12");
  Alcotest.(check string) "origin" "(3,l2)"
    (Wdm_crossbar.Labels.origin (ep 3 2))

(* --- diagrams ----------------------------------------------------------------- *)

let test_diagrams () =
  let fig1 = An.Diagram.fig1_network (Network_spec.make_exn ~n:3 ~k:2) in
  Alcotest.(check bool) "fig1 endpoints" true (contains fig1 "6 addressable");
  let fig2 = An.Diagram.fig2_models () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains fig2 needle))
    [ "MSW"; "MSDW"; "MAW"; "legal under" ];
  let fig5 = An.Diagram.fig5_space_crossbar ~n:4 in
  Alcotest.(check bool) "fig5 gates" true (contains fig5 "(g44)");
  Alcotest.(check bool) "fig5 crosspoints" true (contains fig5 "16 crosspoints");
  let topo = Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:2 in
  let fig9 =
    An.Diagram.fig9_construction ~construction:Network.Maw_dominant
      ~output_model:Model.MAW topo
  in
  Alcotest.(check bool) "fig9b label" true (contains fig9 "Fig. 9b");
  Alcotest.(check bool) "fig9 MAW middles" true (contains fig9 "[MAW]")

(* --- scenarios --------------------------------------------------------------- *)

let test_scenario_shape () =
  Alcotest.(check int) "prelude size" 3 (List.length Scenarios.fig10_prelude);
  Alcotest.(check int) "topology ports" 4
    (Topology.num_ports Scenarios.fig10_topology);
  Alcotest.(check int) "probe fanout" 1 (Connection.fanout Scenarios.fig10_probe)

(* --- cost printers ------------------------------------------------------------ *)

let test_cost_pp () =
  let s =
    Format.asprintf "%a" Wdm_core.Cost.pp_summary
      (Wdm_core.Cost.summarize Model.MAW ~n:4 ~k:2)
  in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains s needle))
    [ "MAW"; "64 crosspoints"; "8 converters" ];
  let b =
    Cost.breakdown ~construction:Network.Msw_dominant ~output_model:Model.MSW
      (Topology.make_exn ~n:2 ~m:4 ~r:2 ~k:1)
  in
  let s = Format.asprintf "%a" Cost.pp_breakdown b in
  Alcotest.(check bool) "breakdown totals" true (contains s "crosspoints 48")

let () =
  Alcotest.run "wdm_misc"
    [
      ( "vocabulary",
        [
          Alcotest.test_case "wavelength" `Quick test_wavelength;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "scenario shape" `Quick test_scenario_shape;
        ] );
      ( "printers",
        [
          Alcotest.test_case "connection" `Quick test_connection_pp;
          Alcotest.test_case "assignment errors" `Quick test_assignment_pp_error;
          Alcotest.test_case "network spec describe" `Quick test_network_spec_describe;
          Alcotest.test_case "topology" `Quick test_topology_pp;
          Alcotest.test_case "conditions" `Quick test_conditions_pp;
          Alcotest.test_case "create_legacy compat" `Quick
            test_create_legacy_compat;
          Alcotest.test_case "network state" `Quick test_network_pp_state;
          Alcotest.test_case "churn stats" `Quick test_churn_pp_stats;
          Alcotest.test_case "recursive design" `Quick test_recursive_pp;
          Alcotest.test_case "cost" `Quick test_cost_pp;
        ] );
      ("diagrams", [ Alcotest.test_case "content" `Quick test_diagrams ]);
    ]
