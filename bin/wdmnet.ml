(* wdmnet: command-line interface to the WDM multicast switching toolkit.

   Subcommands map to the paper's artifacts:
     capacity  - Lemmas 1-3 for given N, k
     cost      - Table 1 rows (crossbar) for given N, k
     design    - crossbar vs three-stage recommendation (Table 2 workflow)
     tables    - regenerate Tables 1 and 2
     sweep     - theorem bounds / crossover / capacity growth series
     fig10     - play the Fig. 10 scenario
     simulate  - churn a three-stage network and report blocking *)

open Cmdliner
open Wdm_core
open Wdm_multistage
module An = Wdm_analysis
module Tel = Wdm_telemetry
module Mesh = Wdm_mesh.Mesh_network
module Mesh_assign = Wdm_mesh.Assign
module Campaign = Wdm_mesh.Campaign

(* Both engines expose the same Error surface (cause / to_string /
   to_json); every single-request refusal wdmnet renders goes through
   this one function, so the two fabrics read identically. *)
let refusal_to_string = function
  | `Multistage e -> Network.Error.to_string e
  | `Mesh e -> Mesh.Error.to_string e

(* --- shared args ------------------------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace_event file of the run (open in \
               chrome://tracing or Perfetto).")

(* A sink is created only when some surfacing flag asks for one, so the
   default runs take the un-instrumented (telemetry-free) path. *)
let make_sink ~want_metrics trace_file =
  let trace = Option.map (fun _ -> Tel.Trace.create ()) trace_file in
  let telemetry =
    if want_metrics || trace_file <> None then Some (Tel.Sink.create ?trace ())
    else None
  in
  (telemetry, trace)

let dump_trace trace trace_file =
  match (trace, trace_file) with
  | Some tr, Some file -> write_file file (Tel.Trace.to_chrome tr)
  | _ -> ()

(* --- persistence ------------------------------------------------------- *)

module Persist = Wdm_persist

let wal_arg =
  Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"FILE"
         ~doc:"Record every network op to this write-ahead log, with \
               periodic snapshots beside it ($(docv).snap.N), so the run \
               can be recovered after a crash ($(b,wdmnet recover)).")

let snapshot_every_arg =
  Arg.(value & opt int 1000 & info [ "snapshot-every" ] ~docv:"OPS"
         ~doc:"Checkpoint cadence, in network ops, when --wal is given.")

let check_snapshot_every n =
  if n < 1 then begin
    prerr_endline "wdmnet: snapshot-every must be >= 1";
    exit 2
  end

let fsync_every_arg =
  Arg.(value & opt (some int) None & info [ "fsync-every" ] ~docv:"N"
         ~doc:"fsync the WAL every N records (default: flush to the OS \
               after every record, no fsync).")

let wal_policy = function
  | None -> None
  | Some fe ->
    if fe < 1 then begin
      prerr_endline "wdmnet: fsync-every must be >= 1";
      exit 2
    end;
    Some (Persist.Wal.Fsync_every fe)

(* Final checkpoint + digest line; the digest is what `recover
   --expect-digest` (and the CI smoke test) verify against. *)
let finish_store_backend store backend =
  Persist.Store.checkpoint_backend store backend;
  Printf.printf "state digest: %d\n" (Persist.Backend.digest backend);
  Persist.Store.close store

let n_arg =
  Arg.(value & opt int 16 & info [ "n"; "ports" ] ~docv:"N" ~doc:"Ports per side.")

let k_arg =
  Arg.(value & opt int 2 & info [ "k"; "wavelengths" ] ~docv:"K" ~doc:"Wavelengths per fiber.")

let model_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Model.of_string s) in
  Arg.conv (parse, Model.pp)

let model_arg =
  Arg.(value & opt model_conv Model.MAW & info [ "model" ] ~docv:"MODEL"
         ~doc:"Multicast model: MSW, MSDW or MAW.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned text.")

let emit csv table = print_string (if csv then An.Table.to_csv table else An.Table.render table)

let check_dims n k =
  if n < 1 || k < 1 then begin
    prerr_endline "wdmnet: N and K must be >= 1";
    exit 2
  end

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let steps_arg ?(doc = "Churn events.") default =
  Arg.(value & opt int default & info [ "steps" ] ~docv:"STEPS" ~doc)

(* --- the fabric harness ------------------------------------------------ *)

(* simulate, faults, stats, record and serve's three-stage branch size a
   fabric from the same flags and churn it down the same path. *)

type fabric = {
  n : int;  (** ports per input/output module *)
  r : int;
  k : int;
  m : int;  (** [-m], else the governing theorem's minimum *)
  construction : Network.construction;
  model : Model.t;
  eval : Conditions.evaluation;
}

(* The term yields a thunk: the flags are checked when a command sizes
   its fabric, so serve --mesh, which has none, never checks them. *)
let fabric_term ?(m_doc = "Middle modules; defaults to the theorem minimum.")
    () =
  let n_local_arg =
    Arg.(value & opt int 4 & info [ "n-local" ] ~docv:"NL"
           ~doc:"Ports per input/output module.")
  in
  let r_arg =
    Arg.(value & opt int 4 & info [ "r" ] ~docv:"R" ~doc:"Input/output modules.")
  in
  let m_arg =
    Arg.(value & opt (some int) None & info [ "m" ] ~docv:"M" ~doc:m_doc)
  in
  let construction_arg =
    Arg.(
      value
      & opt (enum [ ("msw-dominant", Network.Msw_dominant); ("maw-dominant", Network.Maw_dominant) ])
          Network.Msw_dominant
      & info [ "construction" ] ~docv:"C" ~doc:"msw-dominant or maw-dominant.")
  in
  let fabric n r k m construction model () =
    check_dims n k;
    if r < 1 then begin prerr_endline "wdmnet: R must be >= 1"; exit 2 end;
    let eval = Conditions.evaluate construction ~n ~r ~k in
    let m = Option.value ~default:eval.Conditions.m_min m in
    { n; r; k; m; construction; model; eval }
  in
  Term.(const fabric $ n_local_arg $ r_arg $ k_arg $ m_arg $ construction_arg
        $ model_arg)

let network_strategy = function
  | None -> Network.Config.default.Network.Config.strategy
  | Some s -> (
    match Network.strategy_of_string s with
    | Ok s -> s
    | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2)

let fabric_network ?telemetry
    ?(strategy = Network.Config.default.Network.Config.strategy) fab ~m =
  Network.create
    ~config:{ Network.Config.default with telemetry; strategy }
    ~construction:fab.construction ~output_model:fab.model
    (Topology.make_exn ~n:fab.n ~m ~r:fab.r ~k:fab.k)

(* An MTBF/MTTR schedule over the fabric's faults of one class, as churn
   driver events. *)
let fault_events fab ~m ~klass ~rng ~mtbf ~mttr ~steps =
  let open Wdm_faults in
  let keep fault =
    match (klass, fault) with
    | `All, _ -> true
    | `Middle, Fault.Middle _ -> true
    | `Laser, (Fault.Stage1_laser _ | Fault.Stage2_laser _) -> true
    | `Converter, Fault.Converter _ -> true
    | `Module, (Fault.Input_module _ | Fault.Output_module _) -> true
    | _ -> false
  in
  Schedule.generate ~rng
    ~universe:(List.filter keep (Fault.universe ~m ~r:fab.r ~k:fab.k))
    ~mtbf ~mttr ~steps
  |> List.map (fun { Schedule.step; action } ->
         match action with
         | Schedule.Inject fault -> (step, `Inject fault)
         | Schedule.Clear fault -> (step, `Clear fault))

(* stats --faults and record --with-faults *)
let middle_fault_events fab ~seed ~steps =
  fault_events fab ~m:fab.m ~klass:`Middle
    ~rng:(Random.State.make [| seed; 0xfa |])
    ~mtbf:1000. ~mttr:400. ~steps

(* Churns [net] with the fabric's workload (Zipf fanout over its N
   ports, teardown bias 0.35) and [schedule]'s fault events.  Every op
   reaches the fabric through [Resp.execute_backend], the path the
   server, its followers and crash recovery take.  With a journal
   (store, snapshot cadence in ops) each op is logged as
   [Resp.committed] of its request and answer, the server's rule.  An
   injection is the one op the driver needs whole, since it re-homes
   the victims itself: [inject] calls the engine and then journals what
   [committed] records for the answer, so an out-of-range fault raises
   before anything is logged. *)
let churn_fabric ?telemetry ?journal ?(schedule = []) fab net ~seed ~steps =
  let module R = Persist.Resp in
  let backend = Persist.Backend.Net net in
  let log req resp =
    match journal with
    | Some (store, _) -> Option.iter (Persist.Store.log store) (R.committed req resp)
    | None -> ()
  in
  let exec req =
    let resp = R.execute_backend backend req in
    log req resp;
    resp
  in
  let admit op = exec (R.Admit op) in
  let fsut =
    {
      Wdm_traffic.Churn.base = R.churn_sut exec;
      inject =
        (fun fault ->
          let victims = Network.inject_fault net fault in
          log
            (R.Admit (Persist.Op.Inject_fault fault))
            (R.Fault_applied { torn_down = List.length victims });
          victims);
      clear =
        (fun fault ->
          match admit (Persist.Op.Clear_fault fault) with
          | R.Fault_cleared -> ()
          | resp -> failwith (Format.asprintf "clear: %a" R.pp resp));
      reconnect =
        (fun connection ->
          R.admitted (admit (Persist.Op.Repair { connection; rehomed = false }))
          |> Result.map (fun route -> route.Network.id));
    }
  in
  let persist =
    Option.map
      (fun (store, snapshot_every) ->
        {
          Wdm_traffic.Churn.policy = Wdm_traffic.Churn.Every_n_ops snapshot_every;
          checkpoint = (fun ~ops:_ -> Persist.Store.checkpoint_backend store backend);
        })
      journal
  in
  Wdm_traffic.Churn.run_with_faults ?telemetry ?persist
    (Random.State.make [| seed |])
    ~spec:(Topology.spec (Network.topology net)) ~model:fab.model
    ~fanout:(Wdm_traffic.Fanout.Zipf { max = fab.n * fab.r; s = 1.1 })
    ~steps ~teardown_bias:0.35 ~schedule fsut

(* --- capacity ---------------------------------------------------------- *)

let capacity_cmd =
  let run n k =
    check_dims n k;
    Format.printf "Multicast capacity of a %dx%d %d-wavelength WDM network:\n" n n k;
    List.iter
      (fun m ->
        Format.printf "  %-4s  full: %a   any: %a\n" (Model.to_string m)
          Wdm_bignum.Nat.pp_approx (Capacity.full m ~n ~k)
          Wdm_bignum.Nat.pp_approx (Capacity.any m ~n ~k))
      Model.all;
    Format.printf "  (an %dx%d electronic network would offer %a full)\n" (n * k)
      (n * k) Wdm_bignum.Nat.pp_approx
      (Capacity.equivalent_electronic_full ~n ~k)
  in
  Cmd.v (Cmd.info "capacity" ~doc:"Multicast capacities (Lemmas 1-3).")
    Term.(const run $ n_arg $ k_arg)

(* --- cost -------------------------------------------------------------- *)

let cost_cmd =
  let run n k =
    check_dims n k;
    List.iter
      (fun m -> Format.printf "%a\n" Wdm_core.Cost.pp_summary (Wdm_core.Cost.summarize m ~n ~k))
      Model.all
  in
  Cmd.v (Cmd.info "cost" ~doc:"Crossbar cost (Table 1 rows).")
    Term.(const run $ n_arg $ k_arg)

(* --- design ------------------------------------------------------------ *)

let design_cmd =
  let run n k model =
    check_dims n k;
    let cb = Wdm_core.Cost.summarize model ~n ~k in
    Format.printf "Crossbar: %a\n" Wdm_core.Cost.pp_summary cb;
    match
      Cost.recommended ~construction:Network.Msw_dominant ~output_model:model
        ~big_n:n ~k
    with
    | Error e -> Format.printf "Three-stage: n/a (%s) -> use the crossbar\n" e
    | Ok (topo, eval, b) ->
      Format.printf "Three-stage: %a\n  Theorem 1: m > %.2f at x=%d -> m=%d\n  %a\n"
        Topology.pp topo eval.Conditions.bound eval.Conditions.x
        eval.Conditions.m_min Cost.pp_breakdown b;
      Format.printf "Recommendation: %s\n"
        (if b.Cost.total_crosspoints < cb.Wdm_core.Cost.crosspoints then
           "three-stage (MSW-dominant)"
         else "crossbar")
  in
  Cmd.v (Cmd.info "design" ~doc:"Compare crossbar vs three-stage designs.")
    Term.(const run $ n_arg $ k_arg $ model_arg)

(* --- tables ------------------------------------------------------------ *)

let tables_cmd =
  let run csv =
    emit csv (An.Table1.symbolic ());
    print_newline ();
    emit csv (An.Table1.numeric [ (2, 2); (3, 2); (4, 2); (8, 4); (16, 8) ]);
    print_newline ();
    emit csv (An.Table2.symbolic ());
    print_newline ();
    emit csv (An.Table2.numeric ~big_ns:[ 16; 64; 256; 1024 ] ~ks:[ 2; 4 ])
  in
  Cmd.v (Cmd.info "tables" ~doc:"Regenerate Tables 1 and 2.")
    Term.(const run $ csv_arg)

(* --- sweep ------------------------------------------------------------- *)

let sweep_cmd =
  let what_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("bounds", `Bounds); ("crossover", `Crossover); ("capacity", `Capacity) ])) None
      & info [] ~docv:"WHAT" ~doc:"One of: bounds, crossover, capacity.")
  in
  let run what k model csv =
    match what with
    | `Bounds ->
      emit csv
        (An.Sweeps.theorem_bounds ~ns:[ 2; 4; 8; 16; 32; 64; 128 ] ~ks:[ 1; 2; 4; 8 ])
    | `Crossover ->
      emit csv (An.Sweeps.crossover ~output_model:model ~k ~max_big_n:1024)
    | `Capacity ->
      emit csv (An.Sweeps.capacity_growth ~k ~ns:[ 2; 4; 8; 16; 32; 64 ])
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Parameter sweeps (theorem bounds, crossover, capacity).")
    Term.(const run $ what_arg $ k_arg $ model_arg $ csv_arg)

(* --- fig10 ------------------------------------------------------------- *)

let fig10_cmd =
  let run () =
    List.iter
      (fun (c, name) ->
        let o = Scenarios.fig10 c in
        Format.printf "%-13s: prelude %d/3, probe %s\n" name o.Scenarios.admitted
          (match o.Scenarios.probe_result with
          | Ok r -> Format.asprintf "ROUTED (%a)" Network.pp_route r
          | Error e -> "BLOCKED (" ^ refusal_to_string (`Multistage e) ^ ")"))
      [ (Network.Msw_dominant, "MSW-dominant"); (Network.Maw_dominant, "MAW-dominant") ]
  in
  Cmd.v (Cmd.info "fig10" ~doc:"Play the Fig. 10 blocking scenario.")
    Term.(const run $ const ())

(* --- simulate ----------------------------------------------------------- *)

let simulate_cmd =
  let stats_json_arg =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the final metrics snapshot as JSON.")
  in
  let strategy_arg =
    Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"S"
           ~doc:"Routing strategy: min-intersection, first-fit, exhaustive, \
                 or any registered plug-in (adaptive, annealed, \
                 crosstalk[:BASE[:DB]]).  Default: min-intersection.")
  in
  let run fabric steps seed strategy trace_file stats_json wal snapshot_every =
    let fab = fabric () in
    check_snapshot_every snapshot_every;
    let strategy = network_strategy strategy in
    let telemetry, trace = make_sink ~want_metrics:(stats_json <> None) trace_file in
    let net = fabric_network ?telemetry ~strategy fab ~m:fab.m in
    Format.printf "topology: %a (theorem m_min = %d)\n" Topology.pp
      (Network.topology net) fab.eval.Conditions.m_min;
    Format.printf "strategy: %s\n" strategy;
    let backend = Persist.Backend.Net net in
    let store =
      Option.map
        (fun wal -> Persist.Store.start_backend ?telemetry ~wal backend)
        wal
    in
    let stats =
      churn_fabric ?telemetry
        ?journal:(Option.map (fun st -> (st, snapshot_every)) store)
        fab net ~seed ~steps
    in
    Format.printf "%a\n" Wdm_traffic.Churn.pp_stats stats.Wdm_traffic.Churn.churn;
    Format.printf "final utilization: %.1f%%\n" (100. *. Network.utilization net);
    Option.iter (fun st -> finish_store_backend st backend) store;
    (match (telemetry, stats_json) with
    | Some sink, Some file ->
      write_file file
        (Tel.Json.to_string (Tel.Metrics.to_json (Tel.Sink.snapshot sink)))
    | _ -> ());
    dump_trace trace trace_file
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Churn a three-stage network and report blocking.")
    Term.(const run $ fabric_term () $ steps_arg 2000 $ seed_arg $ strategy_arg
          $ trace_arg $ stats_json_arg $ wal_arg $ snapshot_every_arg)

(* --- faults -------------------------------------------------------------- *)

let faults_cmd =
  let mtbf_arg =
    Arg.(value & opt float 1000. & info [ "mtbf" ] ~docv:"STEPS"
           ~doc:"Mean steps between failures, per component.")
  in
  let mttr_arg =
    Arg.(value & opt float 400. & info [ "mttr" ] ~docv:"STEPS"
           ~doc:"Mean steps to repair a failed component.")
  in
  let slack_arg =
    Arg.(value & opt int 2 & info [ "slack-max" ] ~docv:"F"
           ~doc:"Rows for slack f = 0 .. F extra middle modules.")
  in
  let class_arg =
    Arg.(
      value
      & opt (enum [ ("middle", `Middle); ("laser", `Laser); ("converter", `Converter);
                    ("module", `Module); ("all", `All) ]) `Middle
      & info [ "class" ] ~docv:"CLASS"
          ~doc:"Fault classes drawn by the campaign: middle, laser, converter, module or all.")
  in
  let run fabric steps seed mtbf mttr slack_max klass csv trace_file wal
      snapshot_every =
    let fab = fabric () in
    check_snapshot_every snapshot_every;
    if slack_max < 0 then begin prerr_endline "wdmnet: slack-max must be >= 0"; exit 2 end;
    if mtbf <= 0. || mttr <= 0. then begin
      prerr_endline "wdmnet: mtbf and mttr must be positive"; exit 2
    end;
    if steps < 0 then begin prerr_endline "wdmnet: steps must be >= 0"; exit 2 end;
    Format.printf
      "Fault-injection campaign: n=%d r=%d k=%d, base m=%d (theorem m_min=%d), \
       %d steps, mtbf=%.0f mttr=%.0f, seed %d\n"
      fab.n fab.r fab.k fab.m fab.eval.Conditions.m_min steps mtbf mttr seed;
    let table =
      An.Table.make ~title:"Degradation under component faults"
        ~header:
          [ "slack"; "m"; "injected"; "teardowns"; "repaired"; "dropped";
            "unserviceable"; "blocked"; "degraded-blocked"; "degraded-rate" ]
        ()
    in
    (* One trace spans the whole campaign; each slack row gets a fresh
       sink so its snapshot covers exactly that row's run. *)
    let trace = Option.map (fun _ -> Tel.Trace.create ()) trace_file in
    for f = 0 to slack_max do
      let m = fab.m + f in
      let sink = Tel.Sink.create ?trace () in
      let net = fabric_network ~telemetry:sink fab ~m in
      let schedule =
        fault_events fab ~m ~klass
          ~rng:(Random.State.make [| seed; 0xfa; f |])
          ~mtbf ~mttr ~steps
      in
      (* each slack row is an independent run, so it records into its
         own WAL (and snapshot chain) under a .fN suffix *)
      let backend = Persist.Backend.Net net in
      let store =
        Option.map
          (fun wal ->
            Persist.Store.start_backend ~telemetry:sink
              ~wal:(Printf.sprintf "%s.f%d" wal f)
              backend)
          wal
      in
      let (_ : Wdm_traffic.Churn.fault_stats) =
        churn_fabric ~telemetry:sink
          ?journal:(Option.map (fun st -> (st, snapshot_every)) store)
          ~schedule fab net ~seed ~steps
      in
      Option.iter (fun st -> finish_store_backend st backend) store;
      (* The row is read back from the metrics snapshot: the driver's
         tallies ARE the telemetry counters, so there is no second set
         of books to keep in sync. *)
      let snap = Tel.Sink.snapshot sink in
      let c name = Option.value ~default:0 (Tel.Metrics.find_counter snap name) in
      let degraded_attempts = c "churn_degraded_attempts_total" in
      let blocked_degraded = c "churn_blocked_degraded_total" in
      An.Table.add_row table
        [
          string_of_int f; string_of_int m;
          string_of_int (c "churn_faults_injected_total");
          string_of_int (c "wdmnet_fault_teardowns_total");
          string_of_int (c "churn_repaired_total");
          string_of_int (c "churn_dropped_total");
          string_of_int (c "wdmnet_connect_blocked_total{cause=\"unserviceable\"}");
          string_of_int (c "churn_blocked_total");
          string_of_int blocked_degraded;
          (if degraded_attempts = 0 then "n/a"
           else
             Printf.sprintf "%.2f%%"
               (100. *. float_of_int blocked_degraded
               /. float_of_int degraded_attempts));
        ]
    done;
    emit csv table;
    dump_trace trace trace_file
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Fault-injection campaign: degraded-mode blocking vs middle-stage slack.")
    Term.(const run
          $ fabric_term
              ~m_doc:"Base middle-module count; defaults to the theorem minimum."
              ()
          $ steps_arg ~doc:"Churn events per row." 5000
          $ seed_arg $ mtbf_arg $ mttr_arg $ slack_arg $ class_arg $ csv_arg
          $ trace_arg $ wal_arg $ snapshot_every_arg)

(* --- stats --------------------------------------------------------------- *)

let stats_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the snapshot as JSON.")
  in
  let prometheus_arg =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"Emit the snapshot in Prometheus text exposition format.")
  in
  let faults_flag =
    Arg.(value & flag & info [ "faults" ]
           ~doc:"Drive the workload through the fault-injection campaign \
                 (middle-module faults, mtbf 1000, mttr 400) instead of \
                 plain churn, so the fault/repair counter families are \
                 exercised too.")
  in
  let run fabric steps seed json prometheus with_faults trace_file =
    let fab = fabric () in
    if json && prometheus then begin
      prerr_endline "wdmnet: --json and --prometheus are mutually exclusive";
      exit 2
    end;
    let trace = Option.map (fun _ -> Tel.Trace.create ()) trace_file in
    let sink = Tel.Sink.create ?trace () in
    let net = fabric_network ~telemetry:sink fab ~m:fab.m in
    let schedule =
      if with_faults then middle_fault_events fab ~seed ~steps else []
    in
    let (_ : Wdm_traffic.Churn.fault_stats) =
      churn_fabric ~telemetry:sink ~schedule fab net ~seed ~steps
    in
    let snap = Tel.Sink.snapshot sink in
    if json then print_string (Tel.Json.to_string (Tel.Metrics.to_json snap))
    else if prometheus then print_string (Tel.Metrics.to_prometheus snap)
    else Format.printf "%a" Tel.Metrics.pp_text snap;
    dump_trace trace trace_file
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a seeded workload and print the telemetry snapshot (text \
             table, --json, or --prometheus).")
    Term.(const run $ fabric_term () $ steps_arg 2000 $ seed_arg $ json_arg
          $ prometheus_arg $ faults_flag $ trace_arg)

(* --- record / recover ---------------------------------------------------- *)

let record_cmd =
  let wal_req_arg =
    Arg.(required & opt (some string) None & info [ "wal" ] ~docv:"FILE"
           ~doc:"Write-ahead log to record into (snapshots land beside it \
                 as $(docv).snap.N).")
  in
  let faults_flag =
    Arg.(value & flag & info [ "with-faults" ]
           ~doc:"Drive the workload through the fault-injection campaign \
                 (middle-module faults, mtbf 1000, mttr 400), so the WAL \
                 carries inject/clear/repair records too.")
  in
  let run fabric steps seed wal snapshot_every fsync_every with_faults =
    let fab = fabric () in
    check_snapshot_every snapshot_every;
    let policy = wal_policy fsync_every in
    let net = fabric_network fab ~m:fab.m in
    Format.printf "topology: %a, recording to %s\n" Topology.pp
      (Network.topology net) wal;
    let backend = Persist.Backend.Net net in
    let store = Persist.Store.start_backend ?policy ~wal backend in
    let schedule =
      if with_faults then middle_fault_events fab ~seed ~steps else []
    in
    let stats =
      churn_fabric ~journal:(store, snapshot_every) ~schedule fab net ~seed
        ~steps
    in
    if with_faults then
      Format.printf "%a\n" Wdm_traffic.Churn.pp_fault_stats stats
    else Format.printf "%a\n" Wdm_traffic.Churn.pp_stats stats.Wdm_traffic.Churn.churn;
    Printf.printf "wal: %d records, %d bytes\n"
      (Persist.Store.wal_records store)
      (Persist.Store.wal_offset store);
    finish_store_backend store backend
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Churn a network while journalling every op to a WAL with \
             periodic snapshots; the printed state digest is what \
             $(b,wdmnet recover --expect-digest) verifies.")
    Term.(const run $ fabric_term () $ steps_arg 2000 $ seed_arg $ wal_req_arg
          $ snapshot_every_arg $ fsync_every_arg $ faults_flag)

let recover_cmd =
  let wal_req_arg =
    Arg.(required & opt (some string) None & info [ "wal" ] ~docv:"FILE"
           ~doc:"Write-ahead log to recover from (snapshots are found \
                 beside it).")
  in
  let expect_arg =
    Arg.(value & opt (some int) None & info [ "expect-digest" ] ~docv:"D"
           ~doc:"Fail unless the recovered state digest equals $(docv) \
                 (the value $(b,wdmnet record) printed).")
  in
  let keep_tear_arg =
    Arg.(value & flag & info [ "keep-tear" ]
           ~doc:"Report a torn trailing record but leave the file as-is \
                 instead of truncating it.")
  in
  let run wal expect keep_tear =
    match Persist.Store.recover_backend ~truncate:(not keep_tear) ~wal () with
    | Error e ->
      Format.eprintf "wdmnet: recovery failed: %a@." Persist.Store.pp_recovery_error e;
      exit 1
    | Ok r ->
      Printf.printf "recovered from snapshot %d (WAL offset %d), replayed %d ops\n"
        r.Persist.Store.b_snapshot_seq r.Persist.Store.b_snapshot_offset
        r.Persist.Store.b_replayed;
      (match r.Persist.Store.b_tear with
      | Some at ->
        Printf.printf "torn trailing record at byte %d%s\n" at
          (if keep_tear then " (kept)" else " (truncated)")
      | None -> ());
      (match r.Persist.Store.backend with
      | Persist.Backend.Net net ->
        let snap = Network.snapshot net in
        Printf.printf "active routes: %d, faults in force: %d\n"
          (List.length snap.Network.s_routes)
          (List.length snap.Network.s_faults)
      | Persist.Backend.Mesh mesh ->
        Printf.printf "mesh %s: active routes: %d, utilization: %.3f\n"
          (Mesh.topology_name mesh) (Mesh.active_count mesh)
          (Mesh.utilization mesh));
      let digest = Persist.Backend.digest r.Persist.Store.backend in
      Printf.printf "state digest: %d\n" digest;
      match expect with
      | Some d when d <> digest ->
        Printf.eprintf "wdmnet: state digest mismatch (expected %d, got %d)\n" d
          digest;
        exit 1
      | _ -> ()
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild a network from its newest valid snapshot plus the WAL \
             tail, truncating a torn trailing record and failing loudly on \
             corruption.")
    Term.(const run $ wal_req_arg $ expect_arg $ keep_tear_arg)

(* --- serve / client ------------------------------------------------------ *)

module Server = Wdm_server.Server
module Client = Wdm_server.Client
module Resilient = Wdm_server.Resilient

let address_conv =
  let parse s =
    let starts_with prefix =
      String.length s > String.length prefix
      && String.sub s 0 (String.length prefix) = prefix
    in
    let after prefix =
      String.sub s (String.length prefix) (String.length s - String.length prefix)
    in
    if starts_with "unix:" then Ok (Server.Unix_socket (after "unix:"))
    else
      let hostport = if starts_with "tcp:" then after "tcp:" else s in
      match String.rindex_opt hostport ':' with
      | None ->
        Error (`Msg "expected unix:PATH, tcp:HOST:PORT or HOST:PORT")
      | Some i -> (
        let host = String.sub hostport 0 i in
        let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
        match int_of_string_opt port with
        | Some p when host <> "" && p >= 0 && p <= 65535 ->
          Ok (Server.Tcp (host, p))
        | _ -> Error (`Msg ("invalid address: " ^ s)))
  in
  Arg.conv (parse, Server.pp_address)

let default_address = Server.Tcp ("127.0.0.1", 7878)

let serve_cmd =
  let listen_arg =
    Arg.(value & opt address_conv default_address & info [ "listen" ] ~docv:"ADDR"
           ~doc:"Address to serve on: unix:PATH, tcp:HOST:PORT or HOST:PORT \
                 (port 0 binds an ephemeral port).")
  in
  let follower_arg =
    Arg.(value & opt (some address_conv) None & info [ "follower" ] ~docv:"LEADER"
           ~doc:"Run as a follower of the leader at this address: subscribe \
                 to its committed-op stream, apply it locally (journalled to \
                 $(b,--wal) when given), serve read-only requests, and \
                 refuse mutations.  SIGUSR1 or $(b,wdmnet promote) promotes \
                 this node to leader.")
  in
  let http_arg =
    Arg.(value & opt (some address_conv) None & info [ "http" ] ~docv:"ADDR"
           ~doc:"Serve the observability plane ($(b,/metrics), \
                 $(b,/healthz), $(b,/readyz), $(b,/spans)) over HTTP 1.0 \
                 at this address.")
  in
  let ready_lag_arg =
    Arg.(value & opt int 64 & info [ "ready-lag" ] ~docv:"OPS"
           ~doc:"A follower answers $(b,/readyz) with 200 only while its \
                 apply lag is within this many ops of the leader.")
  in
  let slow_ms_arg =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Log every request whose total latency reaches MS \
                 milliseconds as one JSONL line (span id + per-stage \
                 breakdown) to $(b,--slow-log) or stderr.")
  in
  let slow_log_arg =
    Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE"
           ~doc:"Destination file for the $(b,--slow-ms) log.")
  in
  let max_conns_arg =
    Arg.(value & opt (some int) None & info [ "max-conns" ] ~docv:"N"
           ~doc:"Cap concurrently open request connections; past it, new \
                 connections are closed at accept (counted in \
                 $(b,server_accept_errors_total)).  The $(b,--http) plane \
                 is exempt so health stays scrapable at the cap.")
  in
  let mesh_arg =
    Arg.(value & opt (some string) None & info [ "mesh" ] ~docv:"TOPO"
           ~doc:"Serve a graph-based mesh RWA network over the named \
                 topology (nsf14, clara, janet, ringN, torusRxC) instead \
                 of the three-stage fabric.  $(b,--wavelengths) sets the \
                 per-fiber count; $(b,--strategy) the wavelength \
                 assignment.  The wire protocol is unchanged: endpoint \
                 ports are 1-based node ids and fault ops are refused.")
  in
  let strategy_arg =
    Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"S"
           ~doc:"Routing strategy.  For $(b,--mesh): first-fit, most-used, \
                 least-used, random, coloring (default first-fit); for the \
                 three-stage fabric: min-intersection, first-fit, \
                 exhaustive (default min-intersection).  Either engine also \
                 accepts any registered plug-in: adaptive, annealed, \
                 crosstalk[:BASE[:DB]].")
  in
  let run fabric k listen wal fsync_every follower http ready_lag slow_ms
      slow_log max_conns mesh strategy trace_file =
    (match max_conns with
    | Some mc when mc < 1 ->
      prerr_endline "wdmnet: max-conns must be >= 1";
      exit 2
    | _ -> ());
    let policy = wal_policy fsync_every in
    let trace = Option.map (fun _ -> Tel.Trace.create ()) trace_file in
    let sink = Tel.Sink.create ?trace () in
    let backend, describe =
      match mesh with
      | Some topo_name ->
        let strat =
          match
            Mesh_assign.strategy_of_string
              (Option.value ~default:"first-fit" strategy)
          with
          | Ok s -> s
          | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2
        in
        let config =
          { Mesh.Config.default with Mesh.Config.k; strategy = strat }
        in
        (match Mesh.create ~telemetry:sink ~config topo_name with
        | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2
        | Ok mesh ->
          let g = Mesh.graph mesh in
          ( Persist.Backend.Mesh mesh,
            fun () ->
              Format.printf
                "mesh %s: %d nodes, %d links, %d wavelengths, %s@." topo_name
                (Wdm_mesh.Graph.n g) (Wdm_mesh.Graph.m g) k strat ))
      | None ->
        let fab = fabric () in
        let strategy = network_strategy strategy in
        let net = fabric_network ~telemetry:sink ~strategy fab ~m:fab.m in
        ( Persist.Backend.Net net,
          fun () ->
            Format.printf "topology: %a, model %a@." Topology.pp
              (Network.topology net) Model.pp fab.model )
    in
    (* A follower manages its own store (truncated on snapshot install,
       resumed from the mark on restart); only a leader takes one here. *)
    let store =
      match follower with
      | Some _ -> None
      | None ->
        Option.map
          (fun wal ->
            Persist.Store.start_backend ~telemetry:sink ?policy ~wal backend)
          wal
    in
    let srv =
      Server.start_backend ~telemetry:sink ?store
        ?follower:
          (Option.map (fun leader -> { Server.leader; wal }) follower)
        ?http ~ready_lag ?slow_ms ?slow_log ?max_conns ~backend listen
    in
    describe ();
    Format.printf "serving on %a@." Server.pp_address (Server.address srv);
    (match Server.http_address srv with
    | Some haddr -> Format.printf "observability on %a@." Server.pp_address haddr
    | None -> ());
    (match follower with
    | Some leader -> Format.printf "following %a@." Server.pp_address leader
    | None -> ());
    Format.print_flush ();
    (* Park until SIGINT/SIGTERM; the handlers only flip flags — all
       shutdown (and promotion) work happens back here, outside signal
       context. *)
    let stop_requested = ref false in
    let promote_requested = ref false in
    let request_stop _ = stop_requested := true in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle request_stop)
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    (try
       Sys.set_signal Sys.sigusr1
         (Sys.Signal_handle (fun _ -> promote_requested := true))
     with Invalid_argument _ | Sys_error _ -> ());
    while not !stop_requested do
      if !promote_requested then begin
        promote_requested := false;
        match Server.promote srv with
        | Ok seq -> Printf.printf "promoted to leader at seq %d\n%!" seq
        | Error e -> Printf.eprintf "wdmnet: promote: %s\n%!" e
      end;
      Thread.delay 0.1
    done;
    prerr_endline "wdmnet: shutting down";
    Server.stop srv;
    Printf.printf "served %d requests\n" (Server.served srv);
    dump_trace trace trace_file;
    let backend = Server.backend srv in
    match Server.current_store srv with
    | Some store -> finish_store_backend store backend
    | None ->
      Printf.printf "state digest: %d\n" (Persist.Backend.digest backend)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a live network over a socket: requests are WAL-format \
             ops, executed one at a time on the server's single thread; \
             with $(b,--wal) the session crash-recovers like a recorded \
             run.  With \
             $(b,--follower) the node replicates a leader instead (SIGUSR1 \
             promotes it).  $(b,--http) adds a live observability plane; \
             $(b,--trace) writes the request-stage spans as a Chrome trace \
             at shutdown.  SIGINT or SIGTERM shuts down gracefully and \
             prints the state digest.")
    Term.(const run $ fabric_term () $ k_arg $ listen_arg $ wal_arg
          $ fsync_every_arg $ follower_arg $ http_arg
          $ ready_lag_arg $ slow_ms_arg $ slow_log_arg $ max_conns_arg
          $ mesh_arg $ strategy_arg $ trace_arg)

let client_cmd =
  let connect_arg =
    Arg.(value & opt_all address_conv [] & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Server address: unix:PATH, tcp:HOST:PORT or HOST:PORT.  \
                 Repeatable: with several addresses the client rotates \
                 through them on failure or $(i,not the leader) answers, \
                 so a workload survives a leader failover.")
  in
  let churn_flag =
    Arg.(value & flag & info [ "churn" ]
           ~doc:"Drive a seeded churn workload through the server (the \
                 loadgen twin of $(b,wdmnet simulate)); dimensions must \
                 match the served topology.")
  in
  let ops_arg =
    Arg.(value & opt int 1000 & info [ "ops" ] ~docv:"OPS"
           ~doc:"Churn events to issue with --churn.")
  in
  let n_local_arg =
    Arg.(value & opt int 4 & info [ "n-local" ] ~docv:"NL"
           ~doc:"Ports per input/output module of the served topology.")
  in
  let r_arg =
    Arg.(value & opt int 4 & info [ "r" ] ~docv:"R"
           ~doc:"Input/output modules of the served topology.")
  in
  let digest_flag =
    Arg.(value & flag & info [ "digest" ]
           ~doc:"Print the server's state digest (after --churn, if both).")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the server's telemetry snapshot as JSON.")
  in
  let pipeline_arg =
    Arg.(value & opt int 0 & info [ "pipeline" ] ~docv:"DEPTH"
           ~doc:"Pipeline the churn workload: buffer up to DEPTH teardowns \
                 and ship them in batch frames (0 = one request per \
                 round-trip).  Op order — and therefore the digest — is \
                 identical either way.  Uses a single connection, so it \
                 combines with exactly one $(b,--connect).")
  in
  let strategy_arg =
    Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"S"
           ~doc:"Annotate the workload with the routing strategy the server \
                 was started with.  The name is validated against the \
                 strategy registries (catching typos before load is \
                 driven) and echoed in the output; routing itself is \
                 server-side.")
  in
  let run connect churn ops seed n r k model digest stats pipeline strategy =
    if not (churn || digest || stats) then begin
      prerr_endline "wdmnet: nothing to do (pass --churn, --digest or --stats)";
      exit 2
    end;
    (match strategy with
    | None -> ()
    | Some s -> (
      match (Network.strategy_of_string s, Mesh_assign.strategy_of_string s) with
      | Error _, Error e -> prerr_endline ("wdmnet: " ^ e); exit 2
      | _ -> Printf.printf "strategy under test: %s\n" s));
    let addrs = match connect with [] -> [ default_address ] | l -> l in
    let rc = Resilient.create addrs in
    Fun.protect ~finally:(fun () -> Resilient.close rc) @@ fun () ->
    let fail e =
      prerr_endline ("wdmnet: " ^ Client.error_to_string e);
      exit 1
    in
    if pipeline < 0 then begin
      prerr_endline "wdmnet: pipeline must be >= 0";
      exit 2
    end;
    if pipeline > 0 && not churn then begin
      prerr_endline "wdmnet: --pipeline needs --churn";
      exit 2
    end;
    if pipeline > 0 && List.length addrs > 1 then begin
      prerr_endline "wdmnet: --pipeline uses a single --connect address";
      exit 2
    end;
    if churn then begin
      check_dims n k;
      if r < 1 then begin prerr_endline "wdmnet: R must be >= 1"; exit 2 end;
      if ops < 0 then begin prerr_endline "wdmnet: ops must be >= 0"; exit 2 end;
      let spec = Network_spec.make_exn ~n:(n * r) ~k in
      let sum = ref 0 in
      let on_admit route = sum := Persist.Op.route_checksum !sum route in
      let sut, flush =
        if pipeline > 0 then begin
          match Client.connect (List.hd addrs) with
          | Error e -> fail e
          | Ok c ->
            at_exit (fun () -> Client.close c);
            Client.churn_sut_pipelined ~on_admit ~depth:pipeline c
        end
        else (Resilient.churn_sut ~on_admit rc, fun () -> ())
      in
      match
        let stats =
          Wdm_traffic.Churn.run
            (Random.State.make [| seed |])
            ~spec ~model
            ~fanout:(Wdm_traffic.Fanout.Zipf { max = n * r; s = 1.1 })
            ~steps:ops ~teardown_bias:0.35 sut
        in
        flush ();
        stats
      with
      | exception Failure e ->
        prerr_endline ("wdmnet: " ^ e);
        exit 1
      | stats ->
        Format.printf "%a@." Wdm_traffic.Churn.pp_stats stats;
        Printf.printf "route checksum: %d\n" !sum
    end;
    if stats then begin
      match Resilient.request rc Persist.Resp.Get_stats with
      | Ok (Persist.Resp.Stats_json js) -> print_endline js
      | Ok resp ->
        fail
          (Client.Protocol
             (Format.asprintf "unexpected response: %a" Persist.Resp.pp resp))
      | Error e -> fail e
    end;
    if digest then begin
      match Resilient.digest rc with
      | Ok d -> Printf.printf "state digest: %d\n" d
      | Error e -> fail e
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a $(b,wdmnet serve) instance: drive a seeded churn \
             workload ($(b,--churn)), fetch the state digest \
             ($(b,--digest)) or the telemetry snapshot ($(b,--stats)).")
    Term.(const run $ connect_arg $ churn_flag $ ops_arg $ seed_arg
          $ n_local_arg $ r_arg $ k_arg $ model_arg $ digest_flag $ stats_flag
          $ pipeline_arg $ strategy_arg)

(* --- promote ------------------------------------------------------------ *)

let promote_cmd =
  let connect_arg =
    Arg.(value & opt address_conv default_address & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Follower address: unix:PATH, tcp:HOST:PORT or HOST:PORT.")
  in
  let run connect =
    match Client.connect connect with
    | Error e ->
      prerr_endline ("wdmnet: " ^ Client.error_to_string e);
      exit 1
    | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match Client.promote c with
      | Ok seq -> Printf.printf "promoted at seq %d\n" seq
      | Error e ->
        prerr_endline ("wdmnet: " ^ Client.error_to_string e);
        exit 1)
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:"Promote a $(b,wdmnet serve --follower) instance to leader: it \
             stops replicating, adopts a fresh epoch and starts accepting \
             mutations.  Equivalent to sending the serving process \
             $(b,SIGUSR1).")
    Term.(const run $ connect_arg)

(* --- top ---------------------------------------------------------------- *)

(* The dashboard is one Get_stats round-trip per refresh: the response
   carries role/epoch/applied/lag plus the full metrics snapshot, so
   rates come from counter deltas and stage quantiles from the shipped
   histogram buckets — no server-side aggregation beyond what /metrics
   already maintains. *)
let top_cmd =
  let connect_arg =
    Arg.(value & opt_all address_conv [] & info [ "connect" ] ~docv:"ADDR"
           ~doc:"Server address: unix:PATH, tcp:HOST:PORT or HOST:PORT.  \
                 Repeatable; rotates on failure like $(b,wdmnet client).")
  in
  let interval_arg =
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Refresh period.")
  in
  let iterations_arg =
    Arg.(value & opt (some int) None & info [ "iterations" ] ~docv:"N"
           ~doc:"Stop after N refreshes (default: run until interrupted).")
  in
  let no_clear_flag =
    Arg.(value & flag & info [ "no-clear" ]
           ~doc:"Append refreshes instead of clearing the terminal (for \
                 piping or CI capture).")
  in
  let run connect interval iterations no_clear =
    if interval <= 0. then begin
      prerr_endline "wdmnet: interval must be > 0";
      exit 2
    end;
    let addrs = match connect with [] -> [ default_address ] | l -> l in
    (* fail fast: a dashboard poll that can't reach anyone should say
       so and retry on the next refresh, not sit in Resilient's
       default ~14s failover budget *)
    let rc =
      Resilient.create ~dial_timeout:1.0 ~deadline:2.0 ~max_attempts:3
        ~backoff:0.05 ~backoff_cap:0.25 addrs
    in
    Fun.protect ~finally:(fun () -> Resilient.close rc) @@ fun () ->
    let module J = Tel.Json in
    let fetch () =
      match Resilient.request rc Persist.Resp.Get_stats with
      | Ok (Persist.Resp.Stats_json js) -> Result.to_option (J.parse js)
      | _ -> None
    in
    let num = function
      | J.Int i -> float_of_int i
      | J.Float f -> f
      | _ -> 0.
    in
    let obj_members name j =
      match J.member name j with Some (J.Obj kvs) -> kvs | _ -> []
    in
    let counter j name =
      match List.assoc_opt name (obj_members "counters" j) with
      | Some v -> int_of_float (num v)
      | None -> 0
    in
    let gauge j name =
      Option.map num (List.assoc_opt name (obj_members "gauges" j))
    in
    let histogram j name =
      match List.assoc_opt name (obj_members "histograms" j) with
      | None -> None
      | Some h ->
        let floats field =
          match J.member field h with
          | Some (J.List l) -> Array.of_list (List.map num l)
          | _ -> [||]
        in
        let bounds = floats "bounds" in
        let cumulative = Array.map int_of_float (floats "cumulative") in
        let sum = match J.member "sum" h with Some v -> num v | None -> 0. in
        let count =
          match J.member "count" h with Some (J.Int c) -> c | _ -> 0
        in
        (* reconstruct a Histogram.snapshot so quantile estimation is
           the same code the server itself uses *)
        if Array.length cumulative = Array.length bounds + 1 then
          Some { Tel.Histogram.bounds; cumulative; sum; count }
        else None
    in
    let stop = ref false in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
     with Invalid_argument _ | Sys_error _ -> ());
    let prev = ref None in
    let iter = ref 0 in
    let continue () =
      (not !stop)
      && match iterations with Some limit -> !iter < limit | None -> true
    in
    while continue () do
      incr iter;
      (match fetch () with
      | None -> print_endline "wdmnet top: server unreachable"
      | Some j ->
        let buf = Buffer.create 1024 in
        let line fmt =
          Printf.ksprintf
            (fun s ->
              Buffer.add_string buf s;
              Buffer.add_char buf '\n')
            fmt
        in
        let str name =
          match J.member name j with Some (J.String s) -> s | _ -> "?"
        in
        let top_int name =
          match J.member name j with Some (J.Int i) -> i | _ -> 0
        in
        let requests = counter j "server_requests_total" in
        let tnow = Unix.gettimeofday () in
        let rate =
          match !prev with
          | Some (r0, t0) when tnow > t0 ->
            float_of_int (requests - r0) /. (tnow -. t0)
          | _ -> 0.
        in
        prev := Some (requests, tnow);
        let g name = Option.value ~default:0. (gauge j name) in
        line "wdmnet top · role %s · epoch %d · applied %d · lag %d"
          (str "role") (top_int "epoch") (top_int "applied") (top_int "lag");
        line
          "requests %d (%.1f/s) · responses %d · clients %.0f active / %d \
           total"
          requests rate
          (counter j "server_responses_total")
          (g "server_clients_active")
          (counter j "server_clients_total");
        line
          "replication: followers %.0f · outbox lag %.0f ops %.0f B · apply \
           lag %.0f · evictions %d · slow %d"
          (g "repl_followers") (g "repl_lag_ops") (g "repl_lag_bytes")
          (g "repl_follower_lag_ops")
          (counter j "repl_evictions_total")
          (counter j "server_slow_requests_total");
        line "%-10s %12s %12s %12s %12s" "stage" "count" "p50" "p95" "p99";
        let stage_row label name =
          match histogram j name with
          | None -> ()
          | Some s ->
            let q p =
              match Tel.Histogram.quantile s p with
              | Some v -> Printf.sprintf "<=%.3gms" (v *. 1000.)
              | None -> "-"
            in
            line "%-10s %12d %12s %12s %12s" label s.Tel.Histogram.count
              (q 0.5) (q 0.95) (q 0.99)
        in
        List.iter
          (fun stage ->
            stage_row stage (Printf.sprintf "server_stage_%s_seconds" stage))
          [ "decode"; "queue"; "execute"; "wal"; "replicate"; "respond" ];
        stage_row "total" "server_request_latency_seconds";
        (* per-middle first-stage occupancy, in middle order *)
        let prefix = "wdmnet_stage1_occupancy{middle=\"" in
        let middles =
          List.filter_map
            (fun (name, v) ->
              if
                String.length name > String.length prefix
                && String.sub name 0 (String.length prefix) = prefix
              then
                let rest =
                  String.sub name (String.length prefix)
                    (String.length name - String.length prefix)
                in
                match String.index_opt rest '"' with
                | Some q -> (
                  match int_of_string_opt (String.sub rest 0 q) with
                  | Some m -> Some (m, num v)
                  | None -> None)
                | None -> None
              else None)
            (obj_members "gauges" j)
        in
        (match List.sort compare middles with
        | [] -> ()
        | ms ->
          line "middle occupancy: %s"
            (String.concat " "
               (List.map (fun (m, v) -> Printf.sprintf "%d:%.2f" m v) ms)));
        if not no_clear then print_string "\027[2J\027[H";
        print_string (Buffer.contents buf);
        flush stdout);
      if continue () then begin
        (* sleep in slices so Ctrl-C lands promptly *)
        let left = ref interval in
        while !left > 0. && not !stop do
          Thread.delay (min 0.1 !left);
          left := !left -. 0.1
        done
      end
    done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard for a $(b,wdmnet serve) instance: polls \
             $(b,Get_stats) and renders role, req/s, per-stage \
             p50/p95/p99, per-middle occupancy and \
             replication lag, refreshing every $(b,--interval) seconds.")
    Term.(const run $ connect_arg $ interval_arg $ iterations_arg
          $ no_clear_flag)

(* --- adversary ----------------------------------------------------------- *)

let adversary_cmd =
  let max_states_arg =
    Arg.(value & opt int 100_000 & info [ "max-states" ] ~docv:"S"
           ~doc:"State budget for the exhaustive search.")
  in
  let run n r k max_states =
    check_dims n k;
    Format.printf
      "Exhaustive blocking-frontier search (MSW-dominant/MSW, n=%d r=%d k=%d)\n"
      n r k;
    Format.printf "Theorem 1 m_min = %d\n\n"
      (Conditions.msw_dominant ~n ~r).Conditions.m_min;
    List.iter
      (fun (m, v) -> Format.printf "m=%d: %a\n" m An.Adversary.pp_verdict v)
      (An.Adversary.frontier_exact ~max_states
         ~construction:Network.Msw_dominant ~output_model:Model.MSW ~n ~r ~k ())
  in
  let n_local =
    Arg.(value & opt int 2 & info [ "n-local" ] ~docv:"NL" ~doc:"Ports per module.")
  in
  let r_arg = Arg.(value & opt int 2 & info [ "r" ] ~docv:"R" ~doc:"Modules per side.") in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Exhaustive search for blocking witnesses (small instances).")
    Term.(const run $ n_local $ r_arg $ k_arg $ max_states_arg)

(* --- figures --------------------------------------------------------------- *)

let figures_cmd =
  let run n k =
    check_dims n k;
    print_endline (An.Diagram.fig1_network (Network_spec.make_exn ~n ~k));
    print_endline (An.Diagram.fig2_models ());
    print_endline (An.Diagram.fig5_space_crossbar ~n:(min n 6));
    match Conditions.msw_dominant ~n:2 ~r:2 with
    | eval ->
      let topo = Topology.make_exn ~n:2 ~m:eval.Conditions.m_min ~r:2 ~k in
      print_endline (An.Diagram.fig8_three_stage topo);
      print_endline
        (An.Diagram.fig9_construction ~construction:Network.Msw_dominant
           ~output_model:Model.MAW topo)
  in
  Cmd.v (Cmd.info "figures" ~doc:"Render the construction figures as text.")
    Term.(const run $ n_arg $ k_arg)

(* --- mesh (graph-based RWA blocking campaigns) ----------------------------- *)

let mesh_cmd =
  let topos_arg =
    Arg.(value & opt (list string) [ "nsf14"; "janet" ] & info [ "topos" ]
           ~docv:"T,.." ~doc:"Topologies to sweep: nsf14, clara, janet, \
                              ringN, torusRxC.")
  in
  let strategies_arg =
    Arg.(value & opt (list string) [ "first-fit"; "coloring" ]
         & info [ "strategies" ] ~docv:"S,.."
             ~doc:"Wavelength assignment strategies: first-fit, most-used, \
                   least-used, random, coloring, or any registered plug-in \
                   (adaptive, annealed, crosstalk[:BASE[:DB]]).")
  in
  let strategy_arg =
    Arg.(value & opt (some string) None & info [ "strategy" ] ~docv:"S"
           ~doc:"Shorthand for $(b,--strategies) with a single entry.")
  in
  let probe_arg =
    Arg.(value & opt (some string) None & info [ "probe" ] ~docv:"SRC:D,..."
           ~doc:"Instead of a campaign, build one network on the first \
                 topology and issue a single connect from node SRC to the \
                 listed destination nodes, printing the route or the typed \
                 refusal.")
  in
  let loads_arg =
    Arg.(value & opt (list float) [ 4.; 8.; 12.; 16.; 20.; 24. ]
         & info [ "loads" ] ~docv:"E,.." ~doc:"Offered loads in Erlangs.")
  in
  let arrivals_arg =
    Arg.(value & opt int 4000 & info [ "arrivals" ] ~docv:"N"
           ~doc:"Arrivals per campaign cell.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; per-cell RNGs derive from it and the \
                 cell's coordinates, so tables are reproducible.")
  in
  let mesh_k_arg =
    Arg.(value & opt int 8 & info [ "k"; "wavelengths" ] ~docv:"K"
           ~doc:"Wavelengths per fiber (1..62).")
  in
  let k_paths_arg =
    Arg.(value & opt int 3 & info [ "k-paths" ] ~docv:"P"
           ~doc:"Yen candidate paths per unicast request.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("tree", Wdm_mesh.Light_tree.Tree);
                    ("hierarchy", Wdm_mesh.Light_tree.Hierarchy) ])
          Wdm_mesh.Light_tree.Hierarchy
      & info [ "mode" ] ~docv:"M"
          ~doc:"Multicast structure: tree (no node revisits) or hierarchy \
                (revisits through distinct edge pairs, after \
                Zhou-Molnár-Cousin).")
  in
  let splitters_arg =
    Arg.(value & opt string "all" & info [ "splitters" ] ~docv:"SPL"
           ~doc:"Which nodes can split light: $(b,all), $(b,none), \
                 $(b,degree:D) (nodes of degree >= D), or a comma list \
                 of node ids.")
  in
  let fanout_arg =
    Arg.(value & opt int 4 & info [ "max-fanout" ] ~docv:"F"
           ~doc:"Zipf fanout ceiling for multicast requests.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"CI smoke profile: 400 arrivals over loads 4, 12 and 24 \
                 (overrides $(b,--arrivals) and $(b,--loads)).")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the table as a JSON object in the \
                 $(b,mesh_blocking) schema (EXPERIMENTS.md).")
  in
  let parse_splitters s =
    match s with
    | "all" -> Ok Mesh.Split_all
    | "none" -> Ok Mesh.Split_none
    | s when String.length s > 7 && String.sub s 0 7 = "degree:" -> (
      match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some d -> Ok (Mesh.Split_degree_ge d)
      | None -> Error ("bad degree bound: " ^ s))
    | s -> (
      let ids = String.split_on_char ',' s in
      match
        List.map
          (fun id ->
            match int_of_string_opt (String.trim id) with
            | Some v -> v
            | None -> raise Exit)
          ids
      with
      | ids -> Ok (Mesh.Split_nodes ids)
      | exception Exit ->
        Error ("bad --splitters (want all, none, degree:D or ids): " ^ s))
  in
  let run topos strategies strategy probe loads arrivals seed k k_paths mode
      splitters fanout quick json =
    let strategies =
      match strategy with Some s -> [ s ] | None -> strategies
    in
    let strategies =
      List.map
        (fun s ->
          match Mesh_assign.strategy_of_string s with
          | Ok s -> s
          | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2)
        strategies
    in
    let splitters =
      match parse_splitters splitters with
      | Ok s -> s
      | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2
    in
    match probe with
    | Some spec_str -> (
      let parse_probe s =
        match String.split_on_char ':' s with
        | [ src; dests ] -> (
          match
            ( int_of_string_opt (String.trim src),
              List.map
                (fun d -> int_of_string_opt (String.trim d))
                (String.split_on_char ',' dests) )
          with
          | Some src, dests when List.for_all Option.is_some dests ->
            Some (src, List.map Option.get dests)
          | _ -> None)
        | _ -> None
      in
      match (parse_probe spec_str, topos, strategies) with
      | None, _, _ ->
        prerr_endline "wdmnet: bad --probe (want SRC:D1,D2,...)";
        exit 2
      | _, [], _ | _, _, [] ->
        prerr_endline "wdmnet: --probe needs a topology and a strategy";
        exit 2
      | Some (src, dests), topo :: _, strategy :: _ ->
        let config = { Mesh.Config.k; strategy; mode; splitters; k_paths } in
        (match Mesh.create ~config topo with
        | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2
        | Ok net ->
          let ep p = Endpoint.make ~port:p ~wl:1 in
          let conn =
            Connection.make_exn ~source:(ep src)
              ~destinations:(List.map ep dests)
          in
          (* the same refusal path fig10 prints multistage blocks
             through — satellite: one rendering path for both engines *)
          (match Mesh.connect net conn with
          | Ok r -> Format.printf "ROUTED (%a)@." Mesh.pp_route r
          | Error e ->
            Format.printf "BLOCKED (%s)@." (refusal_to_string (`Mesh e)))))
    | None ->
    let arrivals = if quick then Campaign.quick.Campaign.arrivals else arrivals in
    let loads = if quick then Campaign.quick.Campaign.loads else loads in
    let spec =
      {
        Campaign.seed; k; mode; splitters; k_paths; topos; strategies; loads;
        arrivals;
        fanout = Wdm_traffic.Fanout.Zipf { max = fanout; s = 1.3 };
      }
    in
    match Campaign.run spec with
    | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2
    | Ok cells ->
      Format.printf "%a@." Campaign.pp_table cells;
      (match json with
      | None -> ()
      | Some file ->
        write_file file
          (Tel.Json.to_string (Campaign.to_json spec cells) ^ "\n");
        Printf.printf "wrote %s (%d cells)\n" file (List.length cells))
  in
  Cmd.v
    (Cmd.info "mesh"
       ~doc:"Run Erlang-load blocking-probability campaigns on graph-based \
             mesh RWA networks: topologies x assignment strategies x \
             offered loads, with sparse-splitting multicast \
             (light-trees or light-hierarchies).  Deterministic per-cell \
             seeds make every table reproducible.")
    Term.(const run $ topos_arg $ strategies_arg $ strategy_arg $ probe_arg
          $ loads_arg $ arrivals_arg $ seed_arg $ mesh_k_arg $ k_paths_arg
          $ mode_arg $ splitters_arg $ fanout_arg $ quick_arg $ json_arg)

(* --- compare (strategy racing) ------------------------------------------- *)

let compare_cmd =
  let module Compare = Wdm_lab.Compare in
  let strategies_arg =
    Arg.(value & opt (some (list string)) None & info [ "strategies" ]
           ~docv:"S,.."
           ~doc:"Strategies to race (default: first-fit, adaptive, \
                 annealed, crosstalk).  Every name must resolve on both \
                 engines.")
  in
  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; per-cell RNGs derive from it and the \
                 workload index only, so every strategy races the same \
                 traffic and any cell is reproducible on its own.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"CI smoke profile: the same workload grid at reduced \
                 steps/arrivals.")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the table as a JSON object in the \
                 $(b,strategy_compare) schema (EXPERIMENTS.md).")
  in
  let run strategies seed quick json =
    let spec = if quick then Compare.quick else Compare.default in
    let spec =
      {
        spec with
        Compare.strategies =
          Option.value ~default:spec.Compare.strategies strategies;
        seed = Option.value ~default:spec.Compare.seed seed;
      }
    in
    match Compare.run spec with
    | Error e -> prerr_endline ("wdmnet: " ^ e); exit 2
    | Ok cells ->
      Format.printf "%a@." Compare.pp_table cells;
      (match json with
      | None -> ()
      | Some file ->
        write_file file
          (Tel.Json.to_string (Compare.to_json spec cells) ^ "\n");
        Printf.printf "wrote %s (%d cells)\n" file (List.length cells))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Race routing strategies over identical seeded traffic on both \
             engines: multistage churn workloads and mesh Erlang workloads, \
             one blocking/latency row per (workload, strategy) cell.  The \
             per-cell RNG never sees the strategy, so cells in a row \
             differ only by the routing decisions under test.")
    Term.(const run $ strategies_arg $ seed_arg $ quick_arg $ json_arg)

(* --- deep (recursive designs) ---------------------------------------------- *)

let deep_cmd =
  let stages_arg =
    Arg.(value & opt int 5 & info [ "stages" ] ~docv:"S" ~doc:"Odd stage count.")
  in
  let run stages n k steps =
    check_dims n k;
    match Recursive.design ~stages ~big_n:n ~k ~output_model:Model.MSW with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok d ->
      Format.printf "%a\n" Recursive.pp d;
      Format.printf "crosspoints: %d, converters: %d, m per level: %s\n"
        (Recursive.crosspoints d) (Recursive.converters d)
        (String.concat ","
           (List.map string_of_int (Recursive.middle_modules_per_level d)));
      if steps > 0 then begin
        let t = Rnetwork.create ~construction:Network.Msw_dominant d in
        let sut =
          {
            Wdm_traffic.Churn.connect =
              (fun c ->
                match Rnetwork.connect t c with
                | Ok route -> Ok route.Rnetwork.base.Network.id
                | Error e -> Error e);
            disconnect = (fun id -> ignore (Rnetwork.disconnect t id));
          }
        in
        let stats =
          Wdm_traffic.Churn.run (Random.State.make [| 1 |])
            ~spec:(Topology.spec (Rnetwork.topology t))
            ~model:Model.MSW
            ~fanout:(Wdm_traffic.Fanout.Zipf { max = n; s = 1.1 })
            ~steps ~teardown_bias:0.35 sut
        in
        Format.printf "churn: %a\n" Wdm_traffic.Churn.pp_stats stats
      end
  in
  Cmd.v
    (Cmd.info "deep" ~doc:"Design and churn a recursive (5/7-stage) network.")
    Term.(const run $ stages_arg $ n_arg $ k_arg
          $ steps_arg ~doc:"Churn events (0: design only)." 2000)

let () =
  (* every subcommand that touches a socket must see EPIPE, not die *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let doc = "nonblocking WDM multicast switching networks (Yang-Wang-Qiao reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "wdmnet" ~version:"1.0.0" ~doc)
          [
            capacity_cmd; cost_cmd; design_cmd; tables_cmd; sweep_cmd;
            fig10_cmd; simulate_cmd; faults_cmd; stats_cmd; record_cmd;
            recover_cmd; serve_cmd; client_cmd; promote_cmd; top_cmd;
            adversary_cmd;
            figures_cmd;
            deep_cmd;
            mesh_cmd;
            compare_cmd;
          ]))
