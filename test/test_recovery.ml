(* Lockstep crash-recovery equivalence.

   A seeded churn run — on the multistage fabric under a middle-fault
   schedule, and on a mesh — is recorded to a WAL with every snapshot
   retained.  We then simulate a crash at every record boundary:
   truncate a copy of the WAL there, recover, and check that the
   recovered backend is byte-for-byte the one an uninterrupted run had
   at that point (state digest); on the multistage fabric, the next
   1000 ops of a deterministic continuation must also produce identical
   hop checksums and blocked counts on both.  Interior byte flips must
   surface as corruption-with-offset or recover to a legitimate prefix
   state — never silently diverge.  A cut mid-record is a torn tail,
   and a repair record whose outcome replay does not reproduce is
   corruption at that record.  Faults stay multistage-only: the mesh
   has no fault ops. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Fault = Wdm_faults.Fault
module Schedule = Wdm_faults.Schedule
module Churn = Wdm_traffic.Churn
module Tel = Wdm_telemetry
module Mesh = Wdm_mesh.Mesh_network

let n = 3
let r = 3
let k = 2
let m = 6
let nports = n * r
let seed = 1848
let steps = 600
let continuation_ops = 1000

let ep port wl = Endpoint.make ~port ~wl

let make_net ?telemetry () =
  Network.create
    ~config:{ Network.Config.default with telemetry }
    ~construction:Network.Msw_dominant ~output_model:Model.MSW
    (Topology.make_exn ~n ~m ~r ~k)

(* nsf14 at 4 wavelengths: connects both admit and refuse *)
let make_mesh () =
  Result.get_ok
    (Mesh.create ~config:{ Mesh.Config.default with Mesh.Config.k = 4 } "nsf14")

type engine = Multistage | Mesh_engine

let engine_name = function Multistage -> "bitset" | Mesh_engine -> "mesh"

let fresh = function
  | Multistage -> P.Backend.Net (make_net ())
  | Mesh_engine -> P.Backend.Mesh (make_mesh ())

(* --- file plumbing ------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let snapshot_seqs wal =
  let rec go seq acc =
    let p = P.Store.snapshot_path ~wal ~seq in
    if Sys.file_exists p then go (seq + 1) (seq :: acc) else List.rev acc
  in
  go 0 []

let copy_snapshots ~from_wal ~to_wal =
  List.iter
    (fun seq ->
      write_file
        (P.Store.snapshot_path ~wal:to_wal ~seq)
        (read_file (P.Store.snapshot_path ~wal:from_wal ~seq)))
    (snapshot_seqs from_wal)

let remove_store_files wal =
  List.iter
    (fun seq -> Sys.remove (P.Store.snapshot_path ~wal ~seq))
    (snapshot_seqs wal);
  if Sys.file_exists wal then Sys.remove wal

(* --- recording ----------------------------------------------------------- *)

(* the journalled SUT wrappers, same shape as the wdmnet CLI's *)
let logged_fsut store net =
  let sut =
    {
      Churn.connect =
        (fun c ->
          P.Store.log store (P.Op.Connect c);
          match Network.connect net c with
          | Ok route -> Ok route.Network.id
          | Error e -> Error e);
      disconnect =
        (fun id ->
          P.Store.log store (P.Op.Disconnect id);
          ignore (Network.disconnect net id));
    }
  in
  {
    Churn.base = sut;
    inject =
      (fun f ->
        P.Store.log store (P.Op.Inject_fault f);
        Network.inject_fault net f);
    clear =
      (fun f ->
        P.Store.log store (P.Op.Clear_fault f);
        Network.clear_fault net f);
    reconnect =
      (fun c ->
        let outcome =
          match Network.connect_rearrangeable net c with
          | Ok (route, _) -> Ok route.Network.id
          | Error e -> Error e
        in
        P.Store.log store
          (P.Op.Repair { connection = c; rehomed = Result.is_ok outcome });
        outcome);
  }

let fault_schedule () =
  Schedule.generate
    ~rng:(Random.State.make [| seed; 0xfa |])
    ~universe:
      (List.filter
         (function Fault.Middle _ -> true | _ -> false)
         (Fault.universe ~m ~r ~k))
    ~mtbf:150. ~mttr:80. ~steps
  |> List.map (fun { Schedule.step; action } ->
         match action with
         | Schedule.Inject fault -> (step, `Inject fault)
         | Schedule.Clear fault -> (step, `Clear fault))

let record_multistage ~wal =
  let net = make_net () in
  let backend = P.Backend.Net net in
  let store = P.Store.start_backend ~retain:max_int ~wal backend in
  let fsut = logged_fsut store net in
  let persist =
    {
      Churn.policy = Churn.Every_n_ops 100;
      checkpoint = (fun ~ops:_ -> P.Store.checkpoint_backend store backend);
    }
  in
  let topo = Network.topology net in
  let (_ : Churn.fault_stats) =
    Churn.run_with_faults ~persist
      (Random.State.make [| seed |])
      ~spec:(Topology.spec topo) ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = nports; s = 1.1 })
      ~steps ~teardown_bias:0.35 ~schedule:(fault_schedule ()) fsut
  in
  P.Store.checkpoint_backend store backend;
  let records = P.Store.wal_records store in
  P.Store.close store;
  (backend, records)

(* A mesh churn over nsf14's 14 nodes (one port each), journalled the
   way a served mesh session is: connects and disconnects only. *)
let record_mesh ~wal =
  let mesh = make_mesh () in
  let backend = P.Backend.Mesh mesh in
  let store = P.Store.start_backend ~retain:max_int ~wal backend in
  let sut =
    {
      Churn.connect =
        (fun c ->
          P.Store.log store (P.Op.Connect c);
          match Mesh.connect mesh c with
          | Ok route -> Ok route.Mesh.id
          | Error e -> Error e);
      disconnect =
        (fun id ->
          P.Store.log store (P.Op.Disconnect id);
          ignore (Mesh.disconnect mesh id));
    }
  in
  let persist =
    {
      Churn.policy = Churn.Every_n_ops 100;
      checkpoint = (fun ~ops:_ -> P.Store.checkpoint_backend store backend);
    }
  in
  let (_ : Churn.stats) =
    Churn.run ~persist
      (Random.State.make [| seed |])
      ~spec:(Network_spec.make_exn ~n:14 ~k:2)
      ~model:Model.MSW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 5; s = 1.2 })
      ~steps ~teardown_bias:0.35 sut
  in
  P.Store.checkpoint_backend store backend;
  let records = P.Store.wal_records store in
  P.Store.close store;
  (backend, records)

let record ~engine ~wal =
  match engine with
  | Multistage -> record_multistage ~wal
  | Mesh_engine -> record_mesh ~wal

(* --- deterministic continuation ------------------------------------------ *)

(* Runs [continuation_ops] RNG-free ops against [net]: an arithmetic
   walk of MSW-legal connection requests, with every third op tearing
   down the lowest-id active route.  Returns the accumulated hop
   checksum over every admitted/released route and the blocked count —
   two nets in the same state must return the same pair. *)
let continuation net =
  let checksum = ref 0 in
  let blocked = ref 0 in
  let active = ref [] in
  List.iter
    (fun (route : Network.route) -> active := route.Network.id :: !active)
    (Network.snapshot net).Network.s_routes;
  for i = 0 to continuation_ops - 1 do
    if i mod 3 = 2 && !active <> [] then begin
      let lowest = List.fold_left min max_int !active in
      active := List.filter (fun id -> id <> lowest) !active;
      match Network.disconnect net lowest with
      | Ok route -> checksum := P.Op.route_checksum !checksum route
      | Error e -> Alcotest.fail
          ("continuation disconnect failed: "
          ^ Network.Error.disconnect_to_string e)
    end
    else begin
      let wl = (i mod k) + 1 in
      let src = ep ((i * 7 mod nports) + 1) wl in
      let fanout = (i mod 3) + 1 in
      let dest_ports =
        List.sort_uniq compare
          (List.init fanout (fun j -> ((i * 5) + (j * 11)) mod nports))
      in
      let conn =
        Connection.make_exn ~source:src
          ~destinations:(List.map (fun p -> ep (p + 1) wl) dest_ports)
      in
      match Network.connect net conn with
      | Ok route ->
        checksum := P.Op.route_checksum !checksum route;
        active := route.Network.id :: !active
      | Error _ -> incr blocked
    end
  done;
  (!checksum, !blocked)

(* --- the boundary sweep --------------------------------------------------- *)

type sweep = {
  wal : string;
  contents : string;  (** the full recorded WAL *)
  boundaries : int array;  (** record start offsets, then EOF *)
  prefix_digests : int array;  (** digest after [i] ops *)
  final_digest : int;
}

let recorded : (engine * sweep) list ref = ref []

let sweep_of engine =
  match List.assoc_opt engine !recorded with
  | Some s -> s
  | None ->
    let wal = Printf.sprintf "lockstep_%s.wal" (engine_name engine) in
    let live, records = record ~engine ~wal in
    if records < 500 then
      Alcotest.failf "recorded only %d WAL records, need >= 500" records;
    let ops =
      match P.Wal.read wal with
      | Ok { ops; tear = None; _ } -> ops
      | Ok _ -> Alcotest.fail "freshly recorded WAL reports a tear"
      | Error { reason; _ } -> Alcotest.fail reason
    in
    let contents = read_file wal in
    let boundaries =
      Array.of_list (List.map fst ops @ [ String.length contents ])
    in
    (* replay the ops against a fresh backend, fingerprinting every
       prefix *)
    let replayed = fresh engine in
    let prefix_digests = Array.make (Array.length boundaries) 0 in
    prefix_digests.(0) <- P.Backend.digest replayed;
    List.iteri
      (fun i (_, op) ->
        (match P.Resp.replay replayed op with
        | Ok () -> ()
        | Error e -> Alcotest.failf "replay of op %d failed: %s" i e);
        prefix_digests.(i + 1) <- P.Backend.digest replayed)
      ops;
    let final_digest = P.Backend.digest live in
    if prefix_digests.(Array.length boundaries - 1) <> final_digest then
      Alcotest.fail "full replay does not reproduce the recorded network";
    let s = { wal; contents; boundaries; prefix_digests; final_digest } in
    recorded := (engine, s) :: !recorded;
    s

(* Crash at every record boundary: truncate, recover, compare digests,
   then, on the multistage fabric, race a 1000-op continuation against
   the uninterrupted network. *)
let test_every_boundary engine () =
  let s = sweep_of engine in
  let trunc = s.wal ^ ".trunc" in
  copy_snapshots ~from_wal:s.wal ~to_wal:trunc;
  let uninterrupted = fresh engine in
  Array.iteri
    (fun i boundary ->
      (* [uninterrupted] holds the state after i ops *)
      write_file trunc (String.sub s.contents 0 boundary);
      (match P.Store.recover_backend ~wal:trunc () with
      | Error e ->
        Alcotest.failf "recovery at boundary %d (byte %d): %a" i boundary
          P.Store.pp_recovery_error e
      | Ok rec_ -> (
        if P.Backend.digest rec_.P.Store.backend <> s.prefix_digests.(i) then
          Alcotest.failf "digest mismatch at boundary %d (byte %d)" i boundary;
        if rec_.P.Store.b_tear <> None then
          Alcotest.failf "clean cut at boundary %d reported a tear" i;
        match (rec_.P.Store.backend, uninterrupted) with
        | P.Backend.Net recovered, P.Backend.Net ref_net ->
          let cs_rec, bl_rec = continuation recovered in
          let cs_ref, bl_ref = continuation (Network.copy ref_net) in
          if cs_rec <> cs_ref || bl_rec <> bl_ref then
            Alcotest.failf
              "continuation diverged at boundary %d: checksum %d vs %d, \
               blocked %d vs %d"
              i cs_rec cs_ref bl_rec bl_ref
        | _ -> ()));
      (* advance the uninterrupted run past op i *)
      if i < Array.length s.boundaries - 1 then
        match P.Wire.read_frame s.contents ~pos:boundary with
        | P.Wire.Frame { payload; _ } -> (
          match P.Op.decode_string payload with
          | Ok op -> ignore (P.Resp.replay uninterrupted op)
          | Error e -> Alcotest.fail e)
        | _ -> Alcotest.fail "boundary does not start a frame")
    s.boundaries;
  remove_store_files trunc

(* The acceptance criterion's telemetry leg: recover at full length,
   run the continuation on the recovered and the uninterrupted network,
   each with a fresh sink, and require identical counter values. *)
let test_counters_after_recovery () =
  let s = sweep_of Multistage in
  let trunc = s.wal ^ ".tel" in
  copy_snapshots ~from_wal:s.wal ~to_wal:trunc;
  write_file trunc s.contents;
  let sink_rec = Tel.Sink.create () in
  let sink_ref = Tel.Sink.create () in
  (match P.Store.recover_backend ~telemetry:sink_rec ~wal:trunc () with
  | Error e -> Alcotest.failf "%a" P.Store.pp_recovery_error e
  | Ok { P.Store.backend = P.Backend.Mesh _; _ } ->
    Alcotest.fail "recovered a mesh"
  | Ok { P.Store.backend = P.Backend.Net recovered; _ } ->
    (* uninterrupted twin: replay all ops on a fresh instrumented net,
       then strip the replay-phase counters by snapshotting a restored
       clone instead — restore gives a clean-slate instrumented net in
       the same state *)
    let ref_net =
      Network.restore ~telemetry:sink_ref (Network.snapshot recovered)
    in
    let cs_rec, bl_rec = continuation recovered in
    let cs_ref, bl_ref = continuation ref_net in
    Alcotest.(check int) "checksum" cs_ref cs_rec;
    Alcotest.(check int) "blocked" bl_ref bl_rec;
    let counters snap =
      List.filter_map
        (fun (name, _, v) ->
          (* persist_* differ by construction: only recovery increments
             them; the network-level counters are the contract *)
          if String.length name >= 7 && String.sub name 0 7 = "wdmnet_" then
            Some (name, v)
          else None)
        snap.Tel.Metrics.counters
    in
    let c_rec = counters (Tel.Metrics.snapshot sink_rec.Tel.Sink.metrics) in
    let c_ref = counters (Tel.Metrics.snapshot sink_ref.Tel.Sink.metrics) in
    Alcotest.(check (list (pair string int)))
      "continuation counters" c_ref c_rec);
  remove_store_files trunc

(* Interior byte flips: recovery must either name the damage (an error
   carrying the file and offset) or land on a legitimate prefix state —
   flipping a length field can only turn the tail into a torn write. *)
let test_byte_flips engine () =
  let s = sweep_of engine in
  let flip = s.wal ^ ".flip" in
  copy_snapshots ~from_wal:s.wal ~to_wal:flip;
  let len = String.length s.contents in
  let digests = Array.to_list s.prefix_digests in
  let offsets =
    [
      P.Wire.header_len;  (* first record's length field *)
      P.Wire.header_len + 5;  (* first record's CRC *)
      P.Wire.header_len + 9;  (* first record's payload *)
      len / 3;
      len / 2;
      (2 * len / 3) + 1;
      len - 2;
    ]
  in
  List.iter
    (fun off ->
      let b = Bytes.of_string s.contents in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
      write_file flip (Bytes.to_string b);
      match P.Store.recover_backend ~wal:flip () with
      | Error (P.Store.Corrupt { offset; _ }) ->
        if offset < P.Wire.header_len || offset > len then
          Alcotest.failf "flip at %d: implausible corruption offset %d" off
            offset
      | Error (P.Store.No_snapshot _) ->
        (* acceptable only if the flip gutted the WAL so early that no
           snapshot's offset is a boundary any more *)
        if off > len / 4 then
          Alcotest.failf "flip at %d: lost all snapshots" off
      | Ok rec_ ->
        let d = P.Backend.digest rec_.P.Store.backend in
        if not (List.mem d digests) then
          Alcotest.failf
            "flip at %d: recovery silently diverged from every prefix state"
            off)
    offsets;
  remove_store_files flip

(* A cut mid-record is a torn write: recovery reports (and truncates)
   the tear and lands on the boundary before it. *)
let test_torn_tail engine () =
  let s = sweep_of engine in
  let torn = s.wal ^ ".torn" in
  copy_snapshots ~from_wal:s.wal ~to_wal:torn;
  let nb = Array.length s.boundaries in
  let boundary = s.boundaries.(nb / 2) in
  let i = nb / 2 in
  write_file torn (String.sub s.contents 0 (boundary + 5));
  (match P.Store.recover_backend ~wal:torn () with
  | Error e -> Alcotest.failf "%a" P.Store.pp_recovery_error e
  | Ok rec_ ->
    Alcotest.(check (option int)) "tear reported" (Some boundary)
      rec_.P.Store.b_tear;
    Alcotest.(check int) "state is the pre-tear prefix" s.prefix_digests.(i)
      (P.Backend.digest rec_.P.Store.backend);
    (* the tear was truncated: a second recovery is clean *)
    match P.Store.recover_backend ~wal:torn () with
    | Ok rec2 ->
      Alcotest.(check (option int)) "truncated" None rec2.P.Store.b_tear;
      Alcotest.(check int) "same state" s.prefix_digests.(i)
        (P.Backend.digest rec2.P.Store.backend)
    | Error e -> Alcotest.failf "%a" P.Store.pp_recovery_error e);
  remove_store_files torn

(* A repair record whose outcome replay does not reproduce is corruption,
   not a silent divergence: the recorded run's first admitted repair is
   re-recorded as dropped, only snapshot 0 is kept so recovery must
   replay it, and recovery stops at that record. *)
let test_diverged_repair () =
  let s = sweep_of Multistage in
  let div = s.wal ^ ".div" in
  let rec first_rehomed i =
    if i >= Array.length s.boundaries - 1 then
      Alcotest.fail "the recorded run admitted no repair"
    else
      match P.Wire.read_frame s.contents ~pos:s.boundaries.(i) with
      | P.Wire.Frame { payload; next } -> (
        match P.Op.decode_string payload with
        | Ok (P.Op.Repair { connection; rehomed = true }) ->
          (s.boundaries.(i), connection, next)
        | Ok _ -> first_rehomed (i + 1)
        | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail "boundary does not start a frame"
  in
  let at, connection, next = first_rehomed 0 in
  let b = Buffer.create 64 in
  P.Op.encode b (P.Op.Repair { connection; rehomed = false });
  write_file div
    (String.sub s.contents 0 at
    ^ P.Wire.frame (Buffer.contents b)
    ^ String.sub s.contents next (String.length s.contents - next));
  write_file
    (P.Store.snapshot_path ~wal:div ~seq:0)
    (read_file (P.Store.snapshot_path ~wal:s.wal ~seq:0));
  (match P.Store.recover_backend ~wal:div () with
  | Error (P.Store.Corrupt { path; offset; _ }) ->
    Alcotest.(check string) "names the WAL" div path;
    Alcotest.(check int) "at the diverged record" at offset
  | Error e -> Alcotest.failf "wrong error: %a" P.Store.pp_recovery_error e
  | Ok _ -> Alcotest.fail "a diverged repair replayed silently");
  remove_store_files div

let cleanup engine () =
  match List.assoc_opt engine !recorded with
  | Some s -> remove_store_files s.wal
  | None -> ()

(* The continuation and its counters need the multistage engine. *)
let sweep engine =
  List.concat
    [
      [ Alcotest.test_case "crash at every record boundary" `Slow
          (test_every_boundary engine) ];
      (match engine with
      | Multistage ->
        [ Alcotest.test_case "telemetry counters after recovery" `Quick
            test_counters_after_recovery;
          Alcotest.test_case "diverged repair outcome is corrupt" `Quick
            test_diverged_repair ]
      | Mesh_engine -> []);
      [
        Alcotest.test_case "interior byte flips never diverge" `Quick
          (test_byte_flips engine);
        Alcotest.test_case "torn tail truncates to prefix" `Quick
          (test_torn_tail engine);
        Alcotest.test_case "cleanup" `Quick (cleanup engine);
      ];
    ]

let () =
  Alcotest.run "crash_recovery"
    [ ("bitset", sweep Multistage); ("mesh", sweep Mesh_engine) ]
