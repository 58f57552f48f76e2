(* Decoder fuzz: every wire decoder the event loop runs on untrusted
   bytes — the replication codec on both roles, responses, ops, the
   incremental frame reader, and the state restore a follower runs on a
   leader's snapshot, and the WAL reader recovery relies on — fed
   random strings, truncations and single-byte mutations of valid
   encodings.  Each must answer with its typed Ok/Error
   (Frame/Need/Bad), never an exception, because an exception there
   would escape into the one thread that serves every connection.
   [Resp.decode_request] is the documented exception: it may raise
   [Wire.Decode_error], which the loop catches, and nothing else. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Srv = Wdm_server
module Fault = Wdm_faults.Fault

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

let net () =
  Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
    (Topology.make_exn ~n:3 ~m:4 ~r:3 ~k:2)

let encoded encode v =
  let b = Buffer.create 64 in
  encode b v;
  Buffer.contents b

(* --- a corpus of valid encodings ------------------------------------------ *)

let ops =
  [
    P.Op.Connect (conn (ep 1 1) [ ep 4 1; ep 7 2 ]);
    P.Op.Disconnect 3;
    P.Op.Inject_fault (Fault.Middle 2);
    P.Op.Clear_fault (Fault.Stage1_laser { input = 1; middle = 2; wl = 1 });
    P.Op.Inject_fault (Fault.Converter { middle = 1; output = 3 });
    P.Op.Repair { connection = conn (ep 2 1) [ ep 5 1 ]; rehomed = true };
  ]

let op_corpus = List.map (encoded P.Op.encode) ops

let to_leader_corpus =
  List.map
    (encoded P.Repl.encode_to_leader)
    [
      P.Repl.Subscribe { epoch = 0; last_seq = -1 };
      P.Repl.Subscribe { epoch = 123456789; last_seq = 42 };
      P.Repl.Ack { seq = 7; digest = 987654321 };
    ]

let to_follower_corpus =
  let n = net () in
  ignore (Network.connect n (conn (ep 1 1) [ ep 4 1 ]));
  List.map
    (encoded P.Repl.encode_to_follower)
    ([
       P.Repl.Init_snapshot
         { epoch = 5; seq = 10; state = P.Backend.encode_state (P.Backend.Net n) };
       P.Repl.Init_resume { epoch = 5; seq = 10 };
       P.Repl.Rep_digest { seq = 64; digest = 123456 };
       P.Repl.Goodbye { reason = "shutdown" };
     ]
    @ List.mapi (fun i op -> P.Repl.Rep_op { seq = i + 1; op }) ops)

let resp_corpus =
  let n = net () in
  let route = Result.get_ok (Network.connect n (conn (ep 1 1) [ ep 4 1; ep 7 1 ])) in
  let resps =
    [
      P.Resp.Admitted { route; moved = 3 };
      P.Resp.Refused
        (Network.Invalid
           (Assignment.Model_violation
              { model = Model.MSW; connection = conn (ep 1 1) [ ep 2 2 ] }));
      P.Resp.Refused (Network.Unserviceable (Fault.Middle 1));
      P.Resp.Refused
        (Network.Blocked
           { fanout_switches = [ 1; 3 ]; available_middles = [ 2 ]; uncovered = [ 3 ] });
      P.Resp.Released route;
      P.Resp.Release_failed (Network.Already_released 7);
      P.Resp.Fault_applied { torn_down = 2 };
      P.Resp.Digest_is 123456789;
      P.Resp.Stats_json "{\"a\": 1}";
      P.Resp.Not_leader { leader = "unix:/tmp/x.sock" };
      P.Resp.Promoted { seq = 12 };
    ]
  in
  List.map (encoded P.Resp.encode) (P.Resp.Batch_reply resps :: resps)

let request_corpus =
  let reqs =
    P.Resp.[ Get_digest; Get_stats; Promote ] @ List.map (fun op -> P.Resp.Admit op) ops
  in
  List.map (encoded P.Resp.encode_request) (P.Resp.Batch reqs :: reqs)

(* Real states of both engines: a one-word (k = 2) and a two-word
   (k = 96) multistage fabric (routes, a teardown, a fault; the second
   under a plug-in strategy, which takes the string-carrying tag), a
   legacy k = 96 state with link-state byte 1 as earlier releases wrote
   for their bool-array planes, and a mesh with a splitter map and live
   routes. *)
let state_corpus =
  let fabric ?(strategy = "min-intersection") ~k () =
    let n =
      Network.create
        ~config:{ Network.Config.default with strategy }
        ~construction:Network.Msw_dominant ~output_model:Model.MSW
        (Topology.make_exn ~n:3 ~m:4 ~r:3 ~k)
    in
    List.iter
      (fun c -> ignore (Network.connect n c))
      [ conn (ep 1 1) [ ep 4 1; ep 7 2 ]; conn (ep 2 2) [ ep 5 2 ];
        conn (ep 3 1) [ ep 9 1 ] ];
    ignore (Network.disconnect n 2);
    ignore (Network.inject_fault n (Fault.Middle 3));
    P.Backend.encode_state (P.Backend.Net n)
  in
  (* the link byte follows n, m, r, k, construction, model, x_limit and
     a built-in strategy's tag *)
  let legacy =
    let b = Bytes.of_string (fabric ~k:96 ()) in
    Bytes.set b 23 '\001';
    Bytes.to_string b
  in
  let mesh =
    let config =
      { Wdm_mesh.Mesh_network.Config.default with
        Wdm_mesh.Mesh_network.Config.k = 3;
        splitters = Wdm_mesh.Mesh_network.Split_nodes [ 2; 5 ] }
    in
    let m = Result.get_ok (Wdm_mesh.Mesh_network.create ~config "janet") in
    List.iter
      (fun c -> ignore (Wdm_mesh.Mesh_network.connect m c))
      [ conn (ep 1 1) [ ep 4 1; ep 6 1 ]; conn (ep 2 1) [ ep 7 1 ];
        conn (ep 3 1) [ ep 5 1; ep 1 1 ] ];
    P.Backend.encode_state (P.Backend.Mesh m)
  in
  [ fabric ~k:2 ();
    fabric ~strategy:("adaptive") ~k:96 ();
    legacy;
    mesh ]

(* A recorded WAL file: the header, then one framed record per op, and
   the record start offsets, then EOF. *)
let wal_ops = ops @ List.rev ops

let wal_bytes, wal_boundaries =
  let path = Filename.temp_file "wdm_fuzz" ".wal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let w = P.Wal.create path in
  let starts =
    List.map
      (fun op ->
        let at = P.Wal.tell w in
        P.Wal.append w op;
        at)
      wal_ops
  in
  let len = P.Wal.tell w in
  P.Wal.close w;
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (bytes, starts @ [ len ])

(* --- generators ------------------------------------------------------------- *)

(* Random bytes; half of them start with a plausible small tag byte so
   the decoders get past their first dispatch. *)
let random_bytes =
  QCheck.Gen.(
    let* tagged = bool in
    let* body = string_size ~gen:char (int_range 0 48) in
    if tagged then map (fun t -> String.make 1 (Char.chr t) ^ body) (int_range 0 16)
    else return body)

let truncation corpus =
  QCheck.Gen.(
    let* s = oneofl corpus in
    map (fun n -> String.sub s 0 n) (int_bound (String.length s)))

let mutation corpus =
  QCheck.Gen.(
    let* s = oneofl corpus in
    let* i = int_bound (String.length s - 1) in
    let* byte = int_bound 255 in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr byte);
    return (Bytes.to_string b))

let inputs corpus =
  QCheck.make ~print:String.escaped
    (QCheck.Gen.oneof [ random_bytes; truncation corpus; mutation corpus ])

(* --- properties --------------------------------------------------------------- *)

let never_raises name corpus decode =
  QCheck.Test.make ~name ~count:3000 (inputs corpus) (fun s ->
      match decode s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let decode_request_raises_only_decode_error =
  QCheck.Test.make ~name:"Resp.decode_request raises only Decode_error"
    ~count:3000 (inputs request_corpus) (fun s ->
      match
        let r = P.Wire.reader s in
        ignore (P.Resp.decode_request r);
        P.Wire.expect_end r
      with
      | () | (exception P.Wire.Decode_error _) -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* The one WAL reader, on whole files: random bytes (with and without a
   valid header), truncations and byte mutations of the recorded WAL.
   It never raises; an error names an offset inside the file; a valid
   prefix ends inside the file, at the tear when there is one. *)
let read_wal s =
  let path = Filename.temp_file "wdm_fuzz" ".wal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  P.Wal.read path

let wal_read_never_raises =
  let header = P.Wire.header ~kind:'W' in
  let gen =
    QCheck.Gen.oneof
      [ random_bytes; QCheck.Gen.map (fun s -> header ^ s) random_bytes;
        truncation [ wal_bytes ]; mutation [ wal_bytes ] ]
  in
  QCheck.Test.make ~name:"Wal.read never raises" ~count:2000
    (QCheck.make ~print:String.escaped gen) (fun s ->
      let len = String.length s in
      match read_wal s with
      | Ok { P.Wal.ops; tear; valid_end } ->
        valid_end <= len
        && (match tear with None -> valid_end = len | Some at -> at = valid_end)
        && List.for_all (fun (at, _) -> at < valid_end) ops
      | Error { P.Wal.offset; _ } -> 0 <= offset && (offset < len || offset = 0)
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* Cut an intact WAL anywhere past its header: exactly the records that
   end at or before the cut come back, and the tail is torn exactly when
   the cut falls inside a record, at that record's start. *)
let wal_read_truncation =
  QCheck.Test.make ~name:"Wal.read of a cut WAL" ~count:500
    (QCheck.make ~print:string_of_int
       (QCheck.Gen.int_range P.Wire.header_len (String.length wal_bytes)))
    (fun cut ->
      let rec split kept = function
        | start :: (next :: _ as rest) when next <= cut ->
          split (start :: kept) rest
        | start :: _ when start < cut -> (List.rev kept, Some start)
        | _ -> (List.rev kept, None)
      in
      let starts, tear = split [] wal_boundaries in
      match read_wal (String.sub wal_bytes 0 cut) with
      | Ok r ->
        List.map fst r.P.Wal.ops = starts
        && List.for_all2
             (fun (_, op) expected -> P.Op.equal op expected)
             r.P.Wal.ops
             (List.filteri
                (fun i _ -> i < List.length starts)
                wal_ops)
        && r.P.Wal.tear = tear
      | Error { P.Wal.offset; reason } ->
        QCheck.Test.fail_reportf "error at %d: %s" offset reason)

(* A stream of valid frames, damaged or not, split into random chunks:
   draining the buffer after every chunk must only ever see typed
   results.  An undamaged stream must come back frame for frame. *)
let frame_stream =
  let payloads = to_leader_corpus @ to_follower_corpus @ request_corpus in
  QCheck.make
    ~print:(fun (s, _, _) -> String.escaped s)
    QCheck.Gen.(
      let* frames = list_size (int_range 1 6) (oneofl payloads) in
      let stream = String.concat "" (List.map P.Wire.frame frames) in
      let* damage = oneof [ return None; map Option.some (mutation [ stream ]) ] in
      let* cuts = list_size (int_range 0 8) (int_bound (String.length stream)) in
      return (Option.value damage ~default:stream, frames, List.sort compare cuts))

let framebuf_never_raises =
  QCheck.Test.make ~name:"Framebuf.next_frame never raises" ~count:2000
    frame_stream (fun (stream, frames, cuts) ->
      let fb = Srv.Framebuf.create ~capacity:16 () in
      let got = ref [] and bad = ref false in
      let drain () =
        let continue = ref (not !bad) in
        while !continue do
          match Srv.Framebuf.next_frame fb with
          | Srv.Framebuf.Frame p -> got := p :: !got
          | Srv.Framebuf.Need _ -> continue := false
          | Srv.Framebuf.Bad _ ->
            bad := true;
            continue := false
          | exception e ->
            QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
        done
      in
      let last =
        List.fold_left
          (fun off cut ->
            Srv.Framebuf.add_string fb (String.sub stream off (cut - off));
            drain ();
            cut)
          0 cuts
      in
      Srv.Framebuf.add_string fb
        (String.sub stream last (String.length stream - last));
      drain ();
      let intact = String.concat "" (List.map P.Wire.frame frames) = stream in
      (not intact) || ((not !bad) && List.rev !got = frames))

let () =
  Alcotest.run "wdm_fuzz"
    [
      ( "decoders",
        List.map QCheck_alcotest.to_alcotest
          [
            never_raises "Repl.to_leader_of_string" to_leader_corpus
              P.Repl.to_leader_of_string;
            never_raises "Repl.to_follower_of_string" to_follower_corpus
              P.Repl.to_follower_of_string;
            never_raises "Resp.decode_string" resp_corpus P.Resp.decode_string;
            never_raises "Op.decode_string" op_corpus P.Op.decode_string;
            decode_request_raises_only_decode_error;
            never_raises "Backend.restore" state_corpus (fun s ->
                P.Backend.restore s);
            framebuf_never_raises;
            wal_read_never_raises;
            wal_read_truncation;
          ] );
    ]
