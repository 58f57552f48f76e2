(* The traced run's per-layer half.  Spans are timed here, around calls
   into each layer's public functions; the program itself carries no
   tracing.  Two sources:

   - the served pass: per frame, the client's round trip, plus the
     client's request encode and response decode timed again beside it;
   - the in-process pass: the same frames replayed through the
     server's layers in the server's order — Framebuf, Resp decode, the
     engine (telemetry attached, as `serve` does), Store.log under
     serve's default flush policy, the replication frame and the
     every-64-ops digest, Resp encode.

   A frame's unexplained time is its round trip minus its client and
   server layer spans: socket syscalls, thread hand-offs, queueing. *)

module Resp = Wdm_persist.Resp
module Op = Wdm_persist.Op
module Wire = Wdm_persist.Wire
module Repl = Wdm_persist.Repl
module Store = Wdm_persist.Store
module Backend = Wdm_persist.Backend
module Framebuf = Wdm_server.Framebuf
module Client = Wdm_server.Client
open Stats

(* {1 Spans} *)

(* The engine spans time [Resp.execute_backend] on one connect or
   tear-down: the multistage [Network] or the [Mesh_network] with its
   wire adapters, whichever the workload serves. *)
let names =
  [| "Client.request"; "Client.encode"; "Client.decode"; "Server.frame";
     "Framebuf.next_frame"; "Resp.decode_request"; "Engine.connect";
     "Engine.disconnect"; "Store.log"; "Repl.encode_to_follower";
     "Backend.digest"; "Resp.encode" |]

let client_request = 0 and client_encode = 1 and client_decode = 2
let server_frame = 3 and framebuf = 4 and resp_decode = 5
let engine_connect = 6 and engine_disconnect = 7
let store_log = 8 and repl_encode = 9 and backend_digest = 10 and resp_encode = 11

(* Name, start, end, parent span and request (frame) id, in parallel
   growable columns so that recording a span does not allocate. *)
module Spans = struct
  type t = {
    name : int Vec.t;
    start : int Vec.t;
    stop : int Vec.t;
    parent : int Vec.t;
    req : int Vec.t;
  }

  let create () =
    { name = Vec.create (); start = Vec.create (); stop = Vec.create ();
      parent = Vec.create (); req = Vec.create () }

  let add s ~name ~start ~stop ~parent ~req =
    Vec.push s.name name;
    Vec.push s.start start;
    Vec.push s.stop stop;
    Vec.push s.parent parent;
    Vec.push s.req req;
    Vec.length s.name - 1

  let dur s i = Vec.get s.stop i - Vec.get s.start i

  let iter s f =
    for i = 0 to Vec.length s.name - 1 do
      f i
    done
end

(* {1 Served pass} *)

(* Called after each answered frame of the traced window: the round
   trip as measured, then the client's own encode and decode of the
   same frame timed again. *)
let client_frame sp ~batch (d : Drive.t) ~frame ~rtt =
  let reqs, resps = d.last in
  let t = now_ns () in
  let root =
    Spans.add sp ~name:client_request ~start:(t - rtt) ~stop:t ~parent:(-1) ~req:frame
  in
  let a = now_ns () in
  let b = Buffer.create 64 in
  Resp.encode_request b (if batch = 1 then List.hd reqs else Resp.Batch reqs);
  Wire.put_int b frame;
  let bytes = Wire.frame (Buffer.contents b) in
  let z = now_ns () in
  ignore (Spans.add sp ~name:client_encode ~start:a ~stop:z ~parent:root ~req:frame);
  let reply = if batch = 1 then List.hd resps else Resp.Batch_reply resps in
  let pb = Buffer.create (String.length bytes) in
  Resp.encode pb reply;
  let payload = Buffer.contents pb in
  let a = now_ns () in
  (match Resp.decode_string payload with Ok _ -> () | Error e -> failwith e);
  let z = now_ns () in
  ignore (Spans.add sp ~name:client_decode ~start:a ~stop:z ~parent:root ~req:frame)

(* {1 In-process pass} *)

type pass = {
  drive : Drive.t;
  backend : Backend.t;
  spans : Spans.t;
  first : int;  (** first frame with spans *)
  sizes : int array;  (** requests per spanned frame *)
  wal_bytes_per_record : float;
  repl_bytes_per_op : float;
  encode_state_ms : float;
}

(* The server's rule for what reaches the WAL: refused connects do,
   failed tear-downs do not. *)
let committed (req : Resp.request) (resp : Resp.t) =
  match (req, resp) with
  | Resp.Admit op, (Resp.Admitted _ | Resp.Refused _ | Resp.Released _) -> Some op
  | _ -> None

let in_process (w : Workload.t) trace ~frames ~first =
  let sink = Wdm_telemetry.Sink.create () in
  let backend = Workload.backend ~telemetry:sink w.engine in
  let store = Store.start_backend ~wal:"inproc.wal" backend in
  let fb = Framebuf.create () in
  let sp = Spans.create () in
  let sizes = Vec.create () in
  let d = Drive.create w trace in
  let seq = ref 0 and last_digest = ref 0 and repl_bytes = ref 0 in
  let send reqs =
    let frame = d.Drive.frames in
    let on = frame >= first in
    let root = if on then Spans.add sp ~name:server_frame ~start:0 ~stop:0 ~parent:(-1) ~req:frame else -1 in
    let span name f =
      if on then begin
        let a = now_ns () in
        let r = f () in
        ignore (Spans.add sp ~name ~start:a ~stop:(now_ns ()) ~parent:root ~req:frame);
        r
      end
      else f ()
    in
    (* the bytes a client puts on the wire for this frame *)
    let b = Buffer.create 64 in
    Resp.encode_request b (if w.batch = 1 then List.hd reqs else Resp.Batch reqs);
    Wire.put_int b frame;
    let bytes = Wire.frame (Buffer.contents b) in
    let t0 = now_ns () in
    let payload =
      span framebuf (fun () ->
          Framebuf.add_string fb bytes;
          match Framebuf.next_frame fb with
          | Framebuf.Frame p -> p
          | Framebuf.Bad e -> failwith e
          | Framebuf.Need _ -> failwith "short frame")
    in
    let req =
      span resp_decode (fun () ->
          let r = Wire.reader payload in
          let req = Resp.decode_request r in
          ignore (Wire.get_int r);
          Wire.expect_end r;
          req)
    in
    let subs = match req with Resp.Batch l -> l | r -> [ r ] in
    let execute (sub : Resp.request) =
      let name = match sub with Resp.Admit (Op.Connect _) -> engine_connect | _ -> engine_disconnect in
      span name (fun () -> Resp.execute_backend backend sub)
    in
    let frame_to_follower msg =
      let b = Buffer.create 256 in
      Repl.encode_to_follower b msg;
      Wire.frame (Buffer.contents b)
    in
    let resps =
      List.map
        (fun sub ->
          let resp = execute sub in
          (match committed sub resp with
          | None -> ()
          | Some op ->
            span store_log (fun () -> Store.log store op);
            incr seq;
            let f = span repl_encode (fun () -> frame_to_follower (Repl.Rep_op { seq = !seq; op })) in
            repl_bytes := !repl_bytes + String.length f;
            if !seq - !last_digest >= 64 then begin
              last_digest := !seq;
              span backend_digest (fun () ->
                  let digest = Backend.digest backend in
                  ignore (frame_to_follower (Repl.Rep_digest { seq = !seq; digest })))
            end);
          resp)
        subs
    in
    span resp_encode (fun () ->
        let b = Buffer.create 64 in
        Resp.encode b (if w.batch = 1 then List.hd resps else Resp.Batch_reply resps);
        ignore (Wire.frame (Buffer.contents b)));
    if on then begin
      Vec.set sp.Spans.start root t0;
      Vec.set sp.Spans.stop root (now_ns ());
      Vec.push sizes (List.length subs)
    end;
    resps
  in
  while d.Drive.frames < frames do
    Drive.step d ~send
  done;
  let records = Store.wal_records store in
  let wal_bytes = Store.wal_offset store - Wire.header_len in
  Store.close store;
  let encode_state_ms =
    median
      (Array.init 5 (fun _ ->
           let a = now_ns () in
           ignore (Backend.encode_state backend);
           float_of_int (now_ns () - a) *. 1e-6))
  in
  {
    drive = d;
    backend;
    spans = sp;
    first;
    sizes = Vec.to_array sizes;
    wal_bytes_per_record = float_of_int wal_bytes /. float_of_int (max 1 records);
    repl_bytes_per_op = float_of_int !repl_bytes /. float_of_int (max 1 !seq);
    encode_state_ms;
  }

(* {1 Follower catch-up} *)

(* On a workload with a follower: its lag in ops when the window
   closes, and the time until its digest equals the leader's.  On the
   others: a follower started now, timed until it holds the leader's
   digest (snapshot encode, ship and install). *)
let catch_up (w : Workload.t) ~wdmnet ~leader_sock leader follower =
  let target = Servers.digest leader in
  let deadline = now_s () +. 60. in
  let timed c t0 =
    if not (Servers.await_digest c ~target ~deadline) then
      failwith "follower never reached the leader's digest";
    1e3 *. (now_s () -. t0)
  in
  match follower with
  | Some c ->
    let t0 = now_s () in
    let lag = Servers.applied leader - Servers.applied c in
    (lag, timed c t0)
  | None ->
    let dir = "catch-up" in
    Unix.mkdir dir 0o755;
    let t0 = now_s () in
    let p =
      Servers.spawn ~wdmnet ~dir ~name:"fol"
        ("--follower" :: ("unix:" ^ leader_sock) :: Workload.serve_flags w.engine)
    in
    let c = Servers.dial p ~deadline in
    let ms = timed c t0 in
    Client.close c;
    Servers.reap p.Servers.pid;
    (0, ms)

(* {1 Metrics} *)

(* Per spanned frame: the summed duration of the spans named in [set]. *)
let per_frame sp ~first ~frames set =
  let acc = Array.make frames 0 in
  Spans.iter sp (fun i ->
      let f = Vec.get sp.Spans.req i - first in
      if f >= 0 && f < frames && List.mem (Vec.get sp.Spans.name i) set then
        acc.(f) <- acc.(f) + Spans.dur sp i);
  acc

let durations sp set =
  let v = Vec.create () in
  Spans.iter sp (fun i -> if List.mem (Vec.get sp.Spans.name i) set then Vec.push v (float_of_int (Spans.dur sp i)));
  Vec.to_array v

(* Server layers whose time the round trip contains: replication work
   only where a follower is attached. *)
let explained (w : Workload.t) =
  [ framebuf; resp_decode; engine_connect; engine_disconnect; store_log; resp_encode ]
  @ if w.follower then [ repl_encode; backend_digest ] else []

type frames = {
  rtt : int array;
  client : int array;  (** client encode + decode *)
  server : int array;  (** explained server layers *)
  n : int;
}

let frame_sums w client pass =
  let n = Array.length pass.sizes in
  let rtt = per_frame client ~first:pass.first ~frames:n [ client_request ] in
  let cl = per_frame client ~first:pass.first ~frames:n [ client_encode; client_decode ] in
  let sv = per_frame pass.spans ~first:pass.first ~frames:n (explained w) in
  { rtt; client = cl; server = sv; n }

(* median over frames of a per-frame sum divided by the frame's size *)
let per_request pass sums =
  median (Array.mapi (fun i s -> float_of_int s /. float_of_int pass.sizes.(i)) sums)

let metrics (w : Workload.t) client pass =
  let fs = frame_sums w client pass in
  let n = fs.n in
  let sum set sp = per_frame sp ~first:pass.first ~frames:n set in
  let unexplained =
    Array.init n (fun i -> float_of_int (fs.rtt.(i) - fs.client.(i) - fs.server.(i)) *. 1e-3)
  in
  let us set = Array.map (fun x -> x *. 1e-3) (durations pass.spans set) in
  let connects = us [ engine_connect ] in
  let d = pass.drive in
  [
    ("Client.rtt_us_p50", "us", median (Array.map (fun x -> float_of_int x *. 1e-3) fs.rtt));
    ("Client.encode_ns", "ns", per_request pass (sum [ client_encode ] client));
    ("Client.decode_ns", "ns", per_request pass (sum [ client_decode ] client));
    ("Framebuf.decode_ns", "ns", per_request pass (sum [ framebuf ] pass.spans));
    ("Resp.decode_ns", "ns", per_request pass (sum [ resp_decode ] pass.spans));
    ("Resp.encode_ns", "ns", per_request pass (sum [ resp_encode ] pass.spans));
    ("Server.unexplained_us_p50", "us", median unexplained);
    ("Engine.connect_us_p50", "us", median connects);
    ("Engine.connect_us_p99", "us", quantile 0.99 connects);
    ("Engine.disconnect_us_p50", "us", median (us [ engine_disconnect ]));
    ( "Engine.admitted_ratio", "ratio",
      float_of_int (d.Drive.connects - d.Drive.refusals) /. float_of_int (max 1 d.Drive.connects) );
    ("Wal.append_us", "us", median (us [ store_log ]));
    ("Wal.bytes_per_record", "bytes", pass.wal_bytes_per_record);
    ("Repl.encode_ns", "ns", median (durations pass.spans [ repl_encode ]));
    ("Repl.bytes_per_op", "bytes", pass.repl_bytes_per_op);
    ("Backend.digest_us", "us", median (us [ backend_digest ]));
    ("Backend.encode_state_ms", "ms", pass.encode_state_ms);
  ]

(* Mean microseconds per round trip spent in each layer. *)
let print_breakdown (w : Workload.t) client pass =
  let fs = frame_sums w client pass in
  let n = max 1 fs.n in
  let mean_us set sp =
    let a = per_frame sp ~first:pass.first ~frames:fs.n set in
    float_of_int (Array.fold_left ( + ) 0 a) *. 1e-3 /. float_of_int n
  in
  let rows =
    [ ("round trip (Client.request)", mean_us [ client_request ] client);
      ("Client encode + decode", mean_us [ client_encode; client_decode ] client);
      ("Framebuf.next_frame", mean_us [ framebuf ] pass.spans);
      ("Resp.decode_request", mean_us [ resp_decode ] pass.spans);
      ("engine connect/disconnect", mean_us [ engine_connect; engine_disconnect ] pass.spans);
      ("Store.log", mean_us [ store_log ] pass.spans);
      ("Repl.encode_to_follower" ^ (if w.follower then "" else " (not on this path)"), mean_us [ repl_encode ] pass.spans);
      ("Backend.digest" ^ (if w.follower then "" else " (not on this path)"), mean_us [ backend_digest ] pass.spans);
      ("Resp.encode", mean_us [ resp_encode ] pass.spans) ]
  in
  let unexplained =
    float_of_int
      (Array.fold_left ( + ) 0 fs.rtt - Array.fold_left ( + ) 0 fs.client
      - Array.fold_left ( + ) 0 fs.server)
    *. 1e-3 /. float_of_int n
  in
  Printf.printf "  mean us per round trip over %d traced frames:\n" fs.n;
  List.iter (fun (name, v) -> Printf.printf "    %-44s %10.3f\n" name v) rows;
  Printf.printf "    %-44s %10.3f\n" "unexplained (socket, loop, hand-offs)" unexplained

let write_spans client pass path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "source\tspan\tname\tstart_ns\tend_ns\tparent\trequest\n";
      let dump source sp =
        Spans.iter sp (fun i ->
            let col c = Vec.get c i in
            Printf.fprintf oc "%s\t%d\t%s\t%d\t%d\t%d\t%d\n" source i names.(col sp.Spans.name)
              (col sp.Spans.start) (col sp.Spans.stop) (col sp.Spans.parent) (col sp.Spans.req))
      in
      dump "served" client;
      dump "in-process" pass.spans)
