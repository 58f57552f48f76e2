(* The closed-loop client script, shared by the served run, the twin
   and the traced in-process pass: each builds the same frames from the
   same trace and answers, and differs only in how a frame is sent. *)

module Resp = Wdm_persist.Resp
module Op = Wdm_persist.Op
open Stats

(* per-connect state in [ids]: a route id (>= 0) or one of these *)
let pending = -2
let refused = -1

type t = {
  trace : Workload.trace;
  batch : int;
  ids : int Vec.t;  (** indexed by connect ordinal *)
  mutable pos : int;
  deferred : int Queue.t;  (** tear-downs waiting for their connect's answer *)
  codes : Buffer.t;  (** one outcome letter per request, in send order *)
  mutable checksum : int;  (** {!Op.route_checksum} over admitted routes *)
  mutable requests : int;
  mutable frames : int;
  mutable connects : int;
  mutable refusals : int;
  mutable last : Resp.request list * Resp.t list;  (** the latest frame and its answers *)
}

let create (w : Workload.t) trace =
  {
    trace;
    batch = w.batch;
    ids = Vec.create ();
    pos = 0;
    deferred = Queue.create ();
    codes = Buffer.create 65536;
    checksum = 0;
    requests = 0;
    frames = 0;
    connects = 0;
    refusals = 0;
    last = ([], []);
  }

(* The next frame: tear-downs deferred from the previous frame first,
   then trace steps until the frame holds [batch] requests.  Each
   request is paired with its connect ordinal, or -1 for a tear-down.
   A tear-down whose connect rides in the same, still unanswered frame
   waits for the next one. *)
let next_frame d =
  let acc = ref [] and len = ref 0 in
  let add req ord =
    acc := (req, ord) :: !acc;
    incr len
  in
  let teardown j =
    let id = Vec.get d.ids j in
    if id >= 0 then add (Resp.Admit (Op.Disconnect id)) (-1)
    else if id = pending then Queue.add j d.deferred
  in
  let waiting = Queue.length d.deferred in
  for _ = 1 to waiting do
    teardown (Queue.pop d.deferred)
  done;
  while !len < d.batch do
    (match Workload.step d.trace d.pos with
    | Workload.Connect c ->
      let j = d.connects in
      d.connects <- j + 1;
      Vec.push d.ids pending;
      add (Resp.Admit (Op.Connect c)) j
    | Workload.Disconnect j -> teardown j);
    d.pos <- d.pos + 1
  done;
  List.rev !acc

let code (resp : Resp.t) =
  match resp with
  | Resp.Admitted _ -> 'A'
  | Resp.Refused _ -> 'R'
  | Resp.Released _ -> 'L'
  | Resp.Release_failed _ -> 'F'
  | _ -> 'X'

let record d frame resps =
  List.iter2
    (fun (_, ord) resp ->
      Buffer.add_char d.codes (code resp);
      (match resp with
      | Resp.Admitted { route; _ } -> d.checksum <- Op.route_checksum d.checksum route
      | _ -> ());
      if ord >= 0 then
        match resp with
        | Resp.Admitted { route; _ } -> Vec.set d.ids ord route.id
        | _ ->
          Vec.set d.ids ord refused;
          d.refusals <- d.refusals + 1)
    frame resps;
  d.requests <- d.requests + List.length resps;
  d.frames <- d.frames + 1

(* Send one frame through [send] and record its answers.  [send] gets
   the requests in order and must answer each one. *)
let step d ~send =
  let frame = next_frame d in
  let reqs = List.map fst frame in
  let resps = send reqs in
  if List.length resps <> List.length frame then failwith "answer arity mismatch";
  record d frame resps;
  d.last <- (reqs, resps)

(* The twin: the same script against an in-process backend, for
   exactly [frames] frames. *)
let twin (w : Workload.t) trace ~frames =
  let backend = Workload.backend w.engine in
  let d = create w trace in
  let send reqs = List.map (Resp.execute_backend backend) reqs in
  while d.frames < frames do
    step d ~send
  done;
  (d, backend)

(* The first request whose answer differs, if any. *)
let diverges served twin =
  let a = Buffer.contents served.codes and b = Buffer.contents twin.codes in
  if a = b && served.checksum = twin.checksum then None
  else
    let n = min (String.length a) (String.length b) in
    let rec first i = if i < n && a.[i] = b.[i] then first (i + 1) else i in
    Some (first 0)
