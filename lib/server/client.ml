module Network = Wdm_multistage.Network
module P = Wdm_persist

type error =
  | Timeout
  | Closed
  | Transport of string
  | Protocol of string

let pp_error ppf = function
  | Timeout -> Format.pp_print_string ppf "request deadline exceeded"
  | Closed -> Format.pp_print_string ppf "client is closed"
  | Transport e -> Format.fprintf ppf "transport: %s" e
  | Protocol e -> Format.fprintf ppf "protocol: %s" e

let error_to_string e = Format.asprintf "%a" pp_error e

type t = {
  fd : Unix.file_descr;
  mutable closed : bool;
  mutable deadline : float;
  spans : bool;  (* both hellos carried Protocol.flag_spans *)
  span_tag : int;  (* process-unique per connection *)
  mutable span_seq : int;
  mutable last_span : int option;
  scratch : Buffer.t;  (* this connection's request encoder *)
}

(* Span ids are [tag * 2^32 + seq]: unique within the process without
   cross-thread coordination on the request path (connects are rare, so
   they can afford a lock; requests cannot). *)
let span_tag_counter = ref 0
let span_tag_mu = Mutex.create ()

let next_span_tag () =
  Mutex.lock span_tag_mu;
  incr span_tag_counter;
  let tag = !span_tag_counter land 0x3fffff in
  Mutex.unlock span_tag_mu;
  tag

(* EAGAIN/EWOULDBLOCK out of a socket with SO_RCVTIMEO set is the
   deadline expiring, not a transport fault. *)
let error_of_unix = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> Timeout
  | err -> Transport (Unix.error_message err)

(* A bounded connect: non-blocking dial, wait for writability, then
   read the pending error the kernel stored for the attempt.  SIGPIPE
   is ignored first: a server that closes mid-request must surface as
   EPIPE on the write — a typed [Transport] error — not kill the
   process. *)
let dial ~dial_timeout sockaddr domain =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  let give_up = Unix.gettimeofday () +. dial_timeout in
  match
    Unix.set_nonblock fd;
    (let rec attempt () =
       match Unix.connect fd sockaddr with
       | () -> ()
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
         when domain = Unix.PF_UNIX ->
         (* a unix socket answers EAGAIN when the listener's backlog is
            full, and unlike TCP's EINPROGRESS the attempt was NOT
            started — waiting for writability would read garbage from
            getsockopt.  Back off and redial until the timeout. *)
         if Unix.gettimeofday () >= give_up then
           raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""));
         Unix.sleepf 0.005;
         attempt ()
       | exception
           Unix.Unix_error
             ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
         -> (
         let left = give_up -. Unix.gettimeofday () in
         match Unix.select [] [ fd ] [] (Float.max 0.01 left) with
         | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
         | _ -> (
           match Unix.getsockopt_error fd with
           | None -> ()
           | Some err -> raise (Unix.Unix_error (err, "connect", ""))))
     in
     attempt ());
    Unix.clear_nonblock fd;
    fd
  with
  | fd -> Ok fd
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (error_of_unix err)

let connect ?(dial_timeout = 5.0) ?(deadline = 30.0) addr =
  match Server.sockaddr_of_address addr with
  | exception Not_found ->
    Error (Transport (Format.asprintf "cannot resolve %a" Server.pp_address addr))
  | domain, sockaddr -> (
    match dial ~dial_timeout sockaddr domain with
    | Error Timeout -> Error Timeout
    | Error (Transport e) ->
      Error
        (Transport
           (Format.asprintf "cannot connect to %a: %s" Server.pp_address addr e))
    | Error e -> Error e
    | Ok fd -> (
      (* the deadline covers the handshake too: a server that accepts
         and never answers must not hang the caller *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline
       with Unix.Unix_error _ -> ());
      match
        Protocol.write_all fd Protocol.client_hello_spans;
        Protocol.read_exactly fd P.Wire.header_len
      with
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (error_of_unix err)
      | Protocol.Eof_clean ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Transport "handshake failed: no server hello")
      | Protocol.Eof_torn _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Transport "handshake failed: server closed mid-hello")
      | Protocol.Exact hello -> (
        match Protocol.check_server_hello hello with
        | Ok () ->
          (* a pre-flags server replies with zeroed padding, so the
             connection silently downgrades to span-less framing *)
          Ok
            {
              fd;
              closed = false;
              deadline;
              spans = Protocol.hello_has_spans hello;
              span_tag = next_span_tag ();
              span_seq = 0;
              last_span = None;
              scratch = Buffer.create 1024;
            }
        | Error e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Protocol ("handshake failed: " ^ e)))))

let spans t = t.spans
let last_span t = t.last_span

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* A transport failure mid-exchange (partial send, EOF, a bad frame,
   or a deadline expiring with the response half-read) desynchronizes
   the byte stream: another request on the same fd could misframe and
   return garbage.  Close the connection so every subsequent request
   fails fast instead.  A CRC-valid frame whose payload merely fails
   to decode leaves the stream aligned, so that case keeps the
   connection. *)
let request ?deadline t req =
  if t.closed then Error Closed
  else begin
    (match deadline with
    | Some d when d <> t.deadline -> (
      t.deadline <- d;
      try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO d
      with Unix.Unix_error _ -> ())
    | _ -> ());
    let broken err =
      close t;
      Error err
    in
    let framed =
      P.Wire.frame_with t.scratch
        (fun b req ->
          P.Resp.encode_request b req;
          if t.spans then begin
            t.span_seq <- t.span_seq + 1;
            let span = (t.span_tag * 0x100000000) + t.span_seq in
            t.last_span <- Some span;
            P.Wire.put_int b span
          end)
        req
    in
    match Protocol.write_all t.fd framed with
    | exception Unix.Unix_error (err, _, _) -> broken (error_of_unix err)
    | () -> (
      match Protocol.recv_frame t.fd with
      | exception Unix.Unix_error (err, _, _) -> broken (error_of_unix err)
      | Protocol.Eof -> broken (Transport "server closed the connection")
      | Protocol.Bad reason ->
        (* a peer dying mid-frame is the connection failing, not the
           protocol being violated *)
        if String.length reason >= 11 && String.sub reason 0 11 = "peer closed"
        then broken (Transport ("server closed mid-frame: " ^ reason))
        else broken (Protocol ("bad response frame: " ^ reason))
      | Protocol.Frame payload -> (
        match P.Resp.decode_string payload with
        | Ok resp -> Ok resp
        | Error e -> Error (Protocol e)))
  end

let digest t =
  match request t P.Resp.Get_digest with
  | Ok (P.Resp.Digest_is d) -> Ok d
  | Ok resp ->
    Error (Protocol (Format.asprintf "unexpected response: %a" P.Resp.pp resp))
  | Error _ as e -> e

let stats_json t =
  match request t P.Resp.Get_stats with
  | Ok (P.Resp.Stats_json s) -> Ok s
  | Ok resp ->
    Error (Protocol (Format.asprintf "unexpected response: %a" P.Resp.pp resp))
  | Error _ as e -> e

let promote t =
  match request t P.Resp.Promote with
  | Ok (P.Resp.Promoted { seq }) -> Ok seq
  | Ok (P.Resp.Server_error e) -> Error (Protocol e)
  | Ok resp ->
    Error (Protocol (Format.asprintf "unexpected response: %a" P.Resp.pp resp))
  | Error _ as e -> e

(* Pipelining: many requests in one [Batch] frame, one [Batch_reply]
   back — one syscall round-trip instead of [n].  An answer of the
   wrong shape or arity desynchronizes request/response pairing the
   same way a torn frame does, so it closes the client. *)
let request_batch ?deadline t reqs =
  match reqs with
  | [] -> Ok []
  | _ when List.length reqs > P.Resp.max_batch ->
    Error
      (Protocol
         (Printf.sprintf "batch of %d exceeds the wire limit of %d"
            (List.length reqs) P.Resp.max_batch))
  | _ -> (
    match request ?deadline t (P.Resp.Batch reqs) with
    | Ok (P.Resp.Batch_reply rs) when List.length rs = List.length reqs -> Ok rs
    | Ok (P.Resp.Batch_reply rs) ->
      close t;
      Error
        (Protocol
           (Printf.sprintf "batch reply arity %d for %d requests"
              (List.length rs) (List.length reqs)))
    | Ok resp ->
      close t;
      Error
        (Protocol (Format.asprintf "unexpected batch response: %a" P.Resp.pp resp))
    | Error _ as e -> e)

let churn_sut ?on_admit t =
  P.Resp.churn_sut ?on_admit (fun req ->
      match request t req with
      | Ok resp -> resp
      | Error e -> failwith ("Client.churn_sut: " ^ error_to_string e))

(* The pipelined sut keeps the op order a sequential client would
   produce: disconnects are buffered, and any buffered run is flushed
   in the same [Batch] immediately {e before} the next connect — the
   server executes sub-requests in order, so state digests come out
   identical to the one-request-at-a-time path.  Only connects need
   their answers synchronously (the generator routes future disconnects
   by the returned id); disconnects' answers are checked at flush. *)
let churn_sut_pipelined ?on_admit ?(depth = 64) t =
  if depth < 1 then invalid_arg "Client.churn_sut_pipelined: depth must be >= 1";
  let depth = min depth (P.Resp.max_batch - 1) in
  let pending = ref [] (* buffered disconnects, newest first *) in
  let npending = ref 0 in
  let flush_with extra =
    let reqs = List.rev_append !pending extra in
    pending := [];
    npending := 0;
    if reqs = [] then []
    else
      match request_batch t reqs with
      | Ok rs -> rs
      | Error e -> failwith ("Client.churn_sut_pipelined: " ^ error_to_string e)
  in
  let flush () = List.iter P.Resp.released (flush_with []) in
  (* a connect carries the buffered disconnects ahead of it *)
  let exec req =
    match List.rev (flush_with [ req ]) with
    | [] -> assert false
    | last :: released_rev ->
      List.iter P.Resp.released released_rev;
      last
  in
  let sut =
    {
      (P.Resp.churn_sut ?on_admit exec) with
      Wdm_traffic.Churn.disconnect =
        (fun id ->
          pending := P.Resp.Admit (P.Op.Disconnect id) :: !pending;
          incr npending;
          if !npending >= depth then flush ());
    }
  in
  (sut, flush)
