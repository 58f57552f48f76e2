module Network = Wdm_multistage.Network
module P = Wdm_persist

type t = {
  mutable addrs : Server.address list;  (** head = the one to try next *)
  dial_timeout : float;
  deadline : float;
  max_attempts : int;
  backoff_floor : float;
  backoff_cap : float;
  mutable conn : Client.t option;
  mutable closed : bool;
  mutable reconnects : int;
}

let create ?(dial_timeout = 2.0) ?(deadline = 10.0) ?(max_attempts = 12)
    ?(backoff = 0.05) ?(backoff_cap = 2.0) addrs =
  if addrs = [] then invalid_arg "Resilient.create: no addresses";
  if max_attempts < 1 then
    invalid_arg "Resilient.create: max_attempts must be >= 1";
  {
    addrs;
    dial_timeout;
    deadline;
    max_attempts;
    backoff_floor = backoff;
    backoff_cap;
    conn = None;
    closed = false;
    reconnects = 0;
  }

let reconnects t = t.reconnects

let close t =
  t.closed <- true;
  Option.iter Client.close t.conn;
  t.conn <- None

let rotate t =
  match t.addrs with [] -> () | a :: rest -> t.addrs <- rest @ [ a ]

let drop_conn t =
  Option.iter Client.close t.conn;
  t.conn <- None

(* One dial attempt against the current head address. *)
let ensure_conn t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
    match
      Client.connect ~dial_timeout:t.dial_timeout ~deadline:t.deadline
        (List.hd t.addrs)
    with
    | Ok c ->
      t.conn <- Some c;
      Ok c
    | Error e -> Error e)

(* Every failure mode funnels here: drop the connection, move to the
   next address, sleep the (capped, doubling) backoff.  Rotating on
   every retry is what turns "the leader died" into "found the
   promoted follower" without any discovery machinery. *)
let retry t ~backoff =
  drop_conn t;
  rotate t;
  t.reconnects <- t.reconnects + 1;
  Thread.delay !backoff;
  backoff := min t.backoff_cap (!backoff *. 2.)

let request t req =
  if t.closed then Error Client.Closed
  else begin
    let backoff = ref t.backoff_floor in
    let attempts = ref 0 in
    let result = ref None in
    while !result = None && !attempts < t.max_attempts do
      incr attempts;
      match ensure_conn t with
      | Error e ->
        if !attempts >= t.max_attempts then result := Some (Error e)
        else retry t ~backoff
      | Ok c -> (
        match Client.request c req with
        | Ok (P.Resp.Not_leader _) ->
          (* answered, but by a follower: the leader is elsewhere —
             possibly not promoted yet, so this also backs off *)
          if !attempts >= t.max_attempts then
            result := Some (Error (Client.Transport "no leader found"))
          else retry t ~backoff
        | Ok _ as ok -> result := Some ok
        | Error Client.Closed ->
          (* stale handle from a previous failure *)
          drop_conn t
        | Error e ->
          if !attempts >= t.max_attempts then result := Some (Error e)
          else retry t ~backoff)
    done;
    match !result with
    | Some r -> r
    | None -> Error (Client.Transport "retries exhausted")
  end

let digest t =
  match request t P.Resp.Get_digest with
  | Ok (P.Resp.Digest_is d) -> Ok d
  | Ok resp ->
    Error
      (Client.Protocol (Format.asprintf "unexpected response: %a" P.Resp.pp resp))
  | Error _ as e -> e

let churn_sut ?on_admit t =
  P.Resp.churn_sut ?on_admit (fun req ->
      match request t req with
      | Ok resp -> resp
      | Error e ->
        failwith ("Resilient.churn_sut: " ^ Client.error_to_string e))
