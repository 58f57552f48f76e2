open Wdm_core
module Network = Wdm_multistage.Network
module Fault = Wdm_faults.Fault

(* ----- requests -------------------------------------------------------- *)

(* Control tags live at the top of the byte range so the op vocabulary
   (tags 1-5) can keep growing underneath them. *)
let tag_digest = 0xF1
let tag_stats = 0xF2
let tag_promote = 0xF3
let tag_batch = 0xF4
let max_batch = 4096

type request =
  | Admit of Op.t
  | Get_digest
  | Get_stats
  | Promote
  | Batch of request list

let rec encode_request b = function
  | Admit op -> Op.encode b op
  | Get_digest -> Wire.put_u8 b tag_digest
  | Get_stats -> Wire.put_u8 b tag_stats
  | Promote -> Wire.put_u8 b tag_promote
  | Batch reqs ->
    let n = List.length reqs in
    if n > max_batch then invalid_arg "Resp.encode_request: batch too large";
    if List.exists (function Batch _ -> true | _ -> false) reqs then
      invalid_arg "Resp.encode_request: nested batch";
    Wire.put_u8 b tag_batch;
    Wire.put_u32 b n;
    List.iter (encode_request b) reqs

(* [depth] forbids Batch-in-Batch: one level of pipelining is the whole
   contract, and rejecting nesting at decode keeps the server's
   execution loop flat and the response arity obvious. *)
let rec decode_request_at ~depth r =
  (* peek: ops read their own tag byte *)
  if r.Wire.pos >= String.length r.Wire.src then
    raise (Wire.Decode_error { offset = r.Wire.pos; reason = "empty request" });
  let tag = Char.code r.Wire.src.[r.Wire.pos] in
  if tag = tag_digest then (
    r.Wire.pos <- r.Wire.pos + 1;
    Get_digest)
  else if tag = tag_stats then (
    r.Wire.pos <- r.Wire.pos + 1;
    Get_stats)
  else if tag = tag_promote then (
    r.Wire.pos <- r.Wire.pos + 1;
    Promote)
  else if tag = tag_batch then begin
    if depth > 0 then
      raise (Wire.Decode_error { offset = r.Wire.pos; reason = "nested batch" });
    r.Wire.pos <- r.Wire.pos + 1;
    let n = Wire.get_u32 r in
    if n > max_batch then
      raise
        (Wire.Decode_error
           { offset = r.Wire.pos;
             reason = Printf.sprintf "implausible batch size %d" n });
    Batch (List.init n (fun _ -> decode_request_at ~depth:(depth + 1) r))
  end
  else Admit (Op.decode r)

let decode_request r = decode_request_at ~depth:0 r

(* ----- responses ------------------------------------------------------- *)

type t =
  | Admitted of { route : Network.route; moved : int }
  | Refused of Network.error
  | Released of Network.route
  | Release_failed of Network.disconnect_error
  | Fault_applied of { torn_down : int }
  | Fault_cleared
  | Digest_is of int
  | Stats_json of string
  | Server_error of string
  | Not_leader of { leader : string }
  | Promoted of { seq : int }
  | Batch_reply of t list
      (** one response per request of a {!Batch}, in request order *)

let fail (r : Wire.reader) reason =
  raise (Wire.Decode_error { offset = r.Wire.pos; reason })

let put_string b s =
  Wire.put_u32 b (String.length s);
  Buffer.add_string b s

let get_string r =
  let n = Wire.get_u32 r in
  if n > Wire.max_payload then fail r "implausible string length";
  if r.Wire.pos + n > String.length r.Wire.src then fail r "truncated string";
  let s = String.sub r.Wire.src r.Wire.pos n in
  r.Wire.pos <- r.Wire.pos + n;
  s

let put_int_list b l =
  Wire.put_u32 b (List.length l);
  List.iter (Wire.put_u32 b) l

let get_int_list r =
  let n = Wire.get_u32 r in
  if n > 0xffff then fail r "implausible list length";
  List.init n (fun _ -> Wire.get_u32 r)

let model_tag = function Model.MSW -> 0 | Model.MSDW -> 1 | Model.MAW -> 2

let get_model r =
  match Wire.get_u8 r with
  | 0 -> Model.MSW
  | 1 -> Model.MSDW
  | 2 -> Model.MAW
  | tag -> fail r (Printf.sprintf "unknown model tag %d" tag)

let put_assignment_error b = function
  | Assignment.Source_reused e ->
    Wire.put_u8 b 0;
    Op.encode_endpoint b e
  | Assignment.Destination_reused e ->
    Wire.put_u8 b 1;
    Op.encode_endpoint b e
  | Assignment.Source_out_of_range e ->
    Wire.put_u8 b 2;
    Op.encode_endpoint b e
  | Assignment.Destination_out_of_range e ->
    Wire.put_u8 b 3;
    Op.encode_endpoint b e
  | Assignment.Model_violation { model; connection } ->
    Wire.put_u8 b 4;
    Wire.put_u8 b (model_tag model);
    Op.encode_connection b connection

let get_assignment_error r =
  match Wire.get_u8 r with
  | 0 -> Assignment.Source_reused (Op.decode_endpoint r)
  | 1 -> Assignment.Destination_reused (Op.decode_endpoint r)
  | 2 -> Assignment.Source_out_of_range (Op.decode_endpoint r)
  | 3 -> Assignment.Destination_out_of_range (Op.decode_endpoint r)
  | 4 ->
    let model = get_model r in
    let connection = Op.decode_connection r in
    Assignment.Model_violation { model; connection }
  | tag -> fail r (Printf.sprintf "unknown assignment error tag %d" tag)

let put_error b = function
  | Network.Invalid e ->
    Wire.put_u8 b 0;
    put_assignment_error b e
  | Network.Source_busy e ->
    Wire.put_u8 b 1;
    Op.encode_endpoint b e
  | Network.Destination_busy e ->
    Wire.put_u8 b 2;
    Op.encode_endpoint b e
  | Network.Unserviceable f ->
    Wire.put_u8 b 3;
    Op.encode_fault b f
  | Network.Blocked { fanout_switches; available_middles; uncovered } ->
    Wire.put_u8 b 4;
    put_int_list b fanout_switches;
    put_int_list b available_middles;
    put_int_list b uncovered

let get_error r =
  match Wire.get_u8 r with
  | 0 -> Network.Invalid (get_assignment_error r)
  | 1 -> Network.Source_busy (Op.decode_endpoint r)
  | 2 -> Network.Destination_busy (Op.decode_endpoint r)
  | 3 -> Network.Unserviceable (Op.decode_fault r)
  | 4 ->
    let fanout_switches = get_int_list r in
    let available_middles = get_int_list r in
    let uncovered = get_int_list r in
    Network.Blocked { fanout_switches; available_middles; uncovered }
  | tag -> fail r (Printf.sprintf "unknown error tag %d" tag)

let rec encode b = function
  | Admitted { route; moved } ->
    Wire.put_u8 b 1;
    Wire.put_u32 b moved;
    Backend.encode_route b route
  | Refused e ->
    Wire.put_u8 b 2;
    put_error b e
  | Released route ->
    Wire.put_u8 b 3;
    Backend.encode_route b route
  | Release_failed e ->
    Wire.put_u8 b 4;
    (match e with
    | Network.Unknown_route id ->
      Wire.put_u8 b 0;
      Wire.put_int b id
    | Network.Already_released id ->
      Wire.put_u8 b 1;
      Wire.put_int b id)
  | Fault_applied { torn_down } ->
    Wire.put_u8 b 5;
    Wire.put_u32 b torn_down
  | Fault_cleared -> Wire.put_u8 b 6
  | Digest_is d ->
    Wire.put_u8 b 7;
    Wire.put_int b d
  | Stats_json s ->
    Wire.put_u8 b 8;
    put_string b s
  | Server_error s ->
    Wire.put_u8 b 9;
    put_string b s
  | Not_leader { leader } ->
    Wire.put_u8 b 10;
    put_string b leader
  | Promoted { seq } ->
    Wire.put_u8 b 11;
    Wire.put_int b seq
  | Batch_reply resps ->
    let n = List.length resps in
    if n > max_batch then invalid_arg "Resp.encode: batch reply too large";
    if List.exists (function Batch_reply _ -> true | _ -> false) resps then
      invalid_arg "Resp.encode: nested batch reply";
    Wire.put_u8 b 12;
    Wire.put_u32 b n;
    List.iter (encode b) resps

let rec decode_at ~depth r =
  match Wire.get_u8 r with
  | 1 ->
    let moved = Wire.get_u32 r in
    let route = Backend.decode_route r in
    Admitted { route; moved }
  | 2 -> Refused (get_error r)
  | 3 -> Released (Backend.decode_route r)
  | 4 -> (
    match Wire.get_u8 r with
    | 0 -> Release_failed (Network.Unknown_route (Wire.get_int r))
    | 1 -> Release_failed (Network.Already_released (Wire.get_int r))
    | tag -> fail r (Printf.sprintf "unknown disconnect error tag %d" tag))
  | 5 -> Fault_applied { torn_down = Wire.get_u32 r }
  | 6 -> Fault_cleared
  | 7 -> Digest_is (Wire.get_int r)
  | 8 -> Stats_json (get_string r)
  | 9 -> Server_error (get_string r)
  | 10 -> Not_leader { leader = get_string r }
  | 11 -> Promoted { seq = Wire.get_int r }
  | 12 ->
    if depth > 0 then fail r "nested batch reply";
    let n = Wire.get_u32 r in
    if n > max_batch then fail r (Printf.sprintf "implausible batch size %d" n);
    Batch_reply (List.init n (fun _ -> decode_at ~depth:(depth + 1) r))
  | tag -> fail r (Printf.sprintf "unknown response tag %d" tag)

let decode r = decode_at ~depth:0 r

let decode_string s =
  let r = Wire.reader s in
  match
    let resp = decode r in
    Wire.expect_end r;
    resp
  with
  | resp -> Ok resp
  | exception Wire.Decode_error { offset; reason } ->
    Error (Printf.sprintf "%s at payload offset %d" reason offset)

let rec equal a b =
  match (a, b) with
  | Admitted a, Admitted b -> a.moved = b.moved && a.route = b.route
  | Refused a, Refused b -> a = b
  | Released a, Released b -> a = b
  | Release_failed a, Release_failed b -> a = b
  | Fault_applied a, Fault_applied b -> a.torn_down = b.torn_down
  | Fault_cleared, Fault_cleared -> true
  | Digest_is a, Digest_is b -> a = b
  | Stats_json a, Stats_json b | Server_error a, Server_error b -> a = b
  | Not_leader a, Not_leader b -> a.leader = b.leader
  | Promoted a, Promoted b -> a.seq = b.seq
  | Batch_reply a, Batch_reply b ->
    List.length a = List.length b && List.for_all2 equal a b
  | _ -> false

let rec pp ppf = function
  | Admitted { route; moved } ->
    Format.fprintf ppf "admitted(moved %d) %a" moved Network.pp_route route
  | Refused e -> Format.fprintf ppf "refused: %a" Network.pp_error e
  | Released route -> Format.fprintf ppf "released %a" Network.pp_route route
  | Release_failed e ->
    Format.fprintf ppf "release failed: %a" Network.pp_disconnect_error e
  | Fault_applied { torn_down } ->
    Format.fprintf ppf "fault applied, %d routes torn down" torn_down
  | Fault_cleared -> Format.pp_print_string ppf "fault cleared"
  | Digest_is d -> Format.fprintf ppf "digest %d" d
  | Stats_json s -> Format.fprintf ppf "stats %s" s
  | Server_error s -> Format.fprintf ppf "server error: %s" s
  | Not_leader { leader } ->
    Format.fprintf ppf "not the leader%s"
      (if leader = "" then "" else " (try " ^ leader ^ ")")
  | Promoted { seq } -> Format.fprintf ppf "promoted at seq %d" seq
  | Batch_reply resps ->
    Format.fprintf ppf "batch(%d):@ [%a]" (List.length resps)
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
      resps

(* ----- execution ------------------------------------------------------- *)

let rec execute_backend ?(stats = fun () -> "{}") backend = function
  | Batch reqs -> Batch_reply (List.map (execute_backend ~stats backend) reqs)
  | Get_digest -> Digest_is (Backend.digest backend)
  | Get_stats -> Stats_json (stats ())
  (* Promotion is a server-role concern; a bare network has no role to
     change, and the server intercepts the request before execute. *)
  | Promote -> Server_error "promotion is handled by the server"
  | Admit op -> (
    match (backend, op) with
    | Backend.Net net, Op.Connect c -> (
      match Network.connect net c with
      | Ok route -> Admitted { route; moved = 0 }
      | Error e -> Refused e)
    | Backend.Net net, Op.Repair { connection; rehomed = _ } -> (
      match Network.connect_rearrangeable net connection with
      | Ok (route, moved) -> Admitted { route; moved }
      | Error e -> Refused e)
    | Backend.Net net, Op.Disconnect id -> (
      match Network.disconnect net id with
      | Ok route -> Released route
      | Error e -> Release_failed e)
    | Backend.Net net, Op.Inject_fault f -> (
      match Network.inject_fault net f with
      | victims -> Fault_applied { torn_down = List.length victims }
      | exception Invalid_argument e -> Server_error e)
    | Backend.Net net, Op.Clear_fault f -> (
      match Network.clear_fault net f with
      | () -> Fault_cleared
      | exception Invalid_argument e -> Server_error e)
    (* no rearrangement pass on a mesh: a repair is a fresh admit *)
    | Backend.Mesh net, (Op.Connect connection | Op.Repair { connection; _ })
      -> (
      match Backend.Mesh.connect net connection with
      | Ok route ->
        Admitted { route = Backend.net_route_of_mesh route; moved = 0 }
      | Error e -> Refused (Backend.net_error_of_mesh e))
    | Backend.Mesh net, Op.Disconnect id -> (
      match Backend.Mesh.disconnect net id with
      | Ok route -> Released (Backend.net_route_of_mesh route)
      | Error e -> Release_failed (Backend.net_disconnect_error_of_mesh e))
    | Backend.Mesh _, (Op.Inject_fault _ | Op.Clear_fault _) ->
      (* answered but never committed, so a mesh WAL stays replayable *)
      Server_error "mesh backend does not support fault ops")

let committed req resp =
  match (req, resp) with
  | Admit (Op.Repair { connection; _ }), (Admitted _ | Refused _) ->
    let rehomed = match resp with Admitted _ -> true | _ -> false in
    Some (Op.Repair { connection; rehomed })
  | ( Admit op,
      (Admitted _ | Refused _ | Released _ | Fault_applied _ | Fault_cleared) )
    ->
    Some op
  | _ -> None

let unexpected resp =
  failwith (Format.asprintf "churn driver: unexpected response: %a" pp resp)

let admitted = function
  | Admitted { route; _ } -> Ok route
  | Refused e -> Error e
  | resp -> unexpected resp

let released = function Released _ -> () | resp -> unexpected resp

let churn_sut ?(on_admit = fun _ -> ()) exec =
  {
    Wdm_traffic.Churn.connect =
      (fun c ->
        Result.map
          (fun route ->
            on_admit route;
            route.Network.id)
          (admitted (exec (Admit (Op.Connect c)))));
    disconnect = (fun id -> released (exec (Admit (Op.Disconnect id))));
  }

let replay backend op =
  let resp = execute_backend backend (Admit op) in
  match committed (Admit op) resp with
  | Some replayed when Op.equal replayed op -> Ok ()
  | Some replayed ->
    Error
      (Format.asprintf "replay diverged: recorded %a, replayed %a" Op.pp op
         Op.pp replayed)
  | None ->
    Error
      (match resp with
      | Release_failed e -> Network.Error.disconnect_to_string e
      | Server_error e -> e
      | resp -> Format.asprintf "%a" pp resp)
