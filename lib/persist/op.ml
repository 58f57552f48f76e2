open Wdm_core
module Fault = Wdm_faults.Fault
module Network = Wdm_multistage.Network

type t =
  | Connect of Connection.t
  | Disconnect of int
  | Inject_fault of Fault.t
  | Clear_fault of Fault.t
  | Repair of { connection : Connection.t; rehomed : bool }

let equal a b =
  match (a, b) with
  | Connect c1, Connect c2 -> Connection.equal c1 c2
  | Disconnect i1, Disconnect i2 -> i1 = i2
  | Inject_fault f1, Inject_fault f2 | Clear_fault f1, Clear_fault f2 ->
    Fault.equal f1 f2
  | Repair r1, Repair r2 ->
    Connection.equal r1.connection r2.connection && r1.rehomed = r2.rehomed
  | _ -> false

let pp ppf = function
  | Connect c -> Format.fprintf ppf "connect %a" Connection.pp c
  | Disconnect id -> Format.fprintf ppf "disconnect %d" id
  | Inject_fault f -> Format.fprintf ppf "inject %a" Fault.pp f
  | Clear_fault f -> Format.fprintf ppf "clear %a" Fault.pp f
  | Repair { connection; rehomed } ->
    Format.fprintf ppf "repair(%s) %a"
      (if rehomed then "rehomed" else "dropped")
      Connection.pp connection

(* ----- encoding -------------------------------------------------------- *)

let put_endpoint b (e : Endpoint.t) =
  Wire.put_u32 b e.port;
  Wire.put_u32 b e.wl

let put_connection b (c : Connection.t) =
  put_endpoint b c.source;
  Wire.put_u32 b (List.length c.destinations);
  List.iter (put_endpoint b) c.destinations

let put_fault b = function
  | Fault.Middle j ->
    Wire.put_u8 b 1;
    Wire.put_u32 b j
  | Fault.Input_module i ->
    Wire.put_u8 b 2;
    Wire.put_u32 b i
  | Fault.Output_module p ->
    Wire.put_u8 b 3;
    Wire.put_u32 b p
  | Fault.Stage1_laser { input; middle; wl } ->
    Wire.put_u8 b 4;
    Wire.put_u32 b input;
    Wire.put_u32 b middle;
    Wire.put_u32 b wl
  | Fault.Stage2_laser { middle; output; wl } ->
    Wire.put_u8 b 5;
    Wire.put_u32 b middle;
    Wire.put_u32 b output;
    Wire.put_u32 b wl
  | Fault.Converter { middle; output } ->
    Wire.put_u8 b 6;
    Wire.put_u32 b middle;
    Wire.put_u32 b output

let encode b = function
  | Connect c ->
    Wire.put_u8 b 1;
    put_connection b c
  | Disconnect id ->
    Wire.put_u8 b 2;
    Wire.put_int b id
  | Inject_fault f ->
    Wire.put_u8 b 3;
    put_fault b f
  | Clear_fault f ->
    Wire.put_u8 b 4;
    put_fault b f
  | Repair { connection; rehomed } ->
    Wire.put_u8 b 5;
    Wire.put_u8 b (if rehomed then 1 else 0);
    put_connection b connection

(* ----- decoding -------------------------------------------------------- *)

let fail (r : Wire.reader) reason =
  raise (Wire.Decode_error { offset = r.Wire.pos; reason })

let get_endpoint r =
  let port = Wire.get_u32 r in
  let wl = Wire.get_u32 r in
  Endpoint.make ~port ~wl

let get_connection r =
  let source = get_endpoint r in
  let n = Wire.get_u32 r in
  if n = 0 || n > 0xffff then fail r "implausible destination count";
  let destinations = List.init n (fun _ -> get_endpoint r) in
  match Connection.make ~source ~destinations with
  | Ok c -> c
  | Error _ -> fail r "structurally invalid connection"

let get_fault r =
  match Wire.get_u8 r with
  | 1 -> Fault.Middle (Wire.get_u32 r)
  | 2 -> Fault.Input_module (Wire.get_u32 r)
  | 3 -> Fault.Output_module (Wire.get_u32 r)
  | 4 ->
    let input = Wire.get_u32 r in
    let middle = Wire.get_u32 r in
    let wl = Wire.get_u32 r in
    Fault.Stage1_laser { input; middle; wl }
  | 5 ->
    let middle = Wire.get_u32 r in
    let output = Wire.get_u32 r in
    let wl = Wire.get_u32 r in
    Fault.Stage2_laser { middle; output; wl }
  | 6 ->
    let middle = Wire.get_u32 r in
    let output = Wire.get_u32 r in
    Fault.Converter { middle; output }
  | tag -> fail r (Printf.sprintf "unknown fault tag %d" tag)

let decode r =
  match Wire.get_u8 r with
  | 1 -> Connect (get_connection r)
  | 2 -> Disconnect (Wire.get_int r)
  | 3 -> Inject_fault (get_fault r)
  | 4 -> Clear_fault (get_fault r)
  | 5 ->
    let rehomed =
      match Wire.get_u8 r with
      | 0 -> false
      | 1 -> true
      | _ -> fail r "bad repair outcome"
    in
    let connection = get_connection r in
    Repair { connection; rehomed }
  | tag -> fail r (Printf.sprintf "unknown op tag %d" tag)

let encode_connection = put_connection
let decode_connection = get_connection
let encode_fault = put_fault
let decode_fault = get_fault
let encode_endpoint = put_endpoint
let decode_endpoint = get_endpoint

let decode_string s =
  let r = Wire.reader s in
  match
    let op = decode r in
    Wire.expect_end r;
    op
  with
  | op -> Ok op
  | exception Wire.Decode_error { offset; reason } ->
    Error (Printf.sprintf "%s at payload offset %d" reason offset)

let route_checksum acc (route : Network.route) =
  List.fold_left
    (fun acc (h : Network.hop) ->
      (acc * 131)
      lxor (route.Network.id + (31 * h.Network.middle)
           + (7 * h.Network.stage1_wl)
           + List.fold_left (fun a (o, w) -> a + (o * 13) + w) 0 h.Network.serves))
    acc route.Network.hops
