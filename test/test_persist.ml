(* Tests for the persistence layer: the wire primitives and CRC
   framing, the op and snapshot codecs (round-trips, rejection of
   malformed input), WAL write/read/tear/corruption classification, and
   the snapshot/restore contract on the network itself. *)

open Wdm_core
open Wdm_multistage
module P = Wdm_persist
module Fault = Wdm_faults.Fault
module Mesh = Wdm_mesh.Mesh_network

let ep port wl = Endpoint.make ~port ~wl
let conn src dests = Connection.make_exn ~source:src ~destinations:dests

(* --- crc32 --------------------------------------------------------------- *)

(* CRC-32 one bit at a time (IEEE, reflected polynomial 0xEDB88320):
   the reference the table-driven [Crc32] is checked against. *)
let crc32_bitwise crc s ~pos ~len =
  let c = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xedb88320 else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

let random_string rng n =
  String.init n (fun _ -> Char.chr (Random.State.int rng 256))

let test_crc32_known () =
  (* the classic check value for CRC-32/ISO-HDLC *)
  Alcotest.(check int) "check string" 0xcbf43926 (P.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (P.Crc32.string "")

let test_crc32_compose () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = P.Crc32.string s in
  let split =
    P.Crc32.update (P.Crc32.update 0 s ~pos:0 ~len:20) s ~pos:20
      ~len:(String.length s - 20)
  in
  Alcotest.(check int) "incremental = one-shot" whole split

(* Every length through 64 (the 8-byte loop's tails and its first few
   rounds) at every start offset 0..7, then random ranges of strings up
   to 64 KiB, one-shot and chained over random split points. *)
let test_crc32_matches_bitwise () =
  let rng = Random.State.make [| 32 |] in
  let check what s ~pos ~len =
    Alcotest.(check int) what
      (crc32_bitwise 0 s ~pos ~len)
      (P.Crc32.update 0 s ~pos ~len)
  in
  for len = 0 to 64 do
    let s = random_string rng (len + 8) in
    for pos = 0 to 7 do
      check (Printf.sprintf "len %d pos %d" len pos) s ~pos ~len
    done
  done;
  for i = 1 to 200 do
    let s = random_string rng (1 + Random.State.int rng 65536) in
    let n = String.length s in
    let pos = Random.State.int rng n in
    let len = Random.State.int rng (n - pos + 1) in
    check (Printf.sprintf "random %d" i) s ~pos ~len;
    (* chained over random split points of the same range *)
    let cuts =
      List.sort compare
        (List.init 3 (fun _ -> pos + Random.State.int rng (len + 1)))
    in
    let crc, last =
      List.fold_left
        (fun (crc, at) cut ->
          (P.Crc32.update crc s ~pos:at ~len:(cut - at), cut))
        (0, pos) cuts
    in
    Alcotest.(check int) (Printf.sprintf "chained %d" i)
      (crc32_bitwise 0 s ~pos ~len)
      (P.Crc32.update crc s ~pos:last ~len:(pos + len - last))
  done;
  Alcotest.check_raises "range"
    (Invalid_argument "Crc32.update: range out of bounds")
    (fun () -> ignore (P.Crc32.update 0 "abc" ~pos:2 ~len:2))

(* --- wire ---------------------------------------------------------------- *)

let test_wire_ints () =
  let roundtrip put get v =
    let b = Buffer.create 16 in
    put b v;
    let r = P.Wire.reader (Buffer.contents b) in
    let v' = get r in
    P.Wire.expect_end r;
    Alcotest.(check int) (Printf.sprintf "roundtrip %d" v) v v'
  in
  List.iter (roundtrip P.Wire.put_u8 P.Wire.get_u8) [ 0; 1; 127; 255 ];
  List.iter (roundtrip P.Wire.put_u32 P.Wire.get_u32) [ 0; 1; 0xffff; 0xffffffff ];
  List.iter
    (roundtrip P.Wire.put_int P.Wire.get_int)
    [ 0; 1; -1; 42; -42; (1 lsl 55) - 1; -(1 lsl 55) + 1 ];
  let rejects put v =
    Alcotest.check_raises
      (Printf.sprintf "rejects %d" v)
      (Invalid_argument "Wire.put_u32: out of range")
      (fun () -> put (Buffer.create 4) v)
  in
  rejects P.Wire.put_u32 (-1);
  rejects P.Wire.put_u32 0x100000000;
  Alcotest.(check bool) "put_int rejects 2^55" true
    (try
       P.Wire.put_int (Buffer.create 8) (1 lsl 55);
       false
     with Invalid_argument _ -> true)

(* Byte-by-byte references for the fixed-width codec: little-endian,
   an int as 8 sign-extended bytes. *)
let le_bytes ~width v =
  String.init width (fun i -> Char.chr ((v asr (8 * i)) land 0xff))

let le_value s =
  let v = ref 0 in
  for i = String.length s - 1 downto 0 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  !v

let test_wire_matches_reference () =
  let rng = Random.State.make [| 55 |] in
  let limit = (1 lsl 55) - 1 in
  let random_int () =
    let v = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
    (v land limit) * if Random.State.bool rng then 1 else -1
  in
  let cases put get ~width ~decode values =
    List.iter
      (fun v ->
        let b = Buffer.create 1 in
        Buffer.add_char b '!';
        put b v;
        let s = Buffer.contents b in
        let what = Printf.sprintf "%d-byte %d" width v in
        Alcotest.(check string) what ("!" ^ le_bytes ~width v) s;
        let r = P.Wire.reader ~pos:1 s in
        Alcotest.(check int) (what ^ " reads back")
          (decode (String.sub s 1 width))
          (get r);
        Alcotest.(check int) (what ^ " advances") (1 + width) r.P.Wire.pos)
      values
  in
  let randoms f = List.init 1000 (fun _ -> f ()) in
  cases P.Wire.put_u8 P.Wire.get_u8 ~width:1 ~decode:le_value
    ([ 0; 1; 127; 128; 255 ] @ randoms (fun () -> Random.State.int rng 256));
  cases P.Wire.put_u32 P.Wire.get_u32 ~width:4 ~decode:le_value
    ([ 0; 1; 0x7fffffff; 0x80000000; 0xffffffff ]
    @ randoms (fun () ->
          Random.State.bits rng lor ((Random.State.bits rng land 3) lsl 30)));
  let sign_extend s =
    let v = le_value s in
    if Char.code s.[7] >= 0x80 then v lor (-1 lsl 56) else v
  in
  cases P.Wire.put_int P.Wire.get_int ~width:8 ~decode:sign_extend
    ([ 0; 1; -1; limit; -limit ] @ randoms random_int);
  (* just outside the bounds *)
  let rejects name put v =
    Alcotest.check_raises
      (Printf.sprintf "%s %d" name v)
      (Invalid_argument (Printf.sprintf "Wire.%s: out of range" name))
      (fun () -> put (Buffer.create 8) v)
  in
  rejects "put_u8" P.Wire.put_u8 (-1);
  rejects "put_u8" P.Wire.put_u8 256;
  rejects "put_u32" P.Wire.put_u32 (-1);
  rejects "put_u32" P.Wire.put_u32 0x100000000;
  rejects "put_int" P.Wire.put_int (limit + 1);
  rejects "put_int" P.Wire.put_int (-limit - 1);
  let decode_error what ~offset ~reason f =
    match f () with
    | _ -> Alcotest.failf "%s: decoded" what
    | exception P.Wire.Decode_error e ->
      Alcotest.(check (pair int string))
        what (offset, reason) (e.offset, e.reason)
  in
  List.iter
    (fun (name, get, width) ->
      decode_error (name ^ " one byte short") ~offset:2
        ~reason:"truncated value"
        (fun () -> get (P.Wire.reader ~pos:2 (String.make (width + 1) '\xff'))))
    [ ("get_u8", P.Wire.get_u8, 1); ("get_u32", P.Wire.get_u32, 4);
      ("get_int", P.Wire.get_int, 8) ];
  List.iter
    (fun top ->
      decode_error
        (Printf.sprintf "get_int top byte %02x" top)
        ~offset:1 ~reason:"int out of range"
        (fun () ->
          P.Wire.get_int
            (P.Wire.reader ~pos:1
               ("?" ^ String.make 7 '\000' ^ String.make 1 (Char.chr top)))))
    [ 0x01; 0x7f; 0x80; 0xfe ]

(* The parent's framing, byte by byte: length, CRC, payload. *)
let reference_frame payload =
  le_bytes ~width:4 (String.length payload)
  ^ le_bytes ~width:4
      (crc32_bitwise 0 payload ~pos:0 ~len:(String.length payload))
  ^ payload

(* [frame_with] on a reused scratch buffer frames exactly as a fresh
   one, also right after the scratch held a larger frame (below and
   above the 64 KiB reset) and after a reset. *)
let test_frame_with_matches_reference () =
  let rng = Random.State.make [| 8 |] in
  let scratch = Buffer.create 16 in
  let frame what payload =
    Alcotest.(check string) what (reference_frame payload)
      (P.Wire.frame_with scratch Buffer.add_string payload);
    Alcotest.(check string) (what ^ " (Wire.frame)") (reference_frame payload)
      (P.Wire.frame payload)
  in
  for i = 1 to 100 do
    frame (Printf.sprintf "random %d" i)
      (random_string rng (Random.State.int rng 3000))
  done;
  frame "large" (random_string rng 50_000);
  frame "after a larger frame" (random_string rng 700);
  frame "past the reset" (random_string rng 70_000);
  frame "after the reset" (random_string rng 700);
  Buffer.reset scratch;
  frame "after Buffer.reset" (random_string rng 700);
  frame "empty" "";
  (* an encoder that raises leaves nothing behind for the next frame *)
  Alcotest.check_raises "encoder raises"
    (Invalid_argument "Wire.put_u8: out of range")
    (fun () ->
      ignore
        (P.Wire.frame_with scratch
           (fun b () ->
             Buffer.add_string b "partial";
             P.Wire.put_u8 b 256)
           ()));
  frame "after a raise" (random_string rng 64)

let test_wire_int_rejects_corrupt_top_byte () =
  (* a top byte that is not pure sign extension cannot come from
     put_int: the decoder must flag it, not silently wrap *)
  let bogus = "\x00\x00\x00\x00\x00\x00\x00\x40" in
  Alcotest.(check bool) "flagged" true
    (try
       ignore (P.Wire.get_int (P.Wire.reader bogus));
       false
     with P.Wire.Decode_error _ -> true)

let test_wire_header () =
  let h = P.Wire.header ~kind:'W' in
  Alcotest.(check int) "length" P.Wire.header_len (String.length h);
  Alcotest.(check bool) "accepts own kind" true
    (Result.is_ok (P.Wire.check_header ~kind:'W' h));
  Alcotest.(check bool) "rejects other kind" true
    (Result.is_error (P.Wire.check_header ~kind:'S' h));
  Alcotest.(check bool) "rejects short" true
    (Result.is_error (P.Wire.check_header ~kind:'W' "WD"));
  let wrong_version = "WDMPW\x02\x00\x00" in
  Alcotest.(check bool) "rejects future version" true
    (Result.is_error (P.Wire.check_header ~kind:'W' wrong_version))

let test_frame_classification () =
  let payload = "hello, frame" in
  let f = P.Wire.frame payload in
  (match P.Wire.read_frame f ~pos:0 with
  | P.Wire.Frame { payload = p; next } ->
    Alcotest.(check string) "payload" payload p;
    Alcotest.(check int) "next" (String.length f) next
  | _ -> Alcotest.fail "expected Frame");
  (match P.Wire.read_frame f ~pos:(String.length f) with
  | P.Wire.End -> ()
  | _ -> Alcotest.fail "expected End");
  (* incomplete header and incomplete payload are torn, not corrupt *)
  (match P.Wire.read_frame (String.sub f 0 5) ~pos:0 with
  | P.Wire.Torn 0 -> ()
  | _ -> Alcotest.fail "short header should be Torn");
  (match P.Wire.read_frame (String.sub f 0 (String.length f - 3)) ~pos:0 with
  | P.Wire.Torn 0 -> ()
  | _ -> Alcotest.fail "short payload should be Torn");
  (* flipped payload byte: complete frame, wrong CRC *)
  let flipped = Bytes.of_string f in
  Bytes.set flipped 9 (Char.chr (Char.code (Bytes.get flipped 9) lxor 0x40));
  (match P.Wire.read_frame (Bytes.to_string flipped) ~pos:0 with
  | P.Wire.Corrupt { offset = 0; reason } ->
    Alcotest.(check string) "reason" "CRC mismatch" reason
  | _ -> Alcotest.fail "flipped byte should be Corrupt");
  (* an implausible length field is corruption, not a torn write *)
  let b = Buffer.create 16 in
  P.Wire.put_u32 b (P.Wire.max_payload + 1);
  P.Wire.put_u32 b 0;
  Buffer.add_string b "xxxx";
  match P.Wire.read_frame (Buffer.contents b) ~pos:0 with
  | P.Wire.Corrupt { offset = 0; _ } -> ()
  | _ -> Alcotest.fail "implausible length should be Corrupt"

(* --- op codec ------------------------------------------------------------ *)

let sample_ops =
  [
    P.Op.Connect (conn (ep 1 1) [ ep 1 1; ep 5 1 ]);
    P.Op.Connect (conn (ep 7 2) [ ep 3 2 ]);
    P.Op.Disconnect 0;
    P.Op.Disconnect 123456789;
    P.Op.Inject_fault (Fault.Middle 3);
    P.Op.Inject_fault (Fault.Input_module 2);
    P.Op.Inject_fault (Fault.Output_module 1);
    P.Op.Inject_fault (Fault.Stage1_laser { input = 1; middle = 2; wl = 1 });
    P.Op.Inject_fault (Fault.Stage2_laser { middle = 2; output = 3; wl = 2 });
    P.Op.Inject_fault (Fault.Converter { middle = 1; output = 4 });
    P.Op.Clear_fault (Fault.Middle 3);
    P.Op.Repair { connection = conn (ep 2 1) [ ep 6 1 ]; rehomed = true };
    P.Op.Repair { connection = conn (ep 4 2) [ ep 8 2; ep 2 2 ]; rehomed = false };
  ]

let encode_op op =
  let b = Buffer.create 64 in
  P.Op.encode b op;
  Buffer.contents b

let test_op_roundtrip () =
  List.iter
    (fun op ->
      match P.Op.decode_string (encode_op op) with
      | Ok op' ->
        Alcotest.(check bool)
          (Format.asprintf "roundtrip %a" P.Op.pp op)
          true (P.Op.equal op op')
      | Error e -> Alcotest.fail e)
    sample_ops

let test_op_rejects_malformed () =
  let bad what s =
    Alcotest.(check bool) what true (Result.is_error (P.Op.decode_string s))
  in
  bad "empty" "";
  bad "unknown tag" "\x09";
  bad "truncated connect" "\x01\x01\x00\x00\x00";
  bad "trailing bytes" (encode_op (P.Op.Disconnect 1) ^ "\x00");
  (* destination count of zero is structurally impossible *)
  let b = Buffer.create 16 in
  P.Wire.put_u8 b 1;
  P.Wire.put_u32 b 1;
  P.Wire.put_u32 b 1;
  P.Wire.put_u32 b 0;
  bad "zero destinations" (Buffer.contents b)

let prop_op_roundtrip =
  let gen =
    QCheck.Gen.(
      let endpoint = map2 (fun p w -> ep (p + 1) (w + 1)) (int_bound 200) (int_bound 30) in
      let connection =
        map2
          (fun src dests ->
            (* distinct destination ports, as Connection.make requires *)
            let seen = Hashtbl.create 8 in
            let dests =
              List.filter
                (fun (e : Endpoint.t) ->
                  if Hashtbl.mem seen e.Endpoint.port then false
                  else begin
                    Hashtbl.add seen e.Endpoint.port ();
                    true
                  end)
                dests
            in
            conn src dests)
          endpoint
          (list_size (int_range 1 6) endpoint)
      in
      let fault =
        oneof
          [
            map (fun i -> Fault.Middle (i + 1)) (int_bound 50);
            map (fun i -> Fault.Input_module (i + 1)) (int_bound 50);
            map (fun i -> Fault.Output_module (i + 1)) (int_bound 50);
            map3
              (fun a b c ->
                Fault.Stage1_laser { input = a + 1; middle = b + 1; wl = c + 1 })
              (int_bound 50) (int_bound 50) (int_bound 30);
            map3
              (fun a b c ->
                Fault.Stage2_laser { middle = a + 1; output = b + 1; wl = c + 1 })
              (int_bound 50) (int_bound 50) (int_bound 30);
            map2
              (fun a b -> Fault.Converter { middle = a + 1; output = b + 1 })
              (int_bound 50) (int_bound 50);
          ]
      in
      oneof
        [
          map (fun c -> P.Op.Connect c) connection;
          map (fun id -> P.Op.Disconnect id) (int_bound ((1 lsl 50) - 1));
          map (fun f -> P.Op.Inject_fault f) fault;
          map (fun f -> P.Op.Clear_fault f) fault;
          map2
            (fun c rehomed -> P.Op.Repair { connection = c; rehomed })
            connection bool;
        ])
  in
  QCheck.Test.make ~name:"op codec roundtrip" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" P.Op.pp) gen)
    (fun op ->
      match P.Op.decode_string (encode_op op) with
      | Ok op' -> P.Op.equal op op'
      | Error _ -> false)

(* --- network snapshot / restore ------------------------------------------ *)

let make_net ?telemetry ?(k = 2) () =
  let topo = Topology.make_exn ~n:3 ~m:8 ~r:3 ~k in
  Network.create
    ~config:{ Network.Config.default with telemetry }
    ~construction:Network.Msw_dominant ~output_model:Model.MSW topo

(* Earlier releases ran every k > 62 fabric on bool-array planes and
   wrote 1 in the state's link-state byte for them.  That byte follows
   n, m, r, k (u32 each), construction, model (u8 each), x_limit (u32)
   and a built-in strategy's tag (u8): offset 23. *)
let link_byte = 23

let with_link_byte byte state =
  let b = Bytes.of_string state in
  Alcotest.(check char) "current states write link byte 0" '\000'
    (Bytes.get b link_byte);
  Bytes.set b link_byte (Char.chr byte);
  Bytes.to_string b

(* The states these tests restore: a current k = 2 one, and a legacy
   one, as earlier releases wrote a wide fabric (k = 96, byte 1). *)
type flavour = Current | Legacy_reference

let flavour_k = function Current -> 2 | Legacy_reference -> 96

let encode flavour snap =
  let state = P.Backend.encode_net_state snap in
  match flavour with
  | Current -> state
  | Legacy_reference -> with_link_byte 1 state

let populate net =
  let admitted = ref [] in
  List.iter
    (fun c ->
      match Network.connect net c with
      | Ok route -> admitted := route :: !admitted
      | Error _ -> ())
    [
      conn (ep 1 1) [ ep 1 1; ep 4 1; ep 7 1 ];
      conn (ep 2 2) [ ep 5 2 ];
      conn (ep 4 1) [ ep 2 1; ep 8 1 ];
      conn (ep 9 2) [ ep 9 2 ];
    ];
  (* one teardown and one fault, so the snapshot is not just connects *)
  (match !admitted with
  | r :: _ -> ignore (Network.disconnect net r.Network.id)
  | [] -> ());
  ignore (Network.inject_fault net (Fault.Middle 2))

let test_snapshot_restore flavour () =
  let net = make_net ~k:(flavour_k flavour) () in
  populate net;
  let restored =
    match flavour with
    | Current -> Network.restore (Network.snapshot net)
    | Legacy_reference -> (
      match P.Backend.restore (encode flavour (Network.snapshot net)) with
      | Ok (P.Backend.Net restored) -> restored
      | Ok (P.Backend.Mesh _) -> Alcotest.fail "restored as a mesh"
      | Error e -> Alcotest.fail e)
  in
  Alcotest.(check int)
    "digest equal" (Network.digest net) (Network.digest restored);
  (* behavioral indistinguishability: the same fresh request must get
     the same answer, route id and hops on both *)
  let probe = conn (ep 3 1) [ ep 6 1 ] in
  let on_net = Network.connect net probe in
  let on_restored = Network.connect restored probe in
  match (on_net, on_restored) with
  | Ok a, Ok b ->
    Alcotest.(check int) "same id" a.Network.id b.Network.id;
    Alcotest.(check int) "same hops"
      (P.Op.route_checksum 0 a)
      (P.Op.route_checksum 0 b)
  | Error _, Error _ -> ()
  | _ -> Alcotest.fail "restored network answered differently"

let test_restore_rejects_inconsistent () =
  let net = make_net () in
  populate net;
  let snap = Network.snapshot net in
  let bad = { snap with Network.s_next_id = 0 } in
  Alcotest.(check bool) "route id >= next_id rejected" true
    (try
       ignore (Network.restore bad);
       false
     with Invalid_argument _ -> true);
  let bad = { snap with Network.s_faults = [ Fault.Middle 99 ] } in
  Alcotest.(check bool) "fault outside topology rejected" true
    (try
       ignore (Network.restore bad);
       false
     with Invalid_argument _ -> true)

(* A corrupt state can repeat a route or add an overlapping copy of one
   under a fresh id.  Restoring its encoding must answer [Error] (what
   a follower's snapshot handler expects), never raise. *)
let refused flavour label snap =
  match P.Backend.restore (encode flavour snap) with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: restored" label
  | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)

let test_restore_refuses_repeated_route flavour () =
  let net = make_net ~k:(flavour_k flavour) () in
  populate net;
  let snap = Network.snapshot net in
  let r = List.hd snap.Network.s_routes in
  refused flavour "route list [r; r; ...]"
    { snap with Network.s_routes = r :: snap.Network.s_routes }

let test_restore_refuses_overlapping_copy flavour () =
  let k = flavour_k flavour in
  let net = make_net ~k () in
  populate net;
  let snap = Network.snapshot net in
  let r = List.hd snap.Network.s_routes in
  let next = snap.Network.s_next_id in
  let with_extra (extra : Network.route) =
    {
      snap with
      Network.s_next_id = next + 1;
      s_routes = snap.Network.s_routes @ [ { extra with Network.id = next } ];
    }
  in
  refused flavour "copy under a new id" (with_extra r);
  (* free endpoints, same hops: only the slots overlap *)
  let elsewhere = { r with Network.connection = conn (ep 3 1) [ ep 6 1 ] } in
  refused flavour "slot overlap" (with_extra elsewhere);
  refused flavour "wavelength outside 1..k"
    (with_extra
       {
         elsewhere with
         Network.hops =
           List.map
             (fun h -> { h with Network.stage1_wl = k + 1 })
             r.Network.hops;
       })

(* A state's topology header (u32 n, m, r, k at offsets 0, 4, 8, 12)
   may name a fabric far larger than any the program builds.  Restoring
   one allocates r·m matrices, so the decoder refuses anything above
   [Backend.max_link_slots] r·m·k slots before allocating — just over
   the cap, the m = r = 100000 state that once exhausted memory, and
   u32 maxima whose product would overflow. *)
let test_restore_refuses_oversized_topology () =
  let net = make_net () in
  populate net;
  let valid = P.Backend.encode_net_state (Network.snapshot net) in
  let with_dims ~m ~r ~k =
    let b = Bytes.of_string valid in
    Bytes.set_int32_le b 4 (Int32.of_int m);
    Bytes.set_int32_le b 8 (Int32.of_int r);
    Bytes.set_int32_le b 12 (Int32.of_int k);
    Bytes.to_string b
  in
  let cap = P.Backend.max_link_slots in
  let refused_by_cap label state =
    match P.Backend.restore state with
    | Error e ->
      Alcotest.(check bool)
        (label ^ ": refused for its size") true
        (let needle = "link-state slots" in
         let rec go i =
           i + String.length needle <= String.length e
           && (String.sub e i (String.length needle) = needle || go (i + 1))
         in
         go 0)
    | Ok _ -> Alcotest.failf "%s: restored" label
    | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  in
  (* the base fabric is r = 3, k = 2 *)
  let m = (cap / 6) + 1 in
  Alcotest.(check bool) "one middle more is over the cap" true (3 * m * 2 > cap);
  refused_by_cap "just over the cap" (with_dims ~m ~r:3 ~k:2);
  refused_by_cap "m = r = 100000" (with_dims ~m:100_000 ~r:100_000 ~k:2);
  refused_by_cap "u32 maxima"
    (with_dims ~m:0xffff_ffff ~r:0xffff_ffff ~k:0xffff_ffff);
  refused_by_cap "k alone" (with_dims ~m:8 ~r:3 ~k:(cap + 1));
  (* the untouched encoding still restores *)
  match P.Backend.restore valid with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* The digest sees every field the state codec writes: editing any one
   of them in a valid state, and restoring, changes it. *)
let test_digest_sensitivity () =
  let topo = Topology.make_exn ~n:2 ~m:3 ~r:2 ~k:2 in
  let net =
    Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
      topo
  in
  let r =
    match Network.connect net (conn (ep 1 1) [ ep 3 1 ]) with
    | Ok r -> r
    | Error e -> Alcotest.failf "connect: %a" Network.pp_error e
  in
  let s = Network.snapshot net in
  let digest snap = Network.digest (Network.restore snap) in
  let base = digest s in
  Alcotest.(check int) "unedited" base (digest s);
  let hop = List.hd r.Network.hops in
  let with_route r' = { s with Network.s_routes = [ r' ] } in
  let idle_middle =
    List.find (fun j -> j <> hop.Network.middle) [ 1; 2; 3 ]
  in
  List.iter
    (fun (label, edited) ->
      if digest edited = base then Alcotest.failf "%s: digest unchanged" label)
    [
      ( "one hop's stage-2 wavelength",
        let p, w = List.hd hop.Network.serves in
        with_route
          {
            r with
            Network.hops = [ { hop with Network.serves = [ (p, 3 - w) ] } ];
          } );
      ( "one destination",
        with_route { r with Network.connection = conn (ep 1 1) [ ep 4 1 ] } );
      ("next_id", { s with Network.s_next_id = s.Network.s_next_id + 1 });
      ("one fault", { s with Network.s_faults = [ Fault.Middle idle_middle ] });
      ("the strategy", { s with Network.s_strategy = "first-fit" });
    ]

let test_state_codec_roundtrip () =
  let net = make_net () in
  populate net;
  let snap = Network.snapshot net in
  let bytes = P.Backend.encode_net_state snap in
  match P.Backend.decode_net_state bytes with
  | Error e -> Alcotest.fail e
  | Ok snap' ->
    Alcotest.(check string) "re-encodes identically" bytes
      (P.Backend.encode_net_state snap');
    Alcotest.(check int) "routes survive"
      (List.length snap.Network.s_routes)
      (List.length snap'.Network.s_routes)

(* A legacy state (link byte 1) restores to the same network as its
   byte-0 twin — same routes, same digest — and re-encodes with byte 0;
   any other byte is refused. *)
let test_legacy_link_byte () =
  let net = make_net ~k:96 () in
  populate net;
  let current = P.Backend.encode_net_state (Network.snapshot net) in
  let restore state =
    match P.Backend.restore state with
    | Ok (P.Backend.Net n) -> n
    | Ok (P.Backend.Mesh _) -> Alcotest.fail "restored as a mesh"
    | Error e -> Alcotest.fail e
  in
  let twin = restore current and legacy = restore (with_link_byte 1 current) in
  Alcotest.(check bool) "same routes" true
    (Network.active_routes twin = Network.active_routes legacy);
  Alcotest.(check int) "same digest" (Network.digest twin)
    (Network.digest legacy);
  Alcotest.(check int) "digest of the live network" (Network.digest net)
    (Network.digest legacy);
  Alcotest.(check string) "re-encodes with byte 0" current
    (P.Backend.encode_net_state (Network.snapshot legacy));
  match P.Backend.restore (with_link_byte 2 current) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "link byte 2 restored"

(* --- wal ----------------------------------------------------------------- *)

let test_wal_write_read () =
  let path = "test_wal_rw.wal" in
  let w = P.Wal.create path in
  List.iter (P.Wal.append w) sample_ops;
  Alcotest.(check int) "records" (List.length sample_ops) (P.Wal.records w);
  let end_off = P.Wal.tell w in
  P.Wal.close w;
  (match P.Wal.read path with
  | Error { reason; _ } -> Alcotest.fail reason
  | Ok { ops; tear; _ } ->
    Alcotest.(check bool) "no tear" true (tear = None);
    Alcotest.(check int) "count" (List.length sample_ops) (List.length ops);
    List.iter2
      (fun expected (_, got) ->
        Alcotest.(check bool)
          (Format.asprintf "op %a" P.Op.pp expected)
          true (P.Op.equal expected got))
      sample_ops ops);
  (* cut mid-record: the tail is reported torn at the record start *)
  let contents =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let last_start =
    match P.Wal.read path with
    | Ok { ops; _ } -> fst (List.nth ops (List.length ops - 1))
    | Error { reason; _ } -> Alcotest.fail reason
  in
  let oc = open_out_bin path in
  output_string oc (String.sub contents 0 (last_start + 3));
  close_out oc;
  (match P.Wal.read path with
  | Error { reason; _ } -> Alcotest.fail reason
  | Ok { ops; tear; _ } ->
    Alcotest.(check int) "one fewer op" (List.length sample_ops - 1)
      (List.length ops);
    Alcotest.(check (option int)) "tear offset" (Some last_start) tear);
  P.Wal.truncate_at path last_start;
  (match P.Wal.read path with
  | Ok { tear = None; ops; _ } ->
    Alcotest.(check int) "clean after truncate" (List.length sample_ops - 1)
      (List.length ops)
  | Ok _ -> Alcotest.fail "still torn after truncate_at"
  | Error { reason; _ } -> Alcotest.fail reason);
  ignore end_off;
  Sys.remove path

let test_wal_detects_corruption () =
  let path = "test_wal_corrupt.wal" in
  let w = P.Wal.create path in
  List.iter (P.Wal.append w) sample_ops;
  P.Wal.close w;
  let contents =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let flipped = Bytes.of_string contents in
  let mid = String.length contents / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc flipped;
  close_out oc;
  (match P.Wal.read path with
  | Error { offset; reason } ->
    Alcotest.(check bool)
      (Printf.sprintf "error names an offset: %s at byte %d" reason offset)
      true
      (offset >= P.Wire.header_len && offset <= mid)
  | Ok _ -> Alcotest.fail "flipped byte went undetected");
  Sys.remove path

let test_wal_policy_validation () =
  Alcotest.(check bool) "Flush_every 0 rejected" true
    (try
       ignore (P.Wal.create ~policy:(P.Wal.Flush_every 0) "never_created.wal");
       false
     with Invalid_argument _ -> true)

(* --- store --------------------------------------------------------------- *)

let test_store_session_and_recover () =
  let wal = "test_store_session.wal" in
  let backend = P.Backend.Net (make_net ()) in
  let store = P.Store.start_backend ~wal backend in
  let log_and_apply op =
    P.Store.log store op;
    match P.Resp.replay backend op with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  log_and_apply (P.Op.Connect (conn (ep 1 1) [ ep 1 1; ep 4 1 ]));
  log_and_apply (P.Op.Connect (conn (ep 2 2) [ ep 5 2 ]));
  P.Store.checkpoint_backend store backend;
  log_and_apply (P.Op.Inject_fault (Fault.Middle 1));
  log_and_apply (P.Op.Connect (conn (ep 5 1) [ ep 8 1 ]));
  let digest = P.Backend.digest backend in
  P.Store.close store;
  (match P.Store.recover_backend ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok r ->
    Alcotest.(check int) "digest" digest (P.Backend.digest r.P.Store.backend);
    Alcotest.(check int) "replayed past checkpoint" 2 r.P.Store.b_replayed;
    Alcotest.(check bool) "no tear" true (r.P.Store.b_tear = None));
  (* with every snapshot gone there is nothing to seed recovery from *)
  List.iter
    (fun seq ->
      let p = P.Store.snapshot_path ~wal ~seq in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2; 3 ];
  (match P.Store.recover_backend ~wal () with
  | Error (P.Store.No_snapshot _) -> ()
  | Error e ->
    Alcotest.fail (Format.asprintf "wrong error: %a" P.Store.pp_recovery_error e)
  | Ok _ -> Alcotest.fail "recovered with no snapshot");
  Sys.remove wal

let test_store_falls_back_to_older_snapshot () =
  let wal = "test_store_fallback.wal" in
  let backend = P.Backend.Net (make_net ()) in
  let store = P.Store.start_backend ~wal backend in
  let log_and_apply op =
    P.Store.log store op;
    ignore (P.Resp.replay backend op)
  in
  log_and_apply (P.Op.Connect (conn (ep 1 1) [ ep 4 1 ]));
  P.Store.checkpoint_backend store backend;
  log_and_apply (P.Op.Connect (conn (ep 2 1) [ ep 5 1 ]));
  P.Store.checkpoint_backend store backend;
  let digest = P.Backend.digest backend in
  P.Store.close store;
  (* trash the newest snapshot; seq 1 must still carry recovery *)
  let newest = P.Store.snapshot_path ~wal ~seq:2 in
  let oc = open_out_bin newest in
  output_string oc "not a snapshot at all";
  close_out oc;
  (match P.Store.recover_backend ~wal () with
  | Error e -> Alcotest.fail (Format.asprintf "%a" P.Store.pp_recovery_error e)
  | Ok r ->
    Alcotest.(check int) "fell back" 1 r.P.Store.b_snapshot_seq;
    Alcotest.(check int) "digest" digest (P.Backend.digest r.P.Store.backend));
  Sys.remove wal;
  List.iter
    (fun seq ->
      let p = P.Store.snapshot_path ~wal ~seq in
      if Sys.file_exists p then Sys.remove p)
    [ 0; 1; 2 ]

(* --- byte goldens -------------------------------------------------------- *)

(* Whole files and frames built from hand-written inputs (no RNG, so the
   bytes are the same on every compiler), each pinned by its length and
   CRC-32.  A change to the codec, the framing or the CRC moves them. *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden what ~len ~crc s =
  let got_crc = crc32_bitwise 0 s ~pos:0 ~len:(String.length s) in
  if String.length s <> len || got_crc <> crc then
    Alcotest.failf "%s: %d bytes, CRC 0x%08x; pinned %d bytes, CRC 0x%08x"
      what (String.length s) got_crc len crc

let golden_net () =
  Network.create ~construction:Network.Msw_dominant ~output_model:Model.MSW
    (Topology.make_exn ~n:2 ~m:3 ~r:3 ~k:2)

let golden_mesh () =
  Result.get_ok
    (Mesh.create ~config:{ Mesh.Config.default with Mesh.Config.k = 8 } "nsf14")

let admit backend c =
  P.Resp.execute_backend backend (P.Resp.Admit (P.Op.Connect c))

(* 64 multicasts over nsf14's nodes 1..14: source i mod 14, up to three
   destinations stepping by 3, 5 and 11 from it. *)
let golden_mesh_requests =
  List.init 64 (fun i ->
      let node j = 1 + (j mod 14) in
      let src = node i in
      let dests =
        List.sort_uniq compare
          (List.filteri
             (fun j _ -> j <= i mod 3)
             [ node (i + 3); node (i + 5); node (i + 11) ])
      in
      P.Resp.Admit
        (P.Op.Connect
           (Connection.make_exn ~source:(ep src 1)
              ~destinations:(List.map (fun d -> ep d 1) dests))))

let frame_resp resp =
  let b = Buffer.create 64 in
  P.Resp.encode b resp;
  P.Wire.frame (Buffer.contents b)

let test_golden_wal () =
  let path = "test_golden.wal" in
  let w = P.Wal.create ~policy:P.Wal.Buffered path in
  List.iter (P.Wal.append w)
    [
      P.Op.Connect (conn (ep 1 1) [ ep 3 1; ep 5 1 ]);
      P.Op.Connect (conn (ep 2 2) [ ep 6 2 ]);
      P.Op.Disconnect 0;
      P.Op.Inject_fault (Fault.Middle 2);
      P.Op.Repair { connection = conn (ep 2 2) [ ep 6 2 ]; rehomed = true };
      P.Op.Clear_fault (Fault.Middle 2);
      P.Op.Disconnect 1;
    ];
  P.Wal.close w;
  check_golden "WAL" ~len:166 ~crc:0x08112a6d (read_all path)

let test_golden_snapshots () =
  let net = golden_net () in
  List.iter
    (fun c -> ignore (admit (P.Backend.Net net) c))
    [ conn (ep 1 1) [ ep 3 1; ep 5 1 ]; conn (ep 2 2) [ ep 6 2 ];
      conn (ep 4 1) [ ep 1 1 ] ];
  let mesh = golden_mesh () in
  List.iteri
    (fun i req ->
      if i < 12 then
        ignore (P.Resp.execute_backend (P.Backend.Mesh mesh) req))
    golden_mesh_requests;
  let snapshot name backend =
    let wal = Printf.sprintf "test_golden_%s.wal" name in
    P.Store.close (P.Store.start_backend ~wal backend);
    read_all (P.Store.snapshot_path ~wal ~seq:0)
  in
  check_golden "multistage snapshot" ~len:256 ~crc:0xddfb9c37
    (snapshot "net" (P.Backend.Net net));
  check_golden "mesh snapshot" ~len:959 ~crc:0xb5b3fe44
    (snapshot "mesh" (P.Backend.Mesh mesh))

let test_golden_responses () =
  let net = P.Backend.Net (golden_net ()) in
  let admitted = admit net (conn (ep 1 1) [ ep 3 1; ep 5 1 ]) in
  let refused = admit net (conn (ep 1 1) [ ep 6 1 ]) in
  (match (admitted, refused) with
  | P.Resp.Admitted _, P.Resp.Refused _ -> ()
  | a, r -> Alcotest.failf "got %a and %a" P.Resp.pp a P.Resp.pp r);
  check_golden "Admitted frame" ~len:85 ~crc:0xb7ed5d39 (frame_resp admitted);
  check_golden "Refused frame" ~len:18 ~crc:0xda4eee5a (frame_resp refused);
  let blocked =
    P.Resp.Refused
      (Network.Blocked
         { fanout_switches = [ 1; 3 ]; available_middles = [ 2 ];
           uncovered = [ 3 ] })
  in
  check_golden "Blocked frame" ~len:38 ~crc:0x9fb9221e (frame_resp blocked);
  let mesh = P.Backend.Mesh (golden_mesh ()) in
  let batch = P.Resp.Batch golden_mesh_requests in
  let b = Buffer.create 64 in
  P.Resp.encode_request b batch;
  check_golden "mesh Batch frame" ~len:1861 ~crc:0x60f11143
    (P.Wire.frame (Buffer.contents b));
  let reply =
    P.Resp.Batch_reply
      (List.map (P.Resp.execute_backend mesh) golden_mesh_requests)
  in
  check_golden "mesh Batch_reply frame" ~len:4726 ~crc:0x9876d706
    (frame_resp reply)

(* --- commit/replay agreement ---------------------------------------------- *)

(* What a leader executes and commits, a follower or a recovery replays
   to the same state: each op runs on backend [a] through
   [Resp.execute_backend], each committed op replays on backend [b]
   through [Resp.replay], every replay is [Ok], and the digests agree
   after every step.  The ops mix connects (some out of range or off
   the model), disconnects of live, released and unknown ids, repairs
   recorded either way, and faults in and out of range — on the mesh
   too, where fault ops are refused and never committed. *)
type step =
  | Connect of Connection.t
  | Disconnect_live of int
  | Disconnect_released of int
  | Disconnect_unknown of int
  | Repair of Connection.t * bool
  | Inject of Fault.t
  | Clear of Fault.t

let step_gen ~ports ~k ~m ~r =
  QCheck.Gen.(
    let port = frequency [ (19, int_range 1 ports); (1, return (ports + 1)) ] in
    let wl =
      frequency [ (5, return 1); (4, int_range 1 k); (1, return (k + 1)) ]
    in
    let connection =
      let* src_port = port and* src_wl = wl in
      let* dest_ports = list_size (int_range 1 3) port in
      let* same_wl = frequency [ (9, return true); (1, return false) ] in
      let* dest_wl = if same_wl then return src_wl else wl in
      let dests =
        List.map (fun p -> ep p dest_wl) (List.sort_uniq compare dest_ports)
      in
      return (conn (ep src_port src_wl) dests)
    in
    let fault =
      oneof
        [
          map (fun j -> Fault.Middle j) (int_range 1 (m + 1));
          map (fun p -> Fault.Output_module p) (int_range 1 (r + 1));
          map3
            (fun input middle wl -> Fault.Stage1_laser { input; middle; wl })
            (int_range 1 r) (int_range 1 m) (int_range 1 (k + 1));
        ]
    in
    frequency
      [
        (6, map (fun c -> Connect c) connection);
        (3, map (fun i -> Disconnect_live i) nat);
        (1, map (fun i -> Disconnect_released i) nat);
        (1, map (fun i -> Disconnect_unknown i) nat);
        (2, map2 (fun c b -> Repair (c, b)) connection bool);
        (1, map (fun f -> Inject f) fault);
        (1, map (fun f -> Clear f) fault);
      ])

let pp_step ppf = function
  | Connect c -> Format.fprintf ppf "connect %a" Connection.pp c
  | Disconnect_live i -> Format.fprintf ppf "disconnect live #%d" i
  | Disconnect_released i -> Format.fprintf ppf "disconnect released #%d" i
  | Disconnect_unknown i -> Format.fprintf ppf "disconnect unknown %d" i
  | Repair (c, b) -> Format.fprintf ppf "repair(%b) %a" b Connection.pp c
  | Inject f -> Format.fprintf ppf "inject %a" Fault.pp f
  | Clear f -> Format.fprintf ppf "clear %a" Fault.pp f

let live_ids = function
  | P.Backend.Net n ->
    List.map (fun (r : Network.route) -> r.Network.id) (Network.active_routes n)
  | P.Backend.Mesh m ->
    List.map
      (fun (r : Mesh.route) -> r.Mesh.id)
      (Mesh.snapshot m).Mesh.s_routes

let nth_or l i ~default =
  match l with [] -> default | _ -> List.nth l (i mod List.length l)

let prop_commit_replay_agree ~name ~make ~ports ~k ~m ~r =
  QCheck.Test.make ~name ~count:200
    (QCheck.make
       ~print:(fun steps ->
         Format.asprintf "@[<v>%a@]" (Format.pp_print_list pp_step) steps)
       QCheck.Gen.(list_size (int_range 1 100) (step_gen ~ports ~k ~m ~r)))
    (fun steps ->
      let a = make () and b = make () in
      let ever = ref [] in
      List.iteri
        (fun i step ->
          let live = live_ids a in
          ever := List.sort_uniq compare (live @ !ever);
          let released = List.filter (fun id -> not (List.mem id live)) !ever in
          let op =
            match step with
            | Connect c -> P.Op.Connect c
            | Disconnect_live j -> P.Op.Disconnect (nth_or live j ~default:0)
            | Disconnect_released j ->
              P.Op.Disconnect (nth_or released j ~default:0)
            | Disconnect_unknown j -> P.Op.Disconnect (100_000 + j)
            | Repair (connection, rehomed) ->
              P.Op.Repair { connection; rehomed }
            | Inject f -> P.Op.Inject_fault f
            | Clear f -> P.Op.Clear_fault f
          in
          let req = P.Resp.Admit op in
          let resp = P.Resp.execute_backend a req in
          (match P.Resp.committed req resp with
          | None -> ()
          | Some committed -> (
            match P.Resp.replay b committed with
            | Ok () -> ()
            | Error e ->
              QCheck.Test.fail_reportf "step %d (%a): replay failed: %s" i
                P.Op.pp committed e));
          if P.Backend.digest a <> P.Backend.digest b then
            QCheck.Test.fail_reportf "step %d (%a -> %a): digests differ" i
              P.Op.pp op P.Resp.pp resp)
        steps;
      true)

let make_mesh () =
  Result.get_ok
    (Mesh.create ~config:{ Mesh.Config.default with Mesh.Config.k = 4 } "nsf14")

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_op_roundtrip;
      (* undersized (m = n = 2, below the Theorem-1 minimum), so
         connects block and a few repairs rearrange *)
      prop_commit_replay_agree ~name:"commit/replay agreement (multistage)"
        ~make:(fun () ->
          P.Backend.Net
            (Network.create ~construction:Network.Msw_dominant
               ~output_model:Model.MSW
               (Topology.make_exn ~n:2 ~m:2 ~r:4 ~k:1)))
        ~ports:8 ~k:1 ~m:2 ~r:4;
      prop_commit_replay_agree ~name:"commit/replay agreement (mesh)"
        ~make:(fun () -> P.Backend.Mesh (make_mesh ()))
        ~ports:14 ~k:4 ~m:3 ~r:3;
    ]

(* --- the churn driver over an executor --------------------------------- *)

(* [Resp.churn_sut] over [execute_backend] must drive a fabric exactly
   as direct engine calls do: same driver tallies, same admitted routes,
   same final state.  The fabric is undersized (m = 2, below both
   theorems' minimum), so refusals reach the mapping too. *)
let test_churn_sut_matches_direct construction () =
  let make () =
    Network.create ~construction ~output_model:Model.MAW
      (Topology.make_exn ~n:2 ~m:2 ~r:4 ~k:2)
  in
  let churn sut =
    Wdm_traffic.Churn.run (Random.State.make [| 23 |])
      ~spec:(Network_spec.make_exn ~n:8 ~k:2) ~model:Model.MAW
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 8; s = 1.1 })
      ~steps:1500 ~teardown_bias:0.35 sut
  in
  let a = make () and b = make () in
  let sum_a = ref 0 and sum_b = ref 0 in
  let stats_a =
    churn
      (P.Resp.churn_sut
         ~on_admit:(fun route -> sum_a := P.Op.route_checksum !sum_a route)
         (P.Resp.execute_backend (P.Backend.Net a)))
  in
  let stats_b =
    churn
      {
        Wdm_traffic.Churn.connect =
          (fun c ->
            Result.map
              (fun route ->
                sum_b := P.Op.route_checksum !sum_b route;
                route.Network.id)
              (Network.connect b c));
        disconnect = (fun id -> ignore (Network.disconnect b id));
      }
  in
  Alcotest.(check bool) "same stats" true (stats_a = stats_b);
  Alcotest.(check bool) "refusals exercised" true
    (stats_a.Wdm_traffic.Churn.blocked > 0);
  Alcotest.(check int) "route checksum" !sum_b !sum_a;
  Alcotest.(check int) "digest" (Network.digest b) (Network.digest a)

(* the same for a mesh under Erlang traffic *)
let test_churn_sut_matches_direct_mesh () =
  let erlang sut =
    Wdm_traffic.Erlang.run (Random.State.make [| 29 |]) ~nodes:14
      ~fanout:(Wdm_traffic.Fanout.Zipf { max = 4; s = 1.3 })
      ~offered:12. ~arrivals:1500 sut
  in
  let a = make_mesh () and b = make_mesh () in
  let sum_a = ref 0 and sum_b = ref 0 in
  let point_a =
    erlang
      (P.Resp.churn_sut
         ~on_admit:(fun route -> sum_a := P.Op.route_checksum !sum_a route)
         (P.Resp.execute_backend (P.Backend.Mesh a)))
  in
  let point_b =
    erlang
      {
        Wdm_traffic.Churn.connect =
          (fun c ->
            Result.map
              (fun route ->
                sum_b :=
                  P.Op.route_checksum !sum_b (P.Backend.net_route_of_mesh route);
                route.Mesh.id)
              (Mesh.connect b c));
        disconnect = (fun id -> ignore (Mesh.disconnect b id));
      }
  in
  Alcotest.(check bool) "same point" true (point_a = point_b);
  Alcotest.(check bool) "refusals exercised" true
    (point_a.Wdm_traffic.Erlang.blocked > 0);
  Alcotest.(check int) "route checksum" !sum_b !sum_a;
  Alcotest.(check int) "digest"
    (P.Backend.digest (P.Backend.Mesh b))
    (P.Backend.digest (P.Backend.Mesh a))

let test_churn_sut_rejects_other_answers () =
  let sut = P.Resp.churn_sut (fun _ -> P.Resp.Server_error "down") in
  let raises what f =
    match f () with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Failure")
  in
  raises "connect" (fun () -> ignore (sut.Wdm_traffic.Churn.connect (conn (ep 1 1) [ ep 2 1 ])));
  raises "disconnect" (fun () -> sut.Wdm_traffic.Churn.disconnect 1)

(* Alcotest pads every suite name to the longest one and cuts test
   names at 80 columns, so a suite name longer than "properties" would
   truncate "refuses an overlapping copy (reference)". *)
let () =
  Alcotest.run "wdm_persist"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answer" `Quick test_crc32_known;
          Alcotest.test_case "composable" `Quick test_crc32_compose;
          Alcotest.test_case "= bitwise reference" `Quick
            test_crc32_matches_bitwise;
        ] );
      ( "wire",
        [
          Alcotest.test_case "int roundtrips + range checks" `Quick test_wire_ints;
          Alcotest.test_case "rejects corrupt sign byte" `Quick
            test_wire_int_rejects_corrupt_top_byte;
          Alcotest.test_case "codec = byte-by-byte reference" `Quick
            test_wire_matches_reference;
          Alcotest.test_case "frame_with = reference framing" `Quick
            test_frame_with_matches_reference;
          Alcotest.test_case "header" `Quick test_wire_header;
          Alcotest.test_case "frame classification" `Quick
            test_frame_classification;
        ] );
      ( "op-codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_op_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_op_rejects_malformed;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "restore (bitset)" `Quick
            (test_snapshot_restore Current);
          Alcotest.test_case "restore (reference)" `Quick
            (test_snapshot_restore Legacy_reference);
          Alcotest.test_case "rejects inconsistent" `Quick
            test_restore_rejects_inconsistent;
          Alcotest.test_case "refuses a repeated route (bitset)" `Quick
            (test_restore_refuses_repeated_route Current);
          Alcotest.test_case "refuses a repeated route (reference)" `Quick
            (test_restore_refuses_repeated_route Legacy_reference);
          Alcotest.test_case "refuses an overlapping copy (bitset)" `Quick
            (test_restore_refuses_overlapping_copy Current);
          Alcotest.test_case "refuses an overlapping copy (reference)" `Quick
            (test_restore_refuses_overlapping_copy Legacy_reference);
          Alcotest.test_case "refuses an oversized topology" `Quick
            test_restore_refuses_oversized_topology;
          Alcotest.test_case "state codec roundtrip" `Quick
            test_state_codec_roundtrip;
          Alcotest.test_case "legacy link byte restores" `Quick
            test_legacy_link_byte;
          Alcotest.test_case "digest sensitivity" `Quick test_digest_sensitivity;
        ] );
      ( "wal",
        [
          Alcotest.test_case "write/read/tear/truncate" `Quick test_wal_write_read;
          Alcotest.test_case "detects corruption" `Quick test_wal_detects_corruption;
          Alcotest.test_case "policy validation" `Quick test_wal_policy_validation;
        ] );
      ( "store",
        [
          Alcotest.test_case "session + recover" `Quick
            test_store_session_and_recover;
          Alcotest.test_case "falls back to older snapshot" `Quick
            test_store_falls_back_to_older_snapshot;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "WAL bytes" `Quick test_golden_wal;
          Alcotest.test_case "snapshot bytes" `Quick test_golden_snapshots;
          Alcotest.test_case "response frames" `Quick test_golden_responses;
        ] );
      ( "churn",
        [
          Alcotest.test_case "= direct calls (MSW-dominant)" `Quick
            (test_churn_sut_matches_direct Network.Msw_dominant);
          Alcotest.test_case "= direct calls (MAW-dominant)" `Quick
            (test_churn_sut_matches_direct Network.Maw_dominant);
          Alcotest.test_case "= direct calls (mesh, Erlang)" `Quick
            test_churn_sut_matches_direct_mesh;
          Alcotest.test_case "other answers raise" `Quick
            test_churn_sut_rejects_other_answers;
        ] );
      ("properties", props);
    ]
