(* Replication wire vocabulary: what a leader and a follower say to
   each other after the 'F' hello, plus the follower's little on-disk
   mark pairing its local WAL with a position in the leader's op
   stream.  Framing and CRC are Wire's job, as everywhere else. *)

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

(* ----- follower -> leader ---------------------------------------------- *)

type to_leader =
  | Subscribe of { epoch : int; last_seq : int }
  | Ack of { seq : int; digest : int }

let encode_to_leader b = function
  | Subscribe { epoch; last_seq } ->
    Wire.put_u8 b 1;
    Wire.put_int b epoch;
    Wire.put_int b last_seq
  | Ack { seq; digest } ->
    Wire.put_u8 b 2;
    Wire.put_int b seq;
    Wire.put_int b digest

let decode_to_leader r =
  match Wire.get_u8 r with
  | 1 ->
    let epoch = Wire.get_int r in
    let last_seq = Wire.get_int r in
    Subscribe { epoch; last_seq }
  | 2 ->
    let seq = Wire.get_int r in
    let digest = Wire.get_int r in
    Ack { seq; digest }
  | tag -> fail r (Printf.sprintf "unknown to-leader tag %d" tag)

let pp_to_leader ppf = function
  | Subscribe { epoch; last_seq } ->
    Format.fprintf ppf "subscribe(epoch %d, last seq %d)" epoch last_seq
  | Ack { seq; digest } -> Format.fprintf ppf "ack(seq %d, digest %d)" seq digest

(* ----- leader -> follower ---------------------------------------------- *)

type to_follower =
  | Init_snapshot of { epoch : int; seq : int; state : string }
  | Init_resume of { epoch : int; seq : int }
  | Rep_op of { seq : int; op : Op.t }
  | Rep_digest of { seq : int; digest : int }
  | Goodbye of { reason : string }

let encode_to_follower b = function
  | Init_snapshot { epoch; seq; state } ->
    Wire.put_u8 b 1;
    Wire.put_int b epoch;
    Wire.put_int b seq;
    put_string b state
  | Init_resume { epoch; seq } ->
    Wire.put_u8 b 2;
    Wire.put_int b epoch;
    Wire.put_int b seq
  | Rep_op { seq; op } ->
    Wire.put_u8 b 3;
    Wire.put_int b seq;
    Op.encode b op
  | Rep_digest { seq; digest } ->
    Wire.put_u8 b 4;
    Wire.put_int b seq;
    Wire.put_int b digest
  | Goodbye { reason } ->
    Wire.put_u8 b 5;
    put_string b reason

let decode_to_follower r =
  match Wire.get_u8 r with
  | 1 ->
    let epoch = Wire.get_int r in
    let seq = Wire.get_int r in
    let state = get_string r in
    Init_snapshot { epoch; seq; state }
  | 2 ->
    let epoch = Wire.get_int r in
    let seq = Wire.get_int r in
    Init_resume { epoch; seq }
  | 3 ->
    let seq = Wire.get_int r in
    let op = Op.decode r in
    Rep_op { seq; op }
  | 4 ->
    let seq = Wire.get_int r in
    let digest = Wire.get_int r in
    Rep_digest { seq; digest }
  | 5 -> Goodbye { reason = get_string r }
  | tag -> fail r (Printf.sprintf "unknown to-follower tag %d" tag)

let pp_to_follower ppf = function
  | Init_snapshot { epoch; seq; state } ->
    Format.fprintf ppf "snapshot(epoch %d, seq %d, %d state bytes)" epoch seq
      (String.length state)
  | Init_resume { epoch; seq } ->
    Format.fprintf ppf "resume(epoch %d, seq %d)" epoch seq
  | Rep_op { seq; op } -> Format.fprintf ppf "op(seq %d, %a)" seq Op.pp op
  | Rep_digest { seq; digest } ->
    Format.fprintf ppf "digest(seq %d, %d)" seq digest
  | Goodbye { reason } -> Format.fprintf ppf "goodbye(%s)" reason

let decode_string decode s =
  let r = Wire.reader s in
  match
    let v = decode r in
    Wire.expect_end r;
    v
  with
  | v -> Ok v
  | exception Wire.Decode_error { offset; reason } ->
    Error (Printf.sprintf "%s at payload offset %d" reason offset)

let to_leader_of_string s = decode_string decode_to_leader s
let to_follower_of_string s = decode_string decode_to_follower s

(* ----- follower mark --------------------------------------------------- *)

(* The mark pairs the follower's local WAL with the leader's stream:
   [base_seq] is the leader seq the WAL's origin state corresponds to,
   so after a local recovery the follower's position is [base_seq]
   plus the number of records in its (truncated) WAL.  Written with a
   rename so a crash mid-write leaves the previous mark intact. *)

type mark = { epoch : int; base_seq : int }

let mark_path ~wal = wal ^ ".repl"

let save_mark ~wal mark =
  let framed =
    Wire.frame_with (Buffer.create 16)
      (fun b { epoch; base_seq } ->
        Wire.put_int b epoch;
        Wire.put_int b base_seq)
      mark
  in
  let tmp = mark_path ~wal ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Wire.header ~kind:'M');
      output_string oc framed;
      flush oc;
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Sys.rename tmp (mark_path ~wal)

let load_mark ~wal =
  let path = mark_path ~wal in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | src -> (
    match Wire.check_header ~kind:'M' src with
    | Error _ -> None
    | Ok () -> (
      match Wire.read_frame src ~pos:Wire.header_len with
      | Wire.Frame { payload; next } when next = String.length src -> (
        match
          let r = Wire.reader payload in
          let epoch = Wire.get_int r in
          let base_seq = Wire.get_int r in
          Wire.expect_end r;
          { epoch; base_seq }
        with
        | mark -> Some mark
        | exception Wire.Decode_error _ -> None)
      | _ -> None))

let remove_mark ~wal =
  try Sys.remove (mark_path ~wal) with Sys_error _ -> ()
