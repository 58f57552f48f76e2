module Tel = Wdm_telemetry

let fail (r : Wire.reader) reason =
  raise (Wire.Decode_error { offset = r.Wire.pos; reason })

(* ----- snapshot files -------------------------------------------------- *)

let snapshot_path ~wal ~seq = Printf.sprintf "%s.snap.%d" wal seq

let write_state ~path ~seq ~wal_offset state =
  (* sized to the payload, so the buffer never grows *)
  let framed =
    Wire.frame_with
      (Buffer.create (String.length state + 12))
      (fun b state ->
        Wire.put_u32 b seq;
        Wire.put_int b wal_offset;
        Buffer.add_string b state)
      state
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Wire.header ~kind:'S');
      output_string oc framed;
      flush oc)

(* Reads the framed (seq, wal_offset, state-bytes) triple without
   committing to a state kind — recovery dispatches on the bytes. *)
let read_snapshot path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error e -> Error e
  in
  match contents with
  | Error e -> Error (Printf.sprintf "cannot read snapshot: %s" e)
  | Ok src -> (
    match Wire.check_header ~kind:'S' src with
    | Error e -> Error e
    | Ok () -> (
      match Wire.read_frame src ~pos:Wire.header_len with
      | Wire.End -> Error "snapshot has no payload record"
      | Wire.Torn at -> Error (Printf.sprintf "torn snapshot at byte %d" at)
      | Wire.Corrupt { offset; reason } ->
        Error (Printf.sprintf "%s at byte %d" reason offset)
      | Wire.Frame { payload; next } ->
        if next <> String.length src then
          Error "trailing bytes after snapshot record"
        else (
          match
            let r = Wire.reader payload in
            let seq = Wire.get_u32 r in
            let wal_offset = Wire.get_int r in
            if wal_offset < Wire.header_len then
              fail r "snapshot WAL offset inside the header";
            let state = String.sub payload r.Wire.pos
                (String.length payload - r.Wire.pos) in
            (seq, wal_offset, state)
          with
          | triple -> Ok triple
          | exception Wire.Decode_error { offset; reason } ->
            Error (Printf.sprintf "%s at payload offset %d" reason offset))))

let list_snapshots ~wal =
  let dir = Filename.dirname wal in
  let prefix = Filename.basename wal ^ ".snap." in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun name ->
           if String.length name > String.length prefix
              && String.sub name 0 (String.length prefix) = prefix
           then
             let suffix =
               String.sub name (String.length prefix)
                 (String.length name - String.length prefix)
             in
             match int_of_string_opt suffix with
             | Some seq when seq >= 0 -> Some (seq, Filename.concat dir name)
             | _ -> None
           else None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)

let delete_snapshots ~wal ~keep_above =
  List.iter
    (fun (seq, path) ->
      if seq < keep_above then try Sys.remove path with Sys_error _ -> ())
    (list_snapshots ~wal)

(* ----- recording session ----------------------------------------------- *)

type instruments = {
  c_snapshots : Tel.Metrics.counter;
  h_snapshot : Tel.Histogram.t;
  sink : Tel.Sink.t;
}

type t = {
  wal_path : string;
  writer : Wal.writer;
  retain : int;
  mutable seq : int;
  instruments : instruments option;
}

let session_instruments (sink : Tel.Sink.t) =
  let reg = sink.Tel.Sink.metrics in
  {
    c_snapshots =
      Tel.Metrics.counter reg ~help:"Snapshots written"
        "persist_snapshots_total";
    h_snapshot =
      Tel.Metrics.histogram reg ~help:"Latency of one snapshot write"
        "persist_snapshot_latency_seconds";
    sink;
  }

let take_snapshot t backend =
  let offset = Wal.tell t.writer in
  let write () =
    write_state
      ~path:(snapshot_path ~wal:t.wal_path ~seq:t.seq)
      ~seq:t.seq ~wal_offset:offset
      (Backend.encode_state backend)
  in
  (match t.instruments with
  | None -> write ()
  | Some i ->
    let t0 = Tel.Sink.now i.sink in
    write ();
    Tel.Histogram.observe i.h_snapshot (Tel.Sink.now i.sink -. t0);
    Tel.Metrics.inc i.c_snapshots);
  delete_snapshots ~wal:t.wal_path ~keep_above:(t.seq - t.retain + 1);
  t.seq <- t.seq + 1

let start_backend ?telemetry ?policy ?(retain = 2) ~wal backend =
  if retain < 1 then invalid_arg "Store.start_backend: retain must be >= 1";
  delete_snapshots ~wal ~keep_above:max_int;
  let writer = Wal.create ?telemetry ?policy wal in
  let t =
    {
      wal_path = wal;
      writer;
      retain;
      seq = 0;
      instruments = Option.map session_instruments telemetry;
    }
  in
  take_snapshot t backend;
  t

let log t op = Wal.append t.writer op
let checkpoint_backend t backend = take_snapshot t backend
let wal_records t = Wal.records t.writer
let wal_offset t = Wal.tell t.writer
let snapshot_seq t = t.seq
let close t = Wal.close t.writer

(* ----- recovery -------------------------------------------------------- *)

type backend_recovery = {
  backend : Backend.t;
  b_snapshot_seq : int;
  b_snapshot_offset : int;
  b_replayed : int;
  b_tear : int option;
}

type recovery_error =
  | No_snapshot of string
  | Corrupt of { path : string; offset : int; reason : string }

let pp_recovery_error ppf = function
  | No_snapshot why -> Format.fprintf ppf "no usable snapshot: %s" why
  | Corrupt { path; offset; reason } ->
    Format.fprintf ppf "corrupt state in %s at byte %d: %s" path offset reason

(* Recovery, plus the number of records in the WAL's valid prefix, which
   [resume_backend] seeds its writer with. *)
let recover_counted ?telemetry ~truncate ~wal () =
  match Wal.read wal with
  | Error { Wal.offset; reason } ->
    Error (Corrupt { path = wal; offset; reason })
  | Ok { Wal.ops; tear; valid_end } ->
    (* A snapshot is usable only if its WAL offset is a record boundary
       of the valid prefix — otherwise it describes a different file. *)
    let boundary off =
      off = Wire.header_len || off = valid_end
      || List.exists (fun (pos, _) -> pos = off) ops
    in
    let candidates = list_snapshots ~wal in
    let rec pick last_err = function
      | [] ->
        Error
          (No_snapshot
             (match last_err with
             | Some e -> e
             | None -> "no snapshot files found"))
      | (seq, path) :: rest -> (
        match read_snapshot path with
        | Error e -> pick (Some (Printf.sprintf "%s: %s" path e)) rest
        | Ok (file_seq, wal_off, state) ->
          if file_seq <> seq then
            pick
              (Some
                 (Printf.sprintf "%s: sequence %d does not match filename"
                    path file_seq))
              rest
          else if not (boundary wal_off) then
            pick
              (Some
                 (Printf.sprintf
                    "%s: WAL offset %d is not a record boundary" path wal_off))
              rest
          else Ok (seq, wal_off, state))
    in
    (match pick None candidates with
    | Error _ as e -> e
    | Ok (b_snapshot_seq, b_snapshot_offset, state) -> (
      let t0 = Option.map (fun s -> Tel.Sink.now s) telemetry in
      match Backend.restore ?telemetry state with
      | Error reason ->
        Error
          (Corrupt
             {
               path = snapshot_path ~wal ~seq:b_snapshot_seq;
               offset = Wire.header_len;
               reason;
             })
      | Ok backend ->
        let tail =
          List.filter (fun (pos, _) -> pos >= b_snapshot_offset) ops
        in
        let rec replay count = function
          | [] -> Ok count
          | (pos, op) :: rest -> (
            match Resp.replay backend op with
            | Ok () -> replay (count + 1) rest
            | Error reason -> Error (Corrupt { path = wal; offset = pos; reason })
            | exception Invalid_argument reason ->
              Error (Corrupt { path = wal; offset = pos; reason }))
        in
        (match replay 0 tail with
        | Error _ as e -> e
        | Ok b_replayed ->
          (match (tear, truncate) with
          | Some at, true -> Wal.truncate_at wal at
          | _ -> ());
          (match (telemetry, t0) with
          | Some sink, Some t0 ->
            let reg = sink.Tel.Sink.metrics in
            Tel.Metrics.inc
              (Tel.Metrics.counter reg ~help:"Completed recoveries"
                 "persist_recoveries_total");
            Tel.Histogram.observe
              (Tel.Metrics.histogram reg
                 ~help:"Latency of snapshot restore + WAL replay"
                 "persist_restore_latency_seconds")
              (Tel.Sink.now sink -. t0)
          | _ -> ());
          Ok
            ( {
                backend;
                b_snapshot_seq;
                b_snapshot_offset;
                b_replayed;
                b_tear = tear;
              },
              List.length ops ))))

let recover_backend ?telemetry ?(truncate = true) ~wal () =
  Result.map fst (recover_counted ?telemetry ~truncate ~wal ())

(* ----- resume ---------------------------------------------------------- *)

(* Recover, then continue the same WAL instead of truncating it: the
   writer reopens in append mode with the record count the recovery
   scan found, the snapshot sequence carries on past the newest file on
   disk, and an immediate checkpoint pins the recovered state at the
   current offset (also healing the case where the newest snapshot had
   become inconsistent with the truncated WAL). *)
let resume_backend ?telemetry ?policy ?(retain = 2) ~wal () =
  if retain < 1 then invalid_arg "Store.resume_backend: retain must be >= 1";
  match recover_counted ?telemetry ~truncate:true ~wal () with
  | Error e -> Error e
  | Ok (recovery, records) ->
    let writer = Wal.open_append ?telemetry ?policy ~records wal in
    let seq =
      match list_snapshots ~wal with (s, _) :: _ -> s + 1 | [] -> 0
    in
    let t =
      {
        wal_path = wal;
        writer;
        retain;
        seq;
        instruments = Option.map session_instruments telemetry;
      }
    in
    take_snapshot t recovery.backend;
    Ok (t, recovery)
