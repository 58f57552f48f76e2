module Tel = Wdm_telemetry

type flush_policy = Buffered | Flush_every of int | Fsync_every of int

type instruments = {
  c_records : Tel.Metrics.counter;
  c_bytes : Tel.Metrics.counter;
  h_fsync : Tel.Histogram.t;
  sink : Tel.Sink.t;
}

type writer = {
  oc : out_channel;
  policy : flush_policy;
  mutable records : int;
  mutable unsynced : int;  (* records since the last fsync *)
  scratch : Buffer.t;  (* this writer's record encoder ({!Wire.frame_with}) *)
  instruments : instruments option;
}

let check_policy = function
  | Buffered -> ()
  | Flush_every n ->
    if n < 1 then invalid_arg "Wal.create: Flush_every interval must be >= 1"
  | Fsync_every n ->
    if n < 1 then invalid_arg "Wal.create: Fsync_every interval must be >= 1"

let instruments_of_sink (sink : Tel.Sink.t) =
  let reg = sink.Tel.Sink.metrics in
  {
    c_records =
      Tel.Metrics.counter reg ~help:"Operations appended to the WAL"
        "persist_wal_records_total";
    c_bytes =
      Tel.Metrics.counter reg ~help:"Bytes appended to the WAL (incl. framing)"
        "persist_wal_bytes_total";
    h_fsync =
      Tel.Metrics.histogram reg ~help:"Latency of one WAL fsync"
        "persist_fsync_latency_seconds";
    sink;
  }

(* A signal landing mid-fsync (SIGTERM grace, SIGUSR1 promote) returns
   EINTR with the data NOT yet durable — swallowing it silently would
   void the durability the policy promised, so retry until the kernel
   answers.  Other errors (e.g. fsync on a pipe in tests) stay
   best-effort as before. *)
let rec fsync_retry fd =
  match Unix.fsync fd with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fsync_retry fd
  | exception Unix.Unix_error _ -> ()

let fsync w =
  flush w.oc;
  (match w.instruments with
  | None -> fsync_retry (Unix.descr_of_out_channel w.oc)
  | Some i ->
    let t0 = Tel.Sink.now i.sink in
    fsync_retry (Unix.descr_of_out_channel w.oc);
    Tel.Histogram.observe i.h_fsync (Tel.Sink.now i.sink -. t0));
  w.unsynced <- 0

let create ?telemetry ?(policy = Flush_every 1) path =
  check_policy policy;
  let oc = open_out_bin path in
  output_string oc (Wire.header ~kind:'W');
  let w =
    {
      oc;
      policy;
      records = 0;
      unsynced = 0;
      scratch = Buffer.create 256;
      instruments = Option.map instruments_of_sink telemetry;
    }
  in
  (match policy with Buffered -> () | Flush_every _ | Fsync_every _ -> flush oc);
  w

(* Reopen an existing WAL for appending: the header is verified, the
   channel positioned at end-of-file.  [records] seeds the writer's
   record count (the caller knows it from scanning the file) so
   Flush_every cadence and the records counter stay meaningful. *)
let open_append ?telemetry ?(policy = Flush_every 1) ?(records = 0) path =
  check_policy policy;
  let header =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        if in_channel_length ic < Wire.header_len then
          Error "file shorter than its header"
        else Ok (really_input_string ic Wire.header_len))
  in
  (match Result.bind header (Wire.check_header ~kind:'W') with
  | Ok () -> ()
  | Error e -> invalid_arg ("Wal.open_append: " ^ e));
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc (out_channel_length oc);
  {
    oc;
    policy;
    records;
    unsynced = 0;
    scratch = Buffer.create 256;
    instruments = Option.map instruments_of_sink telemetry;
  }

let append w op =
  let framed = Wire.frame_with w.scratch Op.encode op in
  output_string w.oc framed;
  w.records <- w.records + 1;
  w.unsynced <- w.unsynced + 1;
  (match w.instruments with
  | None -> ()
  | Some i ->
    Tel.Metrics.inc i.c_records;
    Tel.Metrics.add i.c_bytes (String.length framed));
  match w.policy with
  | Buffered -> ()
  | Flush_every n -> if w.records mod n = 0 then flush w.oc
  | Fsync_every n ->
    flush w.oc;
    if w.unsynced >= n then fsync w

let records w = w.records

let tell w =
  flush w.oc;
  pos_out w.oc

let sync w = fsync w

let close w =
  flush w.oc;
  close_out w.oc

(* ----- reading --------------------------------------------------------- *)

type read_outcome = {
  ops : (int * Op.t) list;
  tear : int option;
  valid_end : int;
}

type read_error = { offset : int; reason : string }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read path =
  match read_file path with
  | exception Sys_error reason -> Error { offset = 0; reason }
  | src -> (
    match Wire.check_header ~kind:'W' src with
    | Error reason -> Error { offset = 0; reason }
    | Ok () ->
      let rec scan pos acc =
        match Wire.read_frame src ~pos with
        | Wire.End -> Ok { ops = List.rev acc; tear = None; valid_end = pos }
        | Wire.Torn at ->
          Ok { ops = List.rev acc; tear = Some at; valid_end = at }
        | Wire.Corrupt { offset; reason } -> Error { offset; reason }
        | Wire.Frame { payload; next } -> (
          match Op.decode_string payload with
          | Ok op -> scan next ((pos, op) :: acc)
          | Error reason -> Error { offset = pos; reason })
      in
      scan Wire.header_len [])

(* The truncation must itself be durable: without the fsyncs a crash
   right after recovery can resurrect the torn bytes (the shortened
   length was only in the page cache), and the next recovery would see
   a different file than the one this recovery validated.  The
   directory fsync covers filesystems that journal data and metadata
   separately. *)
let truncate_at path offset =
  if offset < Wire.header_len then
    invalid_arg "Wal.truncate_at: offset inside the header";
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd offset;
      fsync_retry fd);
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dirfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close dirfd with Unix.Unix_error _ -> ())
      (fun () -> fsync_retry dirfd)
