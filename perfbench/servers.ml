(* `wdmnet serve` child processes: spawn, readiness, tear-down.  Every
   child is tracked so that any exit path kills and reaps it. *)

module Server = Wdm_server.Server
module Client = Wdm_server.Client

type proc = { pid : int; sock : string; log : string }

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () = List.iter reap !live
let () = at_exit kill_all

let spawn ~wdmnet ~dir ~name args =
  let sock = Filename.concat dir (name ^ ".sock") in
  let wal = Filename.concat dir (name ^ ".wal") in
  let log = Filename.concat dir (name ^ ".log") in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = wdmnet :: "serve" :: "--listen" :: ("unix:" ^ sock) :: "--wal" :: wal :: args in
  let pid = Unix.create_process wdmnet (Array.of_list argv) Unix.stdin fd fd in
  Unix.close fd;
  live := pid :: !live;
  { pid; sock; log }

external pin : int -> int -> bool = "perfbench_pin"

(* Move every thread of [p] onto vCPU [cpu]; threads it starts later
   inherit the affinity of the thread that starts them. *)
let move p ~cpu =
  let tids = try Sys.readdir (Printf.sprintf "/proc/%d/task" p.pid) with Sys_error _ -> [||] in
  Array.iter (fun tid -> ignore (pin (int_of_string tid) cpu)) tids;
  if not (pin p.pid cpu) then failwith (Printf.sprintf "cannot pin %s to cpu %d" p.sock cpu)

let log_tail p = try In_channel.with_open_bin p.log In_channel.input_all with Sys_error _ -> ""

let check_alive p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> ()
  | _ ->
    live := List.filter (( <> ) p.pid) !live;
    failwith (Printf.sprintf "wdmnet serve (%s) exited:\n%s" p.sock (log_tail p))

(* Dial until the child listens; [deadline] is absolute. *)
let rec dial p ~deadline =
  match Client.connect ~dial_timeout:1. ~deadline:60. (Server.Unix_socket p.sock) with
  | Ok c -> c
  | Error e ->
    check_alive p;
    if Stats.now_s () > deadline then
      failwith ("cannot reach " ^ p.sock ^ ": " ^ Client.error_to_string e);
    Unix.sleepf 0.0002;
    dial p ~deadline

let digest c =
  match Client.digest c with
  | Ok d -> d
  | Error e -> failwith ("digest: " ^ Client.error_to_string e)

(* Poll [c] until its digest equals [target]; [false] at [deadline]. *)
let rec await_digest c ~target ~deadline =
  if digest c = target then true
  else if Stats.now_s () > deadline then false
  else begin
    Unix.sleepf 0.0005;
    await_digest c ~target ~deadline
  end

(* "applied" from a node's Get_stats: committed ops it has applied. *)
let applied c =
  match Client.stats_json c with
  | Error e -> failwith ("stats: " ^ Client.error_to_string e)
  | Ok s -> (
    match Result.to_option (Wdm_telemetry.Json.parse s) with
    | Some j -> (
      match Option.bind (Wdm_telemetry.Json.member "applied" j) Wdm_telemetry.Json.to_int with
      | Some n -> n
      | None -> failwith "stats without \"applied\"")
    | None -> failwith "unparsable stats")
