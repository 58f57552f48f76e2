(* Serving benchmark.  For one workload: generate the seeded trace,
   start `wdmnet serve` children, drive them from one single-threaded
   closed-loop client over one unix-socket connection, check every
   answer against an in-process twin, and print the metrics.  The last
   stdout line is the JSON result.

     serving.exe --wdmnet PATH --workload NAME [--seed N] [--seconds S]
                 [--trace 0|1] [--cpu N] [--follower-cpu N] [--tiny]
                 [--wrong-digest]

   run.py pins it to vCPU N and passes --cpu N, so that steal is read
   from that vCPU's line of /proc/stat.

   With --trace 1 a second kind of run reports per-layer metrics: the
   same served pass with client-side spans, then the trace replayed
   in-process through the server's layers (see Layers). *)

module Json = Wdm_telemetry.Json
module Client = Wdm_server.Client
module Backend = Wdm_persist.Backend
open Stats

type opts = {
  w : Workload.t;
  seed : int;
  seconds : int;  (** the timed window; 1 at the tiny size *)
  traced : bool;
  tiny : bool;  (** self-test size: short warm-up, one set-up, any second counts *)
  wrong_digest : bool;  (** self-test: expect a digest the servers cannot have *)
  wdmnet : string;
  cpu : string;  (** the /proc/stat line whose steal counts: "cpuN" when pinned to vCPU N *)
  follower_cpu : int option;  (** the vCPU the follower is moved to, away from the loop's *)
  out : string;  (** where the traced run writes its spans: .bench_out of the checkout *)
}

(* {1 Servers} *)

type fleet = {
  leader : Servers.proc;
  follower : Servers.proc option;
  client : Client.t;
  fclient : Client.t option;
}

let pids f = f.leader.pid :: Option.fold ~none:[] ~some:(fun p -> [ p.Servers.pid ]) f.follower

(* Spawn the leader (and the follower) and wait until each answers a
   request: the leader with the twin's initial digest — which proves
   the engine flags match — and the follower with the leader's. *)
let start_fleet o ~dir ~initial =
  Unix.mkdir dir 0o755;
  let deadline = now_s () +. 60. in
  let flags = Workload.serve_flags o.w.engine in
  let leader = Servers.spawn ~wdmnet:o.wdmnet ~dir ~name:"lead" flags in
  let client = Servers.dial leader ~deadline in
  let d = Servers.digest client in
  if d <> initial then
    failwith (Printf.sprintf "served initial digest %d, twin %d: engine flags differ" d initial);
  let follower, fclient =
    if not o.w.follower then (None, None)
    else begin
      let p =
        Servers.spawn ~wdmnet:o.wdmnet ~dir ~name:"fol"
          ("--follower" :: ("unix:" ^ leader.sock) :: flags)
      in
      let move () = Option.iter (fun cpu -> Servers.move p ~cpu) o.follower_cpu in
      move ();
      let c = Servers.dial p ~deadline in
      if not (Servers.await_digest c ~target:d ~deadline) then
        failwith "follower never reached the leader's digest";
      (* again, for any thread started before the first move *)
      move ();
      (Some p, Some c)
    end
  in
  { leader; follower; client; fclient }

let stop_fleet f =
  Client.close f.client;
  Option.iter Client.close f.fclient;
  Option.iter (fun p -> Servers.reap p.Servers.pid) f.follower;
  Servers.reap f.leader.pid

(* {1 Calm seconds} *)

(* A second is calm when the hypervisor stole at most this share (%)
   of the loop's vCPU in it (of the whole VM's CPU when not pinned).
   Stolen time is the host's, not the program's: a closed loop stalls
   whenever its vCPU is descheduled.  Unpinned on a 2-vCPU VM, against
   the seconds of the same run with at most 1% steal, seconds at 2% ran
   2-7% fewer requests, at 4% 8-10% fewer, at 6% 15% fewer and at
   20-25% half as many.  At the tiny size every second counts. *)
let calm_limit o = if o.tiny then 100. else 5.

(* Seconds a window may drive per second it reports: bursts of 10-30%
   steal lasted 20-40 s, and every run has to end with a result within
   its time limit, with all runs of all workloads inside one budget, so
   a window waits out short bursts only. *)
let reach = 1.25

(* {1 Set-ups} *)

(* Set-ups per end-to-end run, half before the warm-up and half after
   the checks: each takes a few milliseconds, mostly process start-up,
   and their time drifts with the host's speed over tens of seconds. *)
let setup_runs = 26

(* Set up [n] times in directories [tag]-<i>, timing each from spawn
   to ready, and keep the last.  The set-ups are spread over about a
   second, so that none overlaps the previous one's tear-down. *)
let setups o ~tag ~n ~initial =
  let gap = if o.tiny then 0. else 1. /. float_of_int n in
  let rec go i acc =
    let t0 = now_s () in
    let f = start_fleet o ~dir:(Printf.sprintf "%s-%d" tag i) ~initial in
    let acc = (now_s () -. t0) :: acc in
    if i + 1 = n then (f, Array.of_list acc)
    else begin
      stop_fleet f;
      Unix.sleepf gap;
      go (i + 1) acc
    end
  in
  go 0 []

(* {1 The timed window} *)

let send_served o f reqs =
  let fail e = failwith ("request failed: " ^ Client.error_to_string e) in
  if o.w.batch = 1 then
    match reqs with
    | [ r ] -> ( match Client.request f.client r with Ok a -> [ a ] | Error e -> fail e)
    | _ -> invalid_arg "single-op frame"
  else match Client.request_batch f.client reqs with Ok a -> a | Error e -> fail e

(* One second of a timed window: requests answered, wall and server
   CPU seconds, the host's steal (percent), and (latency in us,
   requests) per frame in send order. *)
type tally = { reqs : int; wall : float; cpu : float; steal : float; lat : (float * int) array }

(* Requests answered before the timed window opens. *)
let warmup o = if o.tiny then 200 else o.w.warmup

let total ts =
  let sum f = List.fold_left (fun acc t -> acc +. f t) 0. ts in
  let wall = sum (fun t -> t.wall) in
  {
    reqs = List.fold_left (fun acc t -> acc + t.reqs) 0 ts;
    wall;
    cpu = sum (fun t -> t.cpu);
    steal = sum (fun t -> t.steal *. t.wall) /. wall;
    lat = Array.concat (List.map (fun t -> t.lat) ts);
  }

(* Drive one-second stretches until [want] of them are calm or
   [reach *. want] have run (rounded up), and return the [want] least-stolen of them
   (the calm ones, when there are enough) in time order, and all of
   them.  [on_frame] sees each frame's index and round trip (ns).
   Before each second, the trace is drawn three times as far ahead as
   the fastest second so far ran (at first, the warm-up), so that steps
   are drawn between seconds, not inside one.  Each second's requests
   and host steal go to stderr. *)
let window o f d ~want ~on_frame =
  let send = send_served o f in
  let cpu () = List.fold_left (fun acc p -> acc +. Procfs.cpu_s p) 0. (pids f) in
  let second ~ahead =
    Workload.ensure d.Drive.trace (d.Drive.pos + ahead);
    let lat = Vec.create () in
    let r0 = d.Drive.requests and p0 = d.Drive.pos in
    let c0 = cpu () and h0 = Procfs.host_cpu o.cpu and t0 = now_s () in
    while now_s () < t0 +. 1. do
      let frame = d.Drive.frames and before = d.Drive.requests in
      let a = now_ns () in
      Drive.step d ~send;
      let rtt = now_ns () - a in
      on_frame frame rtt;
      Vec.push lat (float_of_int rtt *. 1e-3, d.Drive.requests - before)
    done;
    let t =
      {
        reqs = d.Drive.requests - r0;
        wall = now_s () -. t0;
        cpu = cpu () -. c0;
        steal = Procfs.steal_pct h0 (Procfs.host_cpu o.cpu);
        lat = Vec.to_array lat;
      }
    in
    (t, d.Drive.pos - p0)
  in
  let calm all = List.length (List.filter (fun t -> t.steal <= calm_limit o) all) in
  let rec go all ~ahead =
    if calm all >= want || float_of_int (List.length all) >= reach *. float_of_int want then
      List.rev all
    else
      let t, used = second ~ahead in
      go (t :: all) ~ahead:(max ahead (3 * used))
  in
  let all = go [] ~ahead:(3 * warmup o) in
  Printf.eprintf "serving: requests (host steal %%) per second: %s\n%!"
    (String.concat " " (List.map (fun t -> Printf.sprintf "%d(%.1f)" t.reqs t.steal) all));
  let kept =
    List.mapi (fun i t -> (i, t)) all
    |> List.stable_sort (fun (_, a) (_, b) -> compare a.steal b.steal)
    |> List.filteri (fun i _ -> i < want)
    |> List.sort (fun (i, _) (j, _) -> compare i j)
    |> List.map snd
  in
  (kept, all)

let warm_up o f d =
  let send = send_served o f in
  while d.Drive.requests < warmup o do
    Drive.step d ~send
  done

let rate t = float_of_int t.reqs /. t.wall

(* {1 Output} *)

let num x = if Float.is_finite x then Json.Float x else Json.Float (-1.)

let result ~correct ~attempted ~metrics =
  let failed = if correct then 0 else attempted in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, v) ->
                     (name, Json.Obj [ ("value", num v); ("unit", Json.String unit) ]))
                   metrics) );
          ]))

let table rows =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %16.4f %s\n" name v unit) rows

(* {1 Checks} *)

(* The end-of-run checks; [Error] names the first that failed. *)
let verify o f d ~twin_frames =
  let leader_digest = Servers.digest f.client in
  let repl =
    match f.fclient with
    | None -> Ok ()
    | Some c ->
      if Servers.await_digest c ~target:leader_digest ~deadline:(now_s () +. 60.) then Ok ()
      else Error "the follower never reached the leader's digest"
  in
  let twin, twin_backend = twin_frames () in
  let expected = Backend.digest twin_backend + if o.wrong_digest then 1 else 0 in
  let blocked =
    if Workload.nonblocking o.w && d.Drive.refusals > 0 then
      Error (Printf.sprintf "%d connects refused on a Theorem-1 fabric" d.Drive.refusals)
    else Ok ()
  in
  let outputs =
    match Drive.diverges d twin with
    | Some i -> Error (Printf.sprintf "answer %d differs from the twin's" i)
    | None ->
      if leader_digest <> expected then
        Error (Printf.sprintf "final digest %d, twin %d" leader_digest expected)
      else Ok ()
  in
  List.fold_left
    (fun acc r -> match acc with Error _ -> acc | Ok () -> r)
    (Ok ()) [ outputs; blocked; repl ]

let report_check = function
  | Ok () -> true
  | Error e ->
    Printf.printf "TWIN CHECK FAILED: %s\n%!" e;
    Printf.eprintf "serving: twin check failed: %s\n%!" e;
    false

(* {1 Runs} *)

let phase name t0 = Printf.eprintf "serving: %s %.2fs\n%!" name (now_s () -. t0)

let end_to_end o trace ~initial =
  let t0 = now_s () in
  let half = if o.tiny then 1 else setup_runs / 2 in
  let f, early = setups o ~tag:"a" ~n:half ~initial in
  phase "set-ups" t0;
  let t0 = now_s () in
  let d = Drive.create o.w trace in
  warm_up o f d;
  phase "warm-up" t0;
  let self0 = Unix.times () in
  let kept, seconds = window o f d ~want:o.seconds ~on_frame:(fun _ _ -> ()) in
  let self1 = Unix.times () in
  let all = total seconds and tally = total kept in
  let stolen = List.filter (fun t -> t.steal > calm_limit o) kept in
  let client_cpu = self1.Unix.tms_utime +. self1.Unix.tms_stime -. self0.Unix.tms_utime -. self0.Unix.tms_stime in
  let rss_mb =
    float_of_int (List.fold_left (fun acc p -> acc + Procfs.vm_hwm_kb p) 0 (pids f)) /. 1024.
  in
  let t0 = now_s () in
  let check = verify o f d ~twin_frames:(fun () -> Drive.twin o.w trace ~frames:d.frames) in
  stop_fleet f;
  phase "checks" t0;
  let last, late = setups o ~tag:"b" ~n:half ~initial in
  stop_fleet last;
  let setup_times = Array.append early late in
  let correct = report_check check in
  let lat = tally.lat in
  let connects = max 1 d.Drive.connects in
  let blocked = float_of_int d.Drive.refusals /. float_of_int connects in
  let failed_frac = if correct then 0. else 1. in
  let metrics =
    [
      ("req_per_s", "req/s", rate tally);
      ("lat_p50_us", "us", weighted_quantile 0.5 lat);
      ("lat_p90_us", "us", chunked_quantile 0.90 lat);
      ("cpu_us_per_req", "us", 1e6 *. tally.cpu /. float_of_int tally.reqs);
      ("setup_s", "s", median setup_times);
      ("peak_rss_mb", "MiB", rss_mb);
      ("admitted_frac", "ratio", 1. -. blocked);
      ("ok_frac", "ratio", 1. -. failed_frac);
    ]
  in
  Printf.printf
    "workload %s, seed %d: %d requests in %d of %d seconds (latency samples: %d requests in %d frames), %d in the run\n"
    o.w.name o.seed tally.reqs (List.length kept) (List.length seconds) tally.reqs
    (Array.length lat) d.Drive.requests;
  if stolen <> [] then
    Printf.printf "host unsteady: %d of the %d seconds kept had more than %g%% steal (up to %.1f%%)\n"
      (List.length stolen) (List.length kept) (calm_limit o)
      (List.fold_left (fun acc t -> Float.max acc t.steal) 0. stolen);
  table metrics;
  table
    [
      ("blocked_frac", "ratio", blocked);
      ("failed_frac", "ratio", failed_frac);
      ("host.steal_pct (all seconds)", "%", all.steal);
      ("host.steal_pct (seconds kept)", "%", tally.steal);
      ("req_per_s (all seconds)", "req/s", rate all);
      ("lat_p95_us", "us", chunked_quantile 0.95 lat);
      ("lat_p99_us", "us", chunked_quantile 0.99 lat);
      ("lat_p99_us (all seconds)", "us", chunked_quantile 0.99 all.lat);
      ("client cpu_us_per_req", "us", 1e6 *. client_cpu /. float_of_int all.reqs);
      ("client peak_rss_mb", "MiB", float_of_int (Procfs.vm_hwm_kb (Unix.getpid ())) /. 1024.);
    ];
  result ~correct ~attempted:d.Drive.requests ~metrics

let traced o trace ~initial =
  let f, _ = setups o ~tag:"s" ~n:1 ~initial in
  let d = Drive.create o.w trace in
  warm_up o f d;
  let half = max 1 (o.seconds / 2) in
  let ctx0 = List.fold_left (fun acc p -> acc + Procfs.ctx_switches p) 0 (pids f) in
  let plain, plain_all = window o f d ~want:half ~on_frame:(fun _ _ -> ()) in
  let ctx = List.fold_left (fun acc p -> acc + Procfs.ctx_switches p) 0 (pids f) - ctx0 in
  let threads = List.fold_left (fun acc p -> acc + Procfs.threads p) 0 (pids f) in
  let client = Layers.Spans.create () in
  let first = d.Drive.frames in
  let spanned, spanned_all =
    window o f d ~want:half ~on_frame:(fun frame rtt ->
        Layers.client_frame client ~batch:o.w.batch d ~frame ~rtt)
  in
  let lag, catchup_ms = Layers.catch_up o.w ~wdmnet:o.wdmnet ~leader_sock:f.leader.sock f.client f.fclient in
  Gc.compact ();
  let pass = Layers.in_process o.w trace ~frames:d.Drive.frames ~first in
  let check = verify o f d ~twin_frames:(fun () -> (pass.Layers.drive, pass.Layers.backend)) in
  stop_fleet f;
  let correct = report_check check in
  let untraced = rate (total plain) and traced_rate = rate (total spanned) in
  let metrics =
    Layers.metrics o.w client pass
    @ [
        ("Server.ctx_switches_per_req", "count/req", float_of_int ctx /. float_of_int (total plain_all).reqs);
        ("Server.threads", "count", float_of_int threads);
        ("Repl.lag_ops_end", "count", float_of_int lag);
        ("Repl.catchup_ms", "ms", catchup_ms);
        ("host.steal_pct", "%", (total (plain_all @ spanned_all)).steal);
        ("trace.overhead_pct", "%", 100. *. (untraced -. traced_rate) /. untraced);
      ]
  in
  Printf.printf "workload %s, seed %d (traced): %.0f req/s untraced, %.0f req/s traced\n"
    o.w.name o.seed untraced traced_rate;
  Layers.print_breakdown o.w client pass;
  table metrics;
  Layers.write_spans client pass
    (Filename.concat o.out (Printf.sprintf "spans-%s-seed%d.tsv" o.w.name o.seed));
  result ~correct ~attempted:d.Drive.requests ~metrics

(* {1 Entry point} *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let tiny = ref false and wrong = ref false and wdmnet = ref "" in
  let cpu = ref (-1) and follower_cpu = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ms-seq, ms-repl or mesh-batch");
      ("--seed", Arg.Set_int seed, "N trace seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S timed window (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--wdmnet", Arg.Set_string wdmnet, "PATH the wdmnet executable");
      ("--cpu", Arg.Set_int cpu, "N the vCPU this process and its children are pinned to");
      ("--follower-cpu", Arg.Set_int follower_cpu, "N the vCPU to move the follower to");
      ("--tiny", Arg.Set tiny, " self-test size: 1s window, short warm-up, one set-up");
      ("--wrong-digest", Arg.Set wrong, " self-test: expect a wrong final digest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "serving.exe --wdmnet PATH --workload NAME [options]";
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("serving: unknown workload " ^ !workload);
      exit 2
  in
  if !wdmnet = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "serving: need --wdmnet, --seconds >= 1 and --trace 0 or 1";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let o =
    {
      w;
      seed = !seed;
      seconds = (if !tiny then 1 else !seconds);
      traced = !trace = 1;
      tiny = !tiny;
      wrong_digest = !wrong;
      wdmnet = !wdmnet;
      cpu = (if !cpu < 0 then "cpu" else Printf.sprintf "cpu%d" !cpu);
      follower_cpu = (if !follower_cpu < 0 then None else Some !follower_cpu);
      out = ".bench_out";
    }
  in
  let t0 = now_s () in
  (* the warm-up's steps and the first second's margin *)
  let trace = Workload.trace w ~seed:o.seed in
  Workload.ensure trace (4 * warmup o);
  phase "trace generation" t0;
  let initial = Backend.digest (Workload.backend w.engine) in
  (try Unix.mkdir o.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* servers and their files live in a private directory, entered so
     that socket paths stay short whatever the checkout's path *)
  let work = Printf.sprintf ".bench_run/%s-%d" w.name (Unix.getpid ()) in
  (try Unix.mkdir ".bench_run" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir work 0o755;
  let home = Sys.getcwd () in
  Sys.chdir work;
  let absolute p = if Filename.is_relative p then Filename.concat home p else p in
  let o = { o with out = absolute o.out; wdmnet = absolute o.wdmnet } in
  let finally () =
    Servers.kill_all ();
    Sys.chdir home;
    remove_tree work
  in
  match if o.traced then traced o trace ~initial else end_to_end o trace ~initial with
  | () -> finally ()
  | exception e ->
    finally ();
    prerr_endline ("serving: " ^ Printexc.to_string e);
    exit 1
