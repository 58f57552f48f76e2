(* Host and process counters read from procfs around the timed window. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* USER_HZ: the unit of the /proc tick counters on every Linux ABI *)
let ticks_per_s = 100.

let words s =
  String.map (fun c -> if c = '\t' then ' ' else c) s
  |> String.split_on_char ' ' |> List.filter (( <> ) "")

(* utime + stime of every thread of [pid], in seconds.  The fields
   after the parenthesised command name start at field 3 (state), so
   utime (field 14) and stime (field 15) sit at offsets 11 and 12. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  match words rest with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: ut :: st :: _ ->
    float_of_int (int_of_string ut + int_of_string st) /. ticks_per_s
  | _ -> failwith ("unparsable /proc/" ^ string_of_int pid ^ "/stat")

(* One integer field of a /proc status file, e.g. "VmHWM:  1234 kB". *)
let status_field path key =
  let prefix = key ^ ":" in
  let plen = String.length prefix in
  read_file path |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.length line > plen && String.sub line 0 plen = prefix then
           match words (String.sub line plen (String.length line - plen)) with
           | v :: _ -> int_of_string_opt v
           | [] -> None
         else None)
  |> Option.value ~default:0

let status pid key = status_field (Printf.sprintf "/proc/%d/status" pid) key
let vm_hwm_kb pid = status pid "VmHWM"
let threads pid = status pid "Threads"

(* Voluntary plus involuntary context switches summed over every
   thread: /proc/<pid>/status counts only the main thread. *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Sys.readdir dir |> Array.to_list
  |> List.fold_left
       (fun acc tid ->
         let path = Printf.sprintf "%s/%s/status" dir tid in
         match
           status_field path "voluntary_ctxt_switches"
           + status_field path "nonvoluntary_ctxt_switches"
         with
         | n -> acc + n
         | exception Sys_error _ -> acc (* the thread exited meanwhile *))
       0

(* (total, steal) jiffies of one line of /proc/stat: [cpu] is "cpu"
   for the whole VM or "cpuN" for vCPU N. *)
let host_cpu cpu =
  let line =
    String.split_on_char '\n' (read_file "/proc/stat")
    |> List.find_opt (fun l -> match words l with c :: _ -> c = cpu | [] -> false)
  in
  match Option.map words line with
  | Some (_ :: fields) ->
    let v = List.map int_of_string fields in
    let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
    (* guest time is already counted inside user and nice *)
    let counted = List.filteri (fun i _ -> i < 8) v in
    (List.fold_left ( + ) 0 counted, steal)
  | _ -> failwith ("no " ^ cpu ^ " line in /proc/stat")

let steal_pct (t0, s0) (t1, s1) =
  if t1 > t0 then 100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.
