(* The shape of BENCH_results.json, one table entry per row: the rules
   `bench/main.exe --validate` gates a results file on (CI runs it on
   every quick run) and test_schema holds the committed file to.  A
   rule is data; [check] walks a document against [results] and names
   the first path that breaks a rule. *)

module J = Wdm_telemetry.Json

type 'a bound = Ge of 'a | Gt of 'a | Le of 'a

type rule =
  | Int of int bound list
  | Num of float bound list
  | Str of { nonempty : bool; one_of : string list (* [] allows any *) }
  | Bool
  | True
  | Nullable of rule
  | Obj of {
      req : (string * rule) list;
      opt : (string * rule) list;
      conds : cond list;
    }
  | List of {
      item : rule;
      distinct : distinct list;
      has : (string * string) list;  (* some item has key = value *)
    }

(* Cross-field conditions on an object; fields are dotted paths. *)
and cond =
  | Ordered of string * string * string  (* lo <= mid <= hi *)
  | Sum of string list * string  (* the parts add up to the total *)
  | At_most of string * string  (* a <= b *)
  | Pos_unless_zero of string * string list
      (* the fields are > 0 unless the guard field is 0 *)

(* At least [min] distinct values of [key] among the items, and within
   each group of items that agree on the [within] keys. *)
and distinct = { within : string list; key : string; min : int }

exception Violation of string

let fail fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let rec at path j =
  match String.index_opt path '.' with
  | None -> J.member path j
  | Some i ->
    Option.bind
      (J.member (String.sub path 0 i) j)
      (at (String.sub path (i + 1) (String.length path - i - 1)))

let sub ctx key = if ctx = "" then key else ctx ^ "." ^ key

let number ctx path j =
  match Option.bind (at path j) J.to_float_opt with
  | Some v -> v
  | None -> fail "%s is not a number" (sub ctx path)

let bounded ctx show v =
  List.iter (fun b ->
      let ok, op, x =
        match b with
        | Ge x -> (v >= x, ">=", x)
        | Gt x -> (v > x, ">", x)
        | Le x -> (v <= x, "<=", x)
      in
      if not ok then fail "%s %s is not %s %s" ctx (show v) op (show x))

let cond ctx j = function
  | Ordered (lo, mid, hi) ->
    let l = number ctx lo j and m = number ctx mid j and h = number ctx hi j in
    if not (l <= m && m <= h) then
      fail "%s %g is outside [%s %g, %s %g]" (sub ctx mid) m lo l hi h
  | Sum (parts, total) ->
    let sum = List.fold_left (fun acc p -> acc +. number ctx p j) 0. parts in
    let t = number ctx total j in
    if sum <> t then
      fail "%s: %s %g <> %s %g" ctx total t (String.concat " + " parts) sum
  | At_most (a, b) ->
    let x = number ctx a j and y = number ctx b j in
    if x > y then fail "%s %g exceeds %s %g" (sub ctx a) x b y
  | Pos_unless_zero (guard, fields) ->
    if number ctx guard j <> 0. then
      List.iter
        (fun f ->
          let v = number ctx f j in
          if not (v > 0.) then
            fail "%s %g is not positive (%s is not 0)" (sub ctx f) v guard)
        fields

let rec check_rule ctx rule j =
  match (rule, j) with
  | Nullable _, J.Null -> ()
  | Nullable r, _ -> check_rule ctx r j
  | Int bounds, _ -> (
    match J.to_int j with
    | Some v -> bounded ctx string_of_int v bounds
    | None -> fail "%s is not an int" ctx)
  | Num bounds, _ -> (
    match J.to_float_opt j with
    | Some v -> bounded ctx (Printf.sprintf "%g") v bounds
    | None -> fail "%s is not a number" ctx)
  | Str { nonempty; one_of }, J.String s ->
    if nonempty && s = "" then fail "%s is empty" ctx;
    if one_of <> [] && not (List.mem s one_of) then
      fail "%s %S is not one of %s" ctx s (String.concat ", " one_of)
  | Str _, _ -> fail "%s is not a string" ctx
  | Bool, J.Bool _ -> ()
  | True, J.Bool b -> if not b then fail "%s is false" ctx
  | (Bool | True), _ -> fail "%s is not a bool" ctx
  | Obj { req; opt; conds }, J.Obj _ ->
    List.iter
      (fun (key, _) ->
        if J.member key j = None then fail "%s is missing" (sub ctx key))
      req;
    List.iter
      (fun (key, r) -> Option.iter (check_rule (sub ctx key) r) (J.member key j))
      (req @ opt);
    List.iter (cond ctx j) conds
  | Obj _, _ -> fail "%s is not an object" ctx
  | List { item; distinct; has }, J.List items ->
    List.iteri (fun i x -> check_rule (Printf.sprintf "%s[%d]" ctx i) item x)
      items;
    List.iter (check_distinct ctx items) distinct;
    List.iter
      (fun (key, v) ->
        if not (List.exists (fun x -> J.member key x = Some (J.String v)) items)
        then fail "%s has no item with %s %S" ctx key v)
      has
  | List _, _ -> fail "%s is not a list" ctx

and check_distinct ctx items { within; key; min } =
  let group x = List.map (fun k -> J.member k x) within in
  (* with no [within] keys the whole list is one group, even when empty *)
  let groups =
    if within = [] then [ [] ] else List.sort_uniq compare (List.map group items)
  in
  List.iter
    (fun g ->
      let values =
        List.sort_uniq compare
          (List.filter_map
             (fun x -> if group x = g then J.member key x else None)
             items)
      in
      if List.length values < min then
        fail "%s: %d distinct %s%s, need at least %d" ctx (List.length values)
          key
          (if within = [] then ""
           else " per " ^ String.concat ", " within ^ " group")
          min)
    groups

(* ----- the table ------------------------------------------------------- *)

let int = Int []
let num = Num []
let pos = Num [ Gt 0. ]
let prob = Num [ Ge 0.; Le 1. ]
let str = Str { nonempty = false; one_of = [] }
let obj ?(opt = []) ?(conds = []) req = Obj { req; opt; conds }
let list ?(distinct = []) ?(has = []) item = List { item; distinct; has }
let all rule keys = List.map (fun key -> (key, rule)) keys
let distinct ?(within = []) key min = { within; key; min }

(* one outcome class of a mesh_connect row: its timings may be 0 only
   when it saw no connects *)
let connect_class =
  let timings =
    [ "mean_us"; "mean_us_min"; "mean_us_max"; "p50_us"; "p99_us" ]
  in
  obj (("count", int) :: all num timings)
    ~conds:
      [
        Pos_unless_zero ("count", timings);
        Ordered ("mean_us_min", "mean_us", "mean_us_max");
      ]

(* median, min and max over a row's trials *)
let spread =
  obj
    (all pos [ "median"; "min"; "max" ])
    ~conds:[ Ordered ("min", "median", "max") ]

(* one stage of a codec input: its time per frame and per byte, and the
   words one frame allocates *)
let codec_stage =
  obj
    (all spread [ "ns_per_frame"; "ns_per_byte" ]
    @ all (Num [ Ge 0. ]) [ "minor_words"; "major_words" ])

let rearrangement_case =
  let strategy = [ "min-intersection"; "first-fit" ] in
  obj
    (all (Int [ Ge 1 ]) [ "n"; "k"; "m" ]
    @ [
        ("strategy", Str { nonempty = false; one_of = strategy });
        ("blocked", Bool);
        ("mean_us", Nullable pos);
        ("admitted", Nullable Bool);
        ("moves", Nullable (Int [ Ge 0 ]));
      ])

let results =
  obj
    [
      ( "build",
        obj
          (all
             (Str { nonempty = true; one_of = [] })
             [ "ocaml"; "profile"; "commit" ]
          @ [ ("host", obj [ ("vcpus", Int [ Ge 1 ]) ] ~opt:[ ("model", str) ]) ])
      );
      ( "benchmarks",
        list
          (obj
             [
               ("name", str);
               ("params", obj []);
               ("mean_ns", Nullable num);
               ("iterations", int);
             ]) );
      ( "routing_throughput",
        obj
          ([
             ( "params",
               obj
                 (all int
                    [ "big_n"; "n"; "r"; "k"; "m"; "steps"; "connect_ops";
                      "total_ops" ]) );
             ("trials", Int [ Ge 5 ]);
             ("accepted", Int [ Ge 0 ]);
             ("route_checksum", int);
             ( "rearrangement",
               (* both strategies at every (n, k, m) *)
               list rearrangement_case
                 ~distinct:
                   [
                     distinct "strategy" 2;
                     distinct ~within:[ "n"; "k"; "m" ] "strategy" 2;
                   ] );
           ]
          @ all pos
              [ "elapsed_s"; "connects_per_s"; "connects_per_s_min";
                "connects_per_s_max" ])
          ~conds:
            [
              Ordered
                ("connects_per_s_min", "connects_per_s", "connects_per_s_max");
              At_most ("accepted", "params.connect_ops");
            ] );
      ( "persistence",
        obj
          [
            ( "wal",
              obj
                (("trials", Int [ Ge 5 ])
                :: all (Int [ Ge 0 ]) [ "records"; "bytes" ]
                @ all num [ "elapsed_s"; "baseline_s"; "overhead_pct" ]) );
            ( "snapshot",
              obj
                (all (Int [ Ge 0 ]) [ "bytes"; "routes" ]
                @ all num [ "write_ms"; "restore_ms" ]) );
            ( "recovery",
              obj [ ("replayed", Int [ Ge 0 ]); ("digest_match", True) ] );
          ] );
      ( "mesh_blocking",
        obj
          (all int [ "seed"; "wavelengths"; "arrivals_per_cell" ]
          @ [
              ( "cells",
                list
                  ~distinct:[ distinct "topo" 2; distinct "strategy" 2 ]
                  (obj
                     (all str [ "topo"; "strategy" ]
                     @ all int [ "arrivals"; "accepted"; "blocked" ]
                     @ [
                         ("erlangs", num);
                         ("blocking", prob);
                         ("mean_active", num);
                       ])
                     ~conds:[ Sum ([ "accepted"; "blocked" ], "arrivals") ]) );
            ]) );
      ( "mesh_connect",
        obj
          [
            ("topo", Str { nonempty = true; one_of = [] });
            ("wavelengths", Int [ Ge 1 ]);
            ("erlangs", pos);
            ("fanout_max", Int [ Ge 1 ]);
            ("seed", int);
            ("warmup", Int [ Ge 0 ]);
            ( "rows",
              (* both sides of the refusal gate: every node splitting,
                 and a sparse set *)
              list
                ~distinct:[ distinct "strategy" 5; distinct "splitters" 2 ]
                ~has:[ ("splitters", "all") ]
                (obj
                   (all str [ "strategy"; "splitters" ]
                   @ [
                       ("trials", Int [ Ge 3 ]);
                       ("outcome_checksum", int);
                       ("arrivals", int);
                     ]
                   @ all pos [ "total_ms"; "total_ms_min"; "total_ms_max" ]
                   @ all connect_class [ "unicast"; "multicast"; "refused" ])
                   ~conds:
                     [
                       Ordered ("total_ms_min", "total_ms", "total_ms_max");
                       Sum
                         ( [ "unicast.count"; "multicast.count";
                             "refused.count" ],
                           "arrivals" );
                     ]) );
          ] );
      ( "codec",
        obj
          [
            ("trials", Int [ Ge 5 ]);
            ( "inputs",
              (* mesh-batch's frame and ms-seq's *)
              list ~distinct:[ distinct "name" 2 ]
                (obj
                   ([
                      ("name", Str { nonempty = true; one_of = [] });
                      ("requests", Int [ Ge 1 ]);
                      ("iterations", Int [ Ge 1 ]);
                      ("wal_records", Int [ Ge 0 ]);
                      ("crc", obj [ ("ns_per_byte", spread) ]);
                    ]
                   @ all (Int [ Ge 9 ]) [ "request_bytes"; "response_bytes" ]
                   @ all codec_stage [ "encode"; "decode"; "wal_append" ])) );
          ] );
      ( "strategy_compare",
        obj
          [
            ("seed", int);
            ("strategies", list (Str { nonempty = true; one_of = [] }));
            ( "cells",
              list
                ~distinct:
                  [
                    distinct "strategy" 2;
                    distinct "workload" 2;
                    distinct "engine" 2;
                  ]
                (obj
                   (all str [ "engine"; "workload"; "strategy" ]
                   @ all int [ "attempts"; "accepted"; "blocked" ]
                   @ [
                       ("blocking", prob);
                       ("mean_connect_us", Num [ Ge 0. ]);
                     ])
                   ~conds:[ Sum ([ "accepted"; "blocked" ], "attempts") ]) );
          ] );
    ]

let check doc =
  match doc with
  | J.Obj _ -> (
    match check_rule "" results doc with
    | () -> Ok ()
    | exception Violation e -> Error e)
  | _ -> Error "the document is not an object"
