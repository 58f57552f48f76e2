(* The schema against the committed BENCH_results.json: the file passes,
   and each single-rule mutation of it fails (a few mutations the rules
   allow must still pass).  CI validates only the file its quick run has
   just written; this keeps the committed ledger honest too. *)

module J = Wdm_telemetry.Json

let committed () =
  let text =
    In_channel.with_open_bin "../BENCH_results.json" In_channel.input_all
  in
  match J.parse text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "BENCH_results.json: %s" e

(* [edit path f doc] replaces the value at a dotted [path] with [f] of
   it ([None] removes it).  A numeric step indexes a list and "*" visits
   every item. *)
let edit path f doc =
  let rec go steps j =
    match (steps, j) with
    | step :: rest, J.List items ->
      J.List
        (List.concat
           (List.mapi
              (fun i x ->
                if step = "*" || step = string_of_int i then
                  if rest = [] then Option.to_list (f x) else [ go rest x ]
                else [ x ])
              items))
    | key :: rest, J.Obj kvs ->
      J.Obj
        (List.filter_map
           (fun (k, v) ->
             if k <> key then Some (k, v)
             else if rest = [] then Option.map (fun v -> (k, v)) (f v)
             else Some (k, go rest v))
           kvs)
    | _ -> Alcotest.failf "%s: no such path" path
  in
  go (String.split_on_char '.' path) doc

let set v = fun _ -> Some v
let remove = fun _ -> None

let add n = function
  | J.Int i -> Some (J.Int (i + n))
  | _ -> Alcotest.fail "add: not an int"

(* (what it breaks, path, edit) *)
let mutations =
  [
    (* missing keys *)
    ("missing build", "build", remove);
    ("missing snapshot.write_ms", "persistence.snapshot.write_ms", remove);
    ("missing a mesh_connect class", "mesh_connect.rows.0.refused", remove);
    ("missing strategy_compare", "strategy_compare", remove);
    (* wrong types *)
    ( "route_checksum a string",
      "routing_throughput.route_checksum", set (J.String "x") );
    ("params a list", "benchmarks.0.params", set (J.List []));
    ("iterations a float", "benchmarks.0.iterations", set (J.Float 1.5));
    ("host model an int", "build.host.model", set (J.Int 1));
    ("benchmarks an object", "benchmarks", set (J.Obj []));
    ( "digest_match a string",
      "persistence.recovery.digest_match", set (J.String "true") );
    (* trials below the minimum *)
    ("routing trials 4", "routing_throughput.trials", set (J.Int 4));
    ("wal trials 4", "persistence.wal.trials", set (J.Int 4));
    ("mesh_connect trials 2", "mesh_connect.rows.0.trials", set (J.Int 2));
    (* lo <= mid <= hi *)
    ( "connects_per_s above max",
      "routing_throughput.connects_per_s_max", set (J.Float 1.) );
    ("total_ms below min", "mesh_connect.rows.0.total_ms_min", set (J.Float 1e9));
    ( "mean_us above max",
      "mesh_connect.rows.0.unicast.mean_us_max", set (J.Float 1e-9) );
    (* positivity and bounds *)
    ("elapsed_s 0", "routing_throughput.elapsed_s", set (J.Float 0.));
    ( "p99_us 0 with connects",
      "mesh_connect.rows.0.unicast.p99_us", set (J.Float 0.) );
    ( "accepted above connect_ops",
      "routing_throughput.accepted", set (J.Int 1_000_000_000) );
    ("accepted negative", "routing_throughput.accepted", set (J.Int (-1)));
    ( "mean_connect_us negative",
      "strategy_compare.cells.0.mean_connect_us", set (J.Float (-1.)) );
    ("vcpus 0", "build.host.vcpus", set (J.Int 0));
    (* counts that do not sum *)
    ("mesh_blocking blocked + 1", "mesh_blocking.cells.0.blocked", add 1);
    ("strategy_compare accepted + 1", "strategy_compare.cells.0.accepted", add 1);
    ("mesh_connect refused + 1", "mesh_connect.rows.0.refused.count", add 1);
    (* digest_match false *)
    ( "recovery diverged",
      "persistence.recovery.digest_match", set (J.Bool false) );
    (* blocking outside [0, 1] *)
    ( "mesh_blocking blocking 1.5",
      "mesh_blocking.cells.0.blocking", set (J.Float 1.5) );
    ( "strategy_compare blocking -0.1",
      "strategy_compare.cells.0.blocking", set (J.Float (-0.1)) );
    (* too few distinct values *)
    ("one topology", "mesh_blocking.cells.*.topo", set (J.String "nsf14"));
    ( "one mesh_blocking strategy",
      "mesh_blocking.cells.*.strategy", set (J.String "first-fit") );
    ( "one mesh_connect strategy",
      "mesh_connect.rows.*.strategy", set (J.String "first-fit") );
    ( "one compare strategy",
      "strategy_compare.cells.*.strategy", set (J.String "first-fit") );
    ( "one compare workload",
      "strategy_compare.cells.*.workload", set (J.String "w") );
    ("one engine", "strategy_compare.cells.*.engine", set (J.String "mesh"));
    ( "no sparse splitters row",
      "mesh_connect.rows.*.splitters", set (J.String "all") );
    ( "no all-splitting row",
      "mesh_connect.rows.*.splitters", set (J.String "degree:3") );
    (* the build stamp *)
    ("empty build commit", "build.commit", set (J.String ""));
    (* rearrangement rows *)
    ( "a missing rearrangement strategy",
      "routing_throughput.rearrangement.3", remove );
    ( "an enum-spelled strategy",
      "routing_throughput.rearrangement.0.strategy",
      set (J.String "min_intersection") );
    ("no rearrangement rows", "routing_throughput.rearrangement.*", remove);
    (* integer counts *)
    ("wal records 1.5", "persistence.wal.records", set (J.Float 1.5));
    ("wal bytes negative", "persistence.wal.bytes", set (J.Int (-1)));
    ("snapshot bytes 2.5", "persistence.snapshot.bytes", set (J.Float 2.5));
    ("snapshot routes -3", "persistence.snapshot.routes", set (J.Int (-3)));
    ( "mesh_connect minor_words missing",
      "mesh_connect.rows.0.multicast.minor_words", remove );
    ( "mesh_connect minor_words 1.5",
      "mesh_connect.rows.0.unicast.minor_words", set (J.Float 1.5) );
    ( "mesh_connect minor_words negative",
      "mesh_connect.rows.0.refused.minor_words", set (J.Int (-1)) );
    (* fields the parent validator never checked *)
    ("missing recovery.replayed", "persistence.recovery.replayed", remove);
    ("missing params.steps", "routing_throughput.params.steps", remove);
    ("missing compare strategies", "strategy_compare.strategies", remove);
    ("missing mesh_connect.topo", "mesh_connect.topo", remove);
    ("missing mesh_connect.wavelengths", "mesh_connect.wavelengths", remove);
    ("missing mesh_connect.erlangs", "mesh_connect.erlangs", remove);
    ("missing mesh_connect.fanout_max", "mesh_connect.fanout_max", remove);
    ("missing mesh_connect.seed", "mesh_connect.seed", remove);
    ("missing mesh_connect.warmup", "mesh_connect.warmup", remove);
    (* the codec row *)
    ("missing codec", "codec", remove);
    ("codec trials 4", "codec.trials", set (J.Int 4));
    ("one codec input", "codec.inputs.*.name", set (J.String "mesh-batch"));
    ("missing codec decode", "codec.inputs.0.decode", remove);
    ( "encode median above max",
      "codec.inputs.0.encode.ns_per_frame.max", set (J.Float 1e-9) );
    ( "major_words negative",
      "codec.inputs.0.encode.major_words", set (J.Float (-1.)) );
    ( "crc ns_per_byte 0",
      "codec.inputs.1.crc.ns_per_byte.min", set (J.Float 0.) );
    ("response_bytes 8", "codec.inputs.1.response_bytes", set (J.Int 8));
  ]

(* edits the rules allow *)
let allowed =
  [
    ("a failed regression", "benchmarks.0.mean_ns", set J.Null);
    ("no CPU model", "build.host.model", remove);
    ("an integral float", "routing_throughput.trials", set (J.Float 5.));
    ( "a case that never blocked",
      "routing_throughput.rearrangement.0",
      set
        (J.Obj
           [
             ("n", J.Int 3); ("k", J.Int 1); ("m", J.Int 3);
             ("strategy", J.String "min-intersection");
             ("blocked", J.Bool false); ("mean_us", J.Null);
             ("admitted", J.Null); ("moves", J.Null);
           ]) );
    ( "an unchecked extra key",
      "build.host",
      function
      | J.Obj kvs -> Some (J.Obj (("extra", J.Int 1) :: kvs))
      | _ -> None );
  ]

let test_committed () =
  match Schema.check (committed ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "the committed file fails: %s" e

let test_rejects (what, path, f) () =
  match Schema.check (edit path f (committed ())) with
  | Ok () -> Alcotest.failf "%s (%s) passed" what path
  | Error _ -> ()

(* the file the parent validator let through: all four edits at once *)
let test_rejects_unchecked_file () =
  let doc =
    List.fold_left
      (fun doc (path, f) -> edit path f doc)
      (committed ())
      [
        ("persistence.wal.records", set (J.Float 1.5));
        ("persistence.snapshot.routes", set (J.Int (-3)));
        ("persistence.recovery.replayed", remove);
        ("mesh_connect.wavelengths", remove);
      ]
  in
  match Schema.check doc with
  | Ok () -> Alcotest.fail "passed"
  | Error _ -> ()

let test_allows (what, path, f) () =
  match Schema.check (edit path f (committed ())) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s (%s) failed: %s" what path e

let () =
  let case f ((what, _, _) as m) = Alcotest.test_case what `Quick (f m) in
  Alcotest.run "schema"
    [
      ( "committed",
        [ Alcotest.test_case "BENCH_results.json passes" `Quick test_committed ]
      );
      ( "rejects",
        List.map (case test_rejects) mutations
        @ [
            Alcotest.test_case "records 1.5, routes -3, no replayed or \
                                wavelengths" `Quick test_rejects_unchecked_file;
          ] );
      ("allows", List.map (case test_allows) allowed);
    ]
