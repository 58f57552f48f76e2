(* Tests for the multistage machinery: topology arithmetic, destination
   multisets (Section 3.3), nonblocking conditions (Theorems 1-2) and
   the Table 2 cost model. *)

open Wdm_multistage

let topo n m r k = Topology.make_exn ~n ~m ~r ~k

(* --- topology ---------------------------------------------------------- *)

let test_topology_make () =
  Alcotest.(check bool) "m >= n enforced" true
    (Result.is_error (Topology.make ~n:4 ~m:3 ~r:2 ~k:1));
  Alcotest.(check bool) "positive dims" true
    (Result.is_error (Topology.make ~n:0 ~m:1 ~r:1 ~k:1));
  let t = topo 3 5 4 2 in
  Alcotest.(check int) "N = n r" 12 (Topology.num_ports t)

let test_topology_port_mapping () =
  let t = topo 3 4 4 2 in
  Alcotest.(check (pair int int)) "port 1" (1, 1) (Topology.switch_of_port t 1);
  Alcotest.(check (pair int int)) "port 3" (1, 3) (Topology.switch_of_port t 3);
  Alcotest.(check (pair int int)) "port 4" (2, 1) (Topology.switch_of_port t 4);
  Alcotest.(check (pair int int)) "port 12" (4, 3) (Topology.switch_of_port t 12);
  for p = 1 to 12 do
    let switch, local = Topology.switch_of_port t p in
    Alcotest.(check int) "roundtrip" p (Topology.port_of_switch t ~switch ~local)
  done;
  Alcotest.check_raises "bad port"
    (Invalid_argument "Topology.switch_of_port: bad port") (fun () ->
      ignore (Topology.switch_of_port t 13))

(* --- multisets --------------------------------------------------------- *)

let test_multiset_basics () =
  let m = Multiset.of_list ~r:3 ~k:2 [ 1; 1; 3 ] in
  Alcotest.(check int) "mult 1" 2 (Multiset.multiplicity m 1);
  Alcotest.(check int) "mult 2" 0 (Multiset.multiplicity m 2);
  Alcotest.(check int) "mult 3" 1 (Multiset.multiplicity m 3);
  Alcotest.(check bool) "1 saturated" true (Multiset.saturated m 1);
  Alcotest.(check bool) "3 not saturated" false (Multiset.saturated m 3);
  Alcotest.(check int) "total" 3 (Multiset.total m);
  Alcotest.(check string) "paper notation" "{1^2, 3^1}"
    (Format.asprintf "%a" Multiset.pp m)

let test_multiset_cardinality_is_saturation_count () =
  (* Definition (4): |M| counts elements with multiplicity k, not the
     total multiplicity. *)
  let m = Multiset.of_list ~r:4 ~k:2 [ 1; 1; 2; 3; 3 ] in
  Alcotest.(check int) "card counts saturated" 2 (Multiset.cardinality m);
  Alcotest.(check bool) "not null" false (Multiset.is_null m);
  Alcotest.(check (list int)) "saturated elements" [ 1; 3 ]
    (Multiset.saturated_elements m);
  let partial = Multiset.of_list ~r:4 ~k:2 [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "all below k" 0 (Multiset.cardinality partial);
  Alcotest.(check bool) "null" true (Multiset.is_null partial)

let test_multiset_inter () =
  (* Definition (3): elementwise min. *)
  let a = Multiset.of_list ~r:3 ~k:2 [ 1; 1; 2 ] in
  let b = Multiset.of_list ~r:3 ~k:2 [ 1; 2; 2; 3 ] in
  let i = Multiset.inter a b in
  Alcotest.(check int) "min at 1" 1 (Multiset.multiplicity i 1);
  Alcotest.(check int) "min at 2" 1 (Multiset.multiplicity i 2);
  Alcotest.(check int) "min at 3" 0 (Multiset.multiplicity i 3)

let test_multiset_k1_degeneration () =
  (* With k = 1 multisets are plain sets and cardinality is set size. *)
  let a = Multiset.of_list ~r:5 ~k:1 [ 1; 3; 4 ] in
  Alcotest.(check int) "set cardinality" 3 (Multiset.cardinality a);
  let b = Multiset.of_list ~r:5 ~k:1 [ 3; 5 ] in
  Alcotest.(check int) "set intersection" 1 (Multiset.cardinality (Multiset.inter a b))

let test_multiset_add_remove () =
  let m = Multiset.create ~r:2 ~k:2 in
  let m = Multiset.add m 1 in
  let m = Multiset.add m 1 in
  Alcotest.check_raises "cap at k" (Invalid_argument "Multiset.add: element saturated")
    (fun () -> ignore (Multiset.add m 1));
  let m = Multiset.remove m 1 in
  Alcotest.(check int) "down to 1" 1 (Multiset.multiplicity m 1);
  Alcotest.check_raises "remove absent"
    (Invalid_argument "Multiset.remove: element absent") (fun () ->
      ignore (Multiset.remove m 2))

let test_multiset_restrict () =
  let m = Multiset.of_list ~r:4 ~k:2 [ 1; 1; 2; 4; 4 ] in
  let f = Multiset.restrict m [ 1; 3 ] in
  Alcotest.(check int) "kept" 2 (Multiset.multiplicity f 1);
  Alcotest.(check int) "dropped" 0 (Multiset.multiplicity f 4);
  Alcotest.(check int) "card restricted" 1 (Multiset.cardinality f)

(* qcheck: intersection is a lower bound and is commutative/idempotent *)
let arb_multiset =
  let gen =
    QCheck.Gen.(
      let* r = int_range 1 6 in
      let* k = int_range 1 3 in
      let* elems =
        list_size (int_range 0 (r * k)) (int_range 1 r)
      in
      (* keep multiplicities within k *)
      let counts = Array.make r 0 in
      let ok =
        List.filter
          (fun p ->
            if counts.(p - 1) < k then begin
              counts.(p - 1) <- counts.(p - 1) + 1;
              true
            end
            else false)
          elems
      in
      return (Multiset.of_list ~r ~k ok))
  in
  QCheck.make ~print:(Format.asprintf "%a" Multiset.pp) gen

let arb_multiset_pair =
  (* same dimensions for both *)
  let gen =
    QCheck.Gen.(
      let* r = int_range 1 6 in
      let* k = int_range 1 3 in
      let make_one =
        let* elems = list_size (int_range 0 (r * k)) (int_range 1 r) in
        let counts = Array.make r 0 in
        let ok =
          List.filter
            (fun p ->
              if counts.(p - 1) < k then begin
                counts.(p - 1) <- counts.(p - 1) + 1;
                true
              end
              else false)
            elems
        in
        return (Multiset.of_list ~r ~k ok)
      in
      pair make_one make_one)
  in
  QCheck.make
    ~print:(fun (a, b) ->
      Format.asprintf "%a / %a" Multiset.pp a Multiset.pp b)
    gen

let prop_inter_comm =
  QCheck.Test.make ~name:"inter commutative" ~count:200 arb_multiset_pair
    (fun (a, b) -> Multiset.equal (Multiset.inter a b) (Multiset.inter b a))

let prop_inter_idem =
  QCheck.Test.make ~name:"inter idempotent" ~count:200 arb_multiset (fun a ->
      Multiset.equal (Multiset.inter a a) a)

let prop_inter_lower_bound =
  QCheck.Test.make ~name:"inter bounds multiplicities" ~count:200
    arb_multiset_pair (fun (a, b) ->
      let i = Multiset.inter a b in
      List.for_all
        (fun p ->
          Multiset.multiplicity i p
          <= Stdlib.min (Multiset.multiplicity a p) (Multiset.multiplicity b p))
        (List.init (Multiset.r a) (fun x -> x + 1)))

let prop_cardinality_antitone =
  QCheck.Test.make ~name:"cardinality of inter <= both" ~count:200
    arb_multiset_pair (fun (a, b) ->
      let c = Multiset.cardinality (Multiset.inter a b) in
      c <= Multiset.cardinality a && c <= Multiset.cardinality b)

(* --- conditions (Theorems 1-2) ----------------------------------------- *)

let test_theorem1_values () =
  (* (n-1)(x + r^(1/x)) at n = r = 4: x=1: 3*(1+4)=15; x=2: 3*(2+2)=12;
     x=3: 3*(3+4^(1/3)) ~ 13.76.  Minimum at x=2, m_min=13. *)
  Alcotest.(check (float 1e-9)) "x=1" 15. (Conditions.theorem1_term ~n:4 ~r:4 ~x:1);
  Alcotest.(check (float 1e-9)) "x=2" 12. (Conditions.theorem1_term ~n:4 ~r:4 ~x:2);
  let e = Conditions.msw_dominant ~n:4 ~r:4 in
  Alcotest.(check int) "best x" 2 e.Conditions.x;
  Alcotest.(check int) "m_min" 13 e.Conditions.m_min

let test_theorem1_small () =
  (* n = r = 2: only x = 1 legal: (1)(1+2) = 3, m_min = 4. *)
  let e = Conditions.msw_dominant ~n:2 ~r:2 in
  Alcotest.(check int) "x" 1 e.Conditions.x;
  Alcotest.(check int) "m_min" 4 e.Conditions.m_min

let test_theorem1_n1 () =
  let e = Conditions.msw_dominant ~n:1 ~r:4 in
  Alcotest.(check int) "m_min at n=1" 1 e.Conditions.m_min

let test_theorem2_values () =
  (* n = r = 2, k = 2: x = 1: floor(3*1/2) + 1*2 = 1 + 2 = 3; m_min = 4. *)
  Alcotest.(check (float 1e-9)) "term" 3.
    (Conditions.theorem2_term ~n:2 ~r:2 ~k:2 ~x:1);
  let e = Conditions.maw_dominant ~n:2 ~r:2 ~k:2 in
  Alcotest.(check int) "m_min" 4 e.Conditions.m_min

let test_theorem2_ge_theorem1_unavailability () =
  (* floor((nk-1)x/k) >= (n-1)x: the MAW-dominant construction never
     needs fewer middles (Section 3.4's observation). *)
  List.iter
    (fun (n, r, k) ->
      let lo, hi = Conditions.x_range ~n ~r in
      for x = lo to hi do
        Alcotest.(check bool)
          (Printf.sprintf "n=%d r=%d k=%d x=%d" n r k x)
          true
          (Conditions.theorem2_term ~n ~r ~k ~x
          >= Conditions.theorem1_term ~n ~r ~x -. 1e-9)
      done)
    [ (2, 2, 1); (2, 2, 2); (4, 4, 2); (8, 8, 4); (16, 16, 2); (5, 9, 3) ]

let test_theorem2_k1_equals_theorem1 () =
  (* With one wavelength the constructions coincide. *)
  List.iter
    (fun (n, r) ->
      let a = Conditions.msw_dominant ~n ~r in
      let b = Conditions.maw_dominant ~n ~r ~k:1 in
      Alcotest.(check int)
        (Printf.sprintf "m_min n=%d r=%d" n r)
        a.Conditions.m_min b.Conditions.m_min)
    [ (2, 2); (3, 3); (4, 4); (8, 8); (16, 16) ]

let test_asymptotic_reduction () =
  (* Section 3.4: choosing x = log r / log log r gives
     m >= 3 (n-1) log r / log log r, so the optimized bound can never
     exceed the asymptotic expression where the latter's x is legal. *)
  List.iter
    (fun n ->
      let r = n in
      let x_star = int_of_float (Float.round (Conditions.asymptotic_x ~r)) in
      let _, hi = Conditions.x_range ~n ~r in
      if x_star >= 1 && x_star <= hi then begin
        let e = Conditions.msw_dominant ~n ~r in
        Alcotest.(check bool)
          (Printf.sprintf "optimized <= asymptotic at n=r=%d" n)
          true
          (e.Conditions.bound
          <= (Conditions.asymptotic_bound ~n ~r) +. 1e-9)
      end)
    [ 4; 8; 16; 32; 64; 256; 1024 ]

let test_condition_monotonicity () =
  (* More local ports per module -> more middle modules needed. *)
  let prev = ref 0 in
  List.iter
    (fun n ->
      let e = Conditions.msw_dominant ~n ~r:n in
      Alcotest.(check bool) (Printf.sprintf "monotone at %d" n) true
        (e.Conditions.m_min >= !prev);
      prev := e.Conditions.m_min)
    [ 2; 3; 4; 6; 8; 12; 16; 24; 32 ]

let test_evaluate_dispatch () =
  (* the one construction -> theorem dispatch picks Theorem 1 for
     MSW-dominant and Theorem 2 for MAW-dominant *)
  for n = 1 to 8 do
    for r = 1 to 8 do
      for k = 1 to 4 do
        let name = Printf.sprintf "n=%d r=%d k=%d" n r k in
        Alcotest.(check bool) (name ^ " msw") true
          (Conditions.evaluate Conditions.Msw_dominant ~n ~r ~k
          = Conditions.msw_dominant ~n ~r);
        Alcotest.(check bool) (name ^ " maw") true
          (Conditions.evaluate Conditions.Maw_dominant ~n ~r ~k
          = Conditions.maw_dominant ~n ~r ~k)
      done
    done
  done

(* --- cost model (Table 2) ---------------------------------------------- *)

let test_cost_closed_form_agrees () =
  List.iter
    (fun (n, m, r, k) ->
      let t = topo n m r k in
      List.iter
        (fun output_model ->
          let b =
            Cost.breakdown ~construction:Network.Msw_dominant ~output_model t
          in
          Alcotest.(check int)
            (Format.asprintf "closed form %a n=%d m=%d r=%d k=%d"
               Wdm_core.Model.pp output_model n m r k)
            (Cost.msw_dominant_crosspoints_closed_form ~output_model t)
            b.Cost.total_crosspoints)
        Wdm_core.Model.all)
    [ (2, 4, 2, 2); (4, 13, 4, 2); (3, 7, 5, 3); (8, 30, 8, 4) ]

let test_cost_converter_counts () =
  let t = topo 4 13 4 2 in
  let conv output_model =
    (Cost.breakdown ~construction:Network.Msw_dominant ~output_model t)
      .Cost.total_converters
  in
  (* MSW: none; MSDW: r*m*k (input side of output modules);
     MAW: r*n*k = Nk (output side). *)
  Alcotest.(check int) "MSW" 0 (conv Wdm_core.Model.MSW);
  Alcotest.(check int) "MSDW" (4 * 13 * 2) (conv Wdm_core.Model.MSDW);
  Alcotest.(check int) "MAW" (4 * 4 * 2) (conv Wdm_core.Model.MAW);
  (* Section 3.4: under the multistage MSW-dominant construction the
     MSDW model needs MORE converters than MAW (m > n). *)
  Alcotest.(check bool) "MSDW > MAW" true
    (conv Wdm_core.Model.MSDW > conv Wdm_core.Model.MAW)

let test_cost_maw_dominant_more_expensive () =
  let t = topo 4 13 4 2 in
  List.iter
    (fun output_model ->
      let msw_b = Cost.breakdown ~construction:Network.Msw_dominant ~output_model t in
      let maw_b = Cost.breakdown ~construction:Network.Maw_dominant ~output_model t in
      Alcotest.(check bool)
        (Format.asprintf "crosspoints %a" Wdm_core.Model.pp output_model)
        true
        (maw_b.Cost.total_crosspoints > msw_b.Cost.total_crosspoints);
      Alcotest.(check bool)
        (Format.asprintf "converters %a" Wdm_core.Model.pp output_model)
        true
        (maw_b.Cost.total_converters >= msw_b.Cost.total_converters))
    Wdm_core.Model.all

let test_msdw_placement_remark () =
  (* Section 3.4: optimized MSDW placement still needs N k converters —
     the same as MAW, never fewer; the naive placement needs more. *)
  List.iter
    (fun (n, m, r, k) ->
      let t = topo n m r k in
      let opt = Cost.msdw_converters_optimized t in
      let naive = Cost.msdw_converters_input_side t in
      Alcotest.(check int) "optimized = Nk" (n * r * k) opt;
      Alcotest.(check bool) "optimized <= naive" true (opt <= naive);
      Alcotest.(check int) "equals MAW placement"
        (Cost.breakdown ~construction:Network.Msw_dominant
           ~output_model:Wdm_core.Model.MAW t)
          .Cost.total_converters
        opt;
      if m > n then Alcotest.(check bool) "strictly fewer when m > n" true (opt < naive))
    [ (2, 4, 2, 2); (4, 13, 4, 2); (3, 3, 5, 1) ]

let test_asymptotic_crosspoint_scaling () =
  (* The headline claim: MSW-dominant multistage crosspoints are
     O(k N^1.5 log N / log log N).  Check the ratio to that envelope is
     bounded (and not vanishing) across two decades of N. *)
  let ratio big_n =
    match
      Cost.recommended ~construction:Network.Msw_dominant
        ~output_model:Wdm_core.Model.MSW ~big_n ~k:2
    with
    | Error e -> Alcotest.fail e
    | Ok (_, _, b) ->
      let fn = float_of_int big_n in
      let envelope = 2. *. (fn ** 1.5) *. Float.log fn /. Float.log (Float.log fn) in
      float_of_int b.Cost.total_crosspoints /. envelope
  in
  let ratios = List.map ratio [ 64; 256; 1024; 4096; 16384; 65536 ] in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.3f within [0.2, 6]" r)
        true
        (r > 0.2 && r < 6.))
    ratios

let test_recommended_design () =
  match
    Cost.recommended ~construction:Network.Msw_dominant
      ~output_model:Wdm_core.Model.MSW ~big_n:16 ~k:2
  with
  | Error e -> Alcotest.fail e
  | Ok (t, eval, b) ->
    Alcotest.(check int) "n = sqrt N" 4 t.Topology.n;
    Alcotest.(check int) "r = sqrt N" 4 t.Topology.r;
    Alcotest.(check int) "m from Theorem 1" eval.Conditions.m_min t.Topology.m;
    Alcotest.(check int) "closed form" (2 * 13 * 4 * ((2 * 4) + 4))
      b.Cost.total_crosspoints

let test_recommended_rejects_non_square () =
  Alcotest.(check bool) "not a square" true
    (Result.is_error
       (Cost.recommended ~construction:Network.Msw_dominant
          ~output_model:Wdm_core.Model.MSW ~big_n:15 ~k:2))

let test_multistage_beats_crossbar_eventually () =
  (* The whole point of Section 3: for large N the three-stage network
     uses far fewer crosspoints than the crossbar. *)
  List.iter
    (fun output_model ->
      let big_n = 1024 and k = 2 in
      match
        Cost.recommended ~construction:Network.Msw_dominant ~output_model ~big_n ~k
      with
      | Error e -> Alcotest.fail e
      | Ok (_, _, b) ->
        Alcotest.(check bool)
          (Format.asprintf "N=%d %a" big_n Wdm_core.Model.pp output_model)
          true
          (b.Cost.total_crosspoints
          < Cost.crossbar_crosspoints ~output_model ~big_n ~k))
    Wdm_core.Model.all

(* --- Lemma 5, verified mechanically -------------------------------------- *)

(* Enumerate every family of m' destination multisets over {1..r} with
   multiplicities <= k such that (a) across the family each element
   appears at most nk-1 times and (b) the intersection of every
   x-subset is non-null, and check that no family exceeds the bound
   m' <= (n-1) r^(1/x).  This is the paper's counting lemma tested by
   brute force rather than trusted. *)

let all_multisets ~r ~k =
  (* all multiplicity vectors, as int lists of length r *)
  let rec go = function
    | 0 -> [ [] ]
    | i -> List.concat_map (fun tail -> List.init (k + 1) (fun c -> c :: tail)) (go (i - 1))
  in
  go r
  |> List.map (fun counts ->
         Multiset.of_list ~r ~k
           (List.concat (List.mapi (fun i c -> List.init c (fun _ -> i + 1)) counts)))

let rec x_subsets x = function
  | [] -> if x = 0 then [ [] ] else []
  | _ when x = 0 -> [ [] ]
  | m :: rest ->
    List.map (fun s -> m :: s) (x_subsets (x - 1) rest) @ x_subsets x rest

let lemma5_max_family ~n ~r ~k ~x ~limit =
  let candidates =
    (* only non-null multisets can appear: a null one already violates
       the x-subset condition (its own intersection chain is null) *)
    List.filter (fun m -> not (Multiset.is_null m)) (all_multisets ~r ~k)
  in
  let budget_ok family =
    List.for_all
      (fun p ->
        List.fold_left (fun acc m -> acc + Multiset.multiplicity m p) 0 family
        <= (n * k) - 1)
      (List.init r (fun i -> i + 1))
  in
  let intersections_ok family =
    if List.length family < x then true
    else
      List.for_all
        (fun subset ->
          match subset with
          | [] -> true
          | m0 :: rest ->
            not (Multiset.is_null (List.fold_left Multiset.inter m0 rest)))
        (x_subsets x family)
  in
  (* DFS over families (with repetition of multiset shapes allowed:
     distinct middle modules may have equal multisets) *)
  let best = ref 0 in
  let rec grow family size pool =
    if size > !best then best := size;
    if size < limit then
      List.iteri
        (fun i m ->
          let family' = m :: family in
          if budget_ok family' && intersections_ok family' then
            (* allow reuse of the same shape: keep pool from i *)
            grow family' (size + 1)
              (List.filteri (fun j _ -> j >= i) pool))
        pool
  in
  grow [] 0 candidates;
  !best

let test_lemma5_bound_mechanically () =
  List.iter
    (fun (n, r, k, x) ->
      let bound =
        int_of_float
          (Float.floor
             (float_of_int (n - 1) *. (float_of_int r ** (1. /. float_of_int x))))
      in
      let max_family = lemma5_max_family ~n ~r ~k ~x ~limit:(bound + 2) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d r=%d k=%d x=%d: max %d <= bound %d" n r k x
           max_family bound)
        true (max_family <= bound))
    [
      (2, 2, 1, 1); (2, 2, 2, 1); (2, 3, 1, 1); (2, 2, 1, 2); (2, 2, 2, 2);
      (3, 2, 1, 1); (3, 2, 1, 2); (2, 3, 2, 1); (3, 3, 1, 1);
    ]

let test_lemma5_bound_is_achievable () =
  (* the bound is met with equality somewhere — e.g. n=3, r=2, k=1,
     x=1: the families {{1},{2}} x copies... (n-1)r = 4 singleton sets
     with each element used at most nk-1 = 2 times: {1},{1},{2},{2} *)
  Alcotest.(check int) "achieves 4" 4
    (lemma5_max_family ~n:3 ~r:2 ~k:1 ~x:1 ~limit:6)

(* --- recursive construction -------------------------------------------- *)

let test_recursive_one_stage_is_crossbar () =
  List.iter
    (fun model ->
      match Recursive.design ~stages:1 ~big_n:16 ~k:2 ~output_model:model with
      | Error e -> Alcotest.fail e
      | Ok d ->
        Alcotest.(check int) "stages" 1 (Recursive.stages d);
        Alcotest.(check int) "ports" 16 (Recursive.num_ports d);
        Alcotest.(check int) "crossbar crosspoints"
          (Wdm_core.Cost.crossbar_crosspoints model ~n:16 ~k:2)
          (Recursive.crosspoints d);
        Alcotest.(check int) "crossbar converters"
          (Wdm_core.Cost.crossbar_converters model ~n:16 ~k:2)
          (Recursive.converters d))
    Wdm_core.Model.all

let test_recursive_three_stage_matches_breakdown () =
  List.iter
    (fun model ->
      match Recursive.design ~stages:3 ~big_n:16 ~k:2 ~output_model:model with
      | Error e -> Alcotest.fail e
      | Ok d ->
        let eval = Conditions.msw_dominant ~n:4 ~r:4 in
        let topo = Topology.make_exn ~n:4 ~m:eval.Conditions.m_min ~r:4 ~k:2 in
        let b = Cost.breakdown ~construction:Network.Msw_dominant ~output_model:model topo in
        Alcotest.(check int) "crosspoints agree" b.Cost.total_crosspoints
          (Recursive.crosspoints d);
        Alcotest.(check int) "converters agree" b.Cost.total_converters
          (Recursive.converters d);
        Alcotest.(check (list int)) "one level" [ eval.Conditions.m_min ]
          (Recursive.middle_modules_per_level d))
    Wdm_core.Model.all

let test_recursive_five_stage () =
  match Recursive.design ~stages:5 ~big_n:64 ~k:2 ~output_model:Wdm_core.Model.MSW with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check int) "stages" 5 (Recursive.stages d);
    Alcotest.(check int) "ports" 64 (Recursive.num_ports d);
    Alcotest.(check int) "two levels of middles" 2
      (List.length (Recursive.middle_modules_per_level d));
    Alcotest.(check int) "depth" 5 (Recursive.splitting_depth d)

let test_recursive_deeper_saves_crosspoints_at_scale () =
  (* Each extra level multiplies in another Theorem-1 m factor, so
     going deeper only pays off once N is enormous: at N = 4096 the
     5-stage build still loses to the 3-stage one, but at N = 2^24
     (= 4096^2 = 256^3) it wins.  Cost evaluation is pure arithmetic,
     so the big case is cheap. *)
  let xpts stages big_n =
    match Recursive.design ~stages ~big_n ~k:2 ~output_model:Wdm_core.Model.MSW with
    | Ok d -> Recursive.crosspoints d
    | Error e -> Alcotest.fail e
  in
  let x1 = Wdm_core.Cost.crossbar_crosspoints Wdm_core.Model.MSW ~n:4096 ~k:2 in
  Alcotest.(check bool) "3-stage < crossbar at N=4096" true (xpts 3 4096 < x1);
  Alcotest.(check bool) "5-stage > 3-stage at N=4096" true (xpts 5 4096 > xpts 3 4096);
  let big = 4096 * 4096 in
  Alcotest.(check bool) "5-stage < 3-stage at N=2^24" true (xpts 5 big < xpts 3 big)

let test_recursive_validation () =
  Alcotest.(check bool) "even stages" true
    (Result.is_error
       (Recursive.design ~stages:2 ~big_n:16 ~k:2 ~output_model:Wdm_core.Model.MSW));
  Alcotest.(check bool) "non-power N" true
    (Result.is_error
       (Recursive.design ~stages:3 ~big_n:15 ~k:2 ~output_model:Wdm_core.Model.MSW));
  Alcotest.(check bool) "5 stages needs a cube" true
    (Result.is_error
       (Recursive.design ~stages:5 ~big_n:16 ~k:2 ~output_model:Wdm_core.Model.MSW))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_inter_comm; prop_inter_idem; prop_inter_lower_bound; prop_cardinality_antitone ]

let () =
  Alcotest.run "wdm_multistage"
    [
      ( "topology",
        [
          Alcotest.test_case "make" `Quick test_topology_make;
          Alcotest.test_case "port mapping" `Quick test_topology_port_mapping;
        ] );
      ( "multiset",
        [
          Alcotest.test_case "basics" `Quick test_multiset_basics;
          Alcotest.test_case "cardinality = saturation count" `Quick
            test_multiset_cardinality_is_saturation_count;
          Alcotest.test_case "intersection" `Quick test_multiset_inter;
          Alcotest.test_case "k=1 degeneration" `Quick test_multiset_k1_degeneration;
          Alcotest.test_case "add/remove caps" `Quick test_multiset_add_remove;
          Alcotest.test_case "restrict" `Quick test_multiset_restrict;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "Theorem 1 values" `Quick test_theorem1_values;
          Alcotest.test_case "Theorem 1 n=r=2" `Quick test_theorem1_small;
          Alcotest.test_case "Theorem 1 n=1" `Quick test_theorem1_n1;
          Alcotest.test_case "Theorem 2 values" `Quick test_theorem2_values;
          Alcotest.test_case "Theorem 2 >= Theorem 1" `Quick
            test_theorem2_ge_theorem1_unavailability;
          Alcotest.test_case "k=1 collapse" `Quick test_theorem2_k1_equals_theorem1;
          Alcotest.test_case "asymptotic reduction" `Quick test_asymptotic_reduction;
          Alcotest.test_case "monotonicity" `Quick test_condition_monotonicity;
          Alcotest.test_case "evaluate = per-theorem" `Quick test_evaluate_dispatch;
        ] );
      ( "cost-table2",
        [
          Alcotest.test_case "closed form" `Quick test_cost_closed_form_agrees;
          Alcotest.test_case "converter counts" `Quick test_cost_converter_counts;
          Alcotest.test_case "MAW-dominant dearer" `Quick
            test_cost_maw_dominant_more_expensive;
          Alcotest.test_case "MSDW placement remark" `Quick test_msdw_placement_remark;
          Alcotest.test_case "asymptotic scaling envelope" `Quick
            test_asymptotic_crosspoint_scaling;
          Alcotest.test_case "recommended design" `Quick test_recommended_design;
          Alcotest.test_case "non-square rejected" `Quick
            test_recommended_rejects_non_square;
          Alcotest.test_case "multistage beats crossbar" `Quick
            test_multistage_beats_crossbar_eventually;
        ] );
      ( "lemma5-mechanical",
        [
          Alcotest.test_case "bound holds" `Slow test_lemma5_bound_mechanically;
          Alcotest.test_case "bound achievable" `Quick test_lemma5_bound_is_achievable;
        ] );
      ( "recursive",
        [
          Alcotest.test_case "1 stage = crossbar" `Quick
            test_recursive_one_stage_is_crossbar;
          Alcotest.test_case "3 stages = breakdown" `Quick
            test_recursive_three_stage_matches_breakdown;
          Alcotest.test_case "5 stages" `Quick test_recursive_five_stage;
          Alcotest.test_case "deeper saves at scale" `Quick
            test_recursive_deeper_saves_crosspoints_at_scale;
          Alcotest.test_case "validation" `Quick test_recursive_validation;
        ] );
      ("properties", props);
    ]
