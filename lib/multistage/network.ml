open Wdm_core

type construction = Conditions.construction = Msw_dominant | Maw_dominant

type hop = { middle : int; stage1_wl : int; serves : (int * int) list }

type route = {
  id : int;
  connection : Connection.t;
  input_switch : int;
  hops : hop list;
}

type blocked_info = {
  fanout_switches : int list;
  available_middles : int list;
  uncovered : int list;
}

type error =
  | Invalid of Assignment.error
  | Source_busy of Endpoint.t
  | Destination_busy of Endpoint.t
  | Unserviceable of Wdm_faults.Fault.t
  | Blocked of blocked_info

(* Route ids are allocated by a monotone counter and never reused, so
   the two failure modes are distinguishable for free: an id the
   allocator never handed out is [Unknown_route]; one it did hand out
   but which is gone from the live map was torn down earlier
   ([Already_released]) — by an explicit disconnect, a fault, or
   [clear]. *)
type disconnect_error = Unknown_route of int | Already_released of int

module Eset = Set.Make (Endpoint)
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)
module Fault = Wdm_faults.Fault
module Tel = Wdm_telemetry

module Pset = Set.Make (struct
  type t = int * int

  (* explicit comparator: [middle_covers] probes this set on the hot
     path, and polymorphic compare is both slower and fragile should
     the key ever grow beyond an int pair *)
  let compare (m1, o1) (m2, o2) =
    match Int.compare m1 m2 with 0 -> Int.compare o1 o2 | c -> c
end)

(* ----- link-state planes ----------------------------------------------- *)

(* One stage's wavelength occupancy, busy and dead lasers side by side.
   Each link's k-slot plane is a [Bitops] bitset of [words] = ceil(k/62)
   ints: wavelength [w] is bit [(w-1) mod 62] of word [(w-1) / 62], so
   every k <= 62 link is exactly one int.  A plane holds one int array
   per row, word-major: word [i] (0-based) of the link in column [col]
   (1-based) is element [i * cols + col - 1] of its row.  [off] and
   [bit] give, at index [w-1], wavelength [w]'s word offset in a row
   and its mask there, so a probe reads two small tables where it would
   otherwise divide (through two calls into [Bitops] in a dev build). *)
type stage = {
  cols : int;
  words : int;
  off : int array;
  bit : int array;
  busy : int array array;
  dead : int array array;
}

let make_stage ~rows ~cols ~k =
  let words = Bitops.words_for k in
  {
    cols;
    words;
    off = Array.init k (fun i -> Bitops.word_of i * cols);
    bit = Array.init k Bitops.bit_of;
    busy = Array.make_matrix rows (words * cols) 0;
    dead = Array.make_matrix rows (words * cols) 0;
  }

let slot_busy st ~row ~col ~wl =
  st.busy.(row - 1).(st.off.(wl - 1) + col - 1) land st.bit.(wl - 1) <> 0

(* usable = neither busy nor served by a dead laser *)
let slot_live_free st ~row ~col ~wl =
  let i = st.off.(wl - 1) + col - 1 in
  (st.busy.(row - 1).(i) lor st.dead.(row - 1).(i)) land st.bit.(wl - 1) = 0

(* The lowest usable wavelength of the link in column [col] of rows
   [busy] and [dead], scanning from its word [w] on. *)
let rec first_free_from st ~k busy dead col w =
  if w = st.words then None
  else
    let i = (w * st.cols) + col - 1 in
    match
      Bitops.lowest_clear
        ~width:(min Bitops.word_bits (k - (w * Bitops.word_bits)))
        (busy.(i) lor dead.(i))
    with
    | Some b -> Some ((w * Bitops.word_bits) + b + 1)
    | None -> first_free_from st ~k busy dead col (w + 1)

let slot_first_free st ~k ~row ~col =
  first_free_from st ~k st.busy.(row - 1) st.dead.(row - 1) col 0

let slot_used_count st ~row ~col =
  let busy = st.busy.(row - 1) in
  let n = ref 0 in
  for w = 0 to st.words - 1 do
    n := !n + Bitops.popcount busy.((w * st.cols) + col - 1)
  done;
  !n

let slot_set st ~row ~col ~wl =
  let busy = st.busy.(row - 1) and i = st.off.(wl - 1) + col - 1 in
  busy.(i) <- busy.(i) lor st.bit.(wl - 1)

let slot_unset st ~row ~col ~wl =
  let busy = st.busy.(row - 1) and i = st.off.(wl - 1) + col - 1 in
  busy.(i) <- busy.(i) land lnot st.bit.(wl - 1)

let slot_dead_set st ~row ~col ~wl =
  let dead = st.dead.(row - 1) and i = st.off.(wl - 1) + col - 1 in
  dead.(i) <- dead.(i) lor st.bit.(wl - 1)

let stage_reset_dead st =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) st.dead

let copy_stage st =
  { st with busy = Array.map Array.copy st.busy; dead = Array.map Array.copy st.dead }

(* Pre-registered instruments: the name lookup happens once in
   [create], so the hot paths touch fields directly. *)
type instruments = {
  sink : Tel.Sink.t;
  attempts : Tel.Metrics.counter;
  successes : Tel.Metrics.counter;
  blocked_invalid : Tel.Metrics.counter;
  blocked_source_busy : Tel.Metrics.counter;
  blocked_destination_busy : Tel.Metrics.counter;
  blocked_unserviceable : Tel.Metrics.counter;
  blocked_no_route : Tel.Metrics.counter;
  rearrange_moves : Tel.Metrics.counter;
  faults_injected : Tel.Metrics.counter;
  faults_cleared : Tel.Metrics.counter;
  fault_teardowns : Tel.Metrics.counter;
  g_utilization : Tel.Metrics.gauge;
  g_input_utilization : Tel.Metrics.gauge;
  g_active_routes : Tel.Metrics.gauge;
  g_faults_in_force : Tel.Metrics.gauge;
  g_stage1_occupancy : Tel.Metrics.gauge array;  (* index j-1 per middle *)
  h_connect : Tel.Histogram.t;
  h_connect_rearrangeable : Tel.Histogram.t;
  h_disconnect : Tel.Histogram.t;
}

type t = {
  topo : Topology.t;
  construction : construction;
  output_model : Model.t;
  x_limit : int;
  strategy : string;  (* the registry name [plugin] was resolved from *)
  rearrange_limit : int;
  (* stage1: link (input module i, middle j); stage2: (middle j, output
     module p) *)
  stage1 : stage;
  stage2 : stage;
  mutable busy_sources : Eset.t;
  mutable busy_dests : Eset.t;
  (* incremental tallies: [Set.cardinal]/[Map.cardinal] are O(n), so
     the gauges would otherwise rescan on every connect/disconnect *)
  mutable n_busy_sources : int;
  mutable n_busy_dests : int;
  mutable n_routes : int;
  middle_occ : int array;  (* busy stage-1 slots into middle j, index j-1 *)
  mutable next_id : int;
  mutable routes : route Imap.t;
  mutable route_sum : int;  (* sum of [route_hash] over [routes], mod 2^63 *)
  mutable faults : Fault.Set.t;
  (* derived views of [faults], rebuilt on every inject/clear *)
  mutable failed_middles : Iset.t;
  mutable failed_inputs : Iset.t;
  mutable failed_outputs : Iset.t;
  mutable dead_converters : Pset.t;  (* (middle, output) pass-through links *)
  (* scratch for the allocation-free selection loops; never observable
     across calls *)
  scratch_uncovered : int array;
  (* [check_plan]'s membership marks: an entry equal to [plan_stamp]
     is marked in the current check (middles, and requested and served
     output modules) *)
  mark_middle : int array;
  mark_requested : int array;
  mark_served : int array;
  mutable plan_stamp : int;
  instruments : instruments option;
  (* resolved once at create/restore, so the hot path never consults
     the registry *)
  plugin : splugin;
}

(* The plug-in surface (public as [Network.Strategy]): a selection
   context bundling the engine state with one request, and the plug-in
   record itself.  Mutually recursive with [t] so the resolved plug-in
   can be cached on the network. *)
and sctx = {
  net : t;
  c_input_switch : int;
  c_src_wl : int;
  c_fanout : int list;  (* output modules the request must cover *)
}

and splugin = {
  name : string;
  doc : string;
  select : sctx -> (int * int list) list option;
}

module Plugin_registry = Wdm_core.Strategy.Registry (struct
  type t = splugin

  let name p = p.name
end)

let register_instruments (topo : Topology.t) (sink : Tel.Sink.t) =
  let reg = sink.Tel.Sink.metrics in
  let c help name = Tel.Metrics.counter reg ~help name in
  {
    sink;
    attempts =
      c "Connection requests (connect and connect_rearrangeable)"
        "wdmnet_connect_attempts_total";
    successes = c "Requests admitted" "wdmnet_connect_success_total";
    blocked_invalid =
      c "Requests refused by cause"
        "wdmnet_connect_blocked_total{cause=\"invalid\"}";
    blocked_source_busy =
      c "" "wdmnet_connect_blocked_total{cause=\"source_busy\"}";
    blocked_destination_busy =
      c "" "wdmnet_connect_blocked_total{cause=\"destination_busy\"}";
    blocked_unserviceable =
      c "" "wdmnet_connect_blocked_total{cause=\"unserviceable\"}";
    blocked_no_route = c "" "wdmnet_connect_blocked_total{cause=\"blocked\"}";
    rearrange_moves =
      c "Existing connections moved to admit a request"
        "wdmnet_rearrange_moves_total";
    faults_injected = c "Faults taken into force" "wdmnet_faults_injected_total";
    faults_cleared = c "Faults cleared" "wdmnet_faults_cleared_total";
    fault_teardowns =
      c "Live routes torn down by fault injection"
        "wdmnet_fault_teardowns_total";
    g_utilization =
      Tel.Metrics.gauge reg ~help:"Fraction of busy output endpoints"
        "wdmnet_utilization";
    g_input_utilization =
      Tel.Metrics.gauge reg ~help:"Fraction of busy input endpoints"
        "wdmnet_input_utilization";
    g_active_routes =
      Tel.Metrics.gauge reg ~help:"Connections currently routed"
        "wdmnet_active_routes";
    g_faults_in_force =
      Tel.Metrics.gauge reg ~help:"Component faults currently in force"
        "wdmnet_faults_in_force";
    g_stage1_occupancy =
      Array.init topo.m (fun j ->
          Tel.Metrics.gauge reg
            ~help:"Busy first-stage wavelength slots into this middle module"
            (Printf.sprintf "wdmnet_stage1_occupancy{middle=\"%d\"}" (j + 1)));
    h_connect =
      Tel.Metrics.histogram reg ~help:"Latency of Network.connect"
        "wdmnet_connect_latency_seconds";
    h_connect_rearrangeable =
      Tel.Metrics.histogram reg
        ~help:"Latency of Network.connect_rearrangeable"
        "wdmnet_connect_rearrangeable_latency_seconds";
    h_disconnect =
      Tel.Metrics.histogram reg ~help:"Latency of Network.disconnect"
        "wdmnet_disconnect_latency_seconds";
  }

module Config = struct
  type t = {
    strategy : string;
    x_limit : int option;  (** [None]: Theorem 1/2 optimum for the topology *)
    rearrange_limit : int;
    telemetry : Tel.Sink.t option;
  }

  let default =
    {
      strategy = "min-intersection";
      x_limit = None;
      rearrange_limit = 64;
      telemetry = None;
    }
end

let create ?(config = Config.default) ~construction ~output_model
    (topo : Topology.t) =
  let { Config.strategy; x_limit; rearrange_limit; telemetry } = config in
  let x_limit =
    match x_limit with
    | Some x -> x
    | None -> (Conditions.evaluate construction ~n:topo.n ~r:topo.r ~k:topo.k).x
  in
  if x_limit < 1 then invalid_arg "Network.create: x_limit must be >= 1";
  if rearrange_limit < 1 then
    invalid_arg "Network.create: rearrange_limit must be >= 1";
  let plugin =
    match Plugin_registry.resolve strategy with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf "Network.create: unknown strategy %S" strategy)
  in
  {
    topo;
    construction;
    output_model;
    x_limit;
    strategy;
    rearrange_limit;
    stage1 = make_stage ~rows:topo.r ~cols:topo.m ~k:topo.k;
    stage2 = make_stage ~rows:topo.m ~cols:topo.r ~k:topo.k;
    busy_sources = Eset.empty;
    busy_dests = Eset.empty;
    n_busy_sources = 0;
    n_busy_dests = 0;
    n_routes = 0;
    middle_occ = Array.make topo.m 0;
    next_id = 0;
    routes = Imap.empty;
    route_sum = 0;
    faults = Fault.Set.empty;
    failed_middles = Iset.empty;
    failed_inputs = Iset.empty;
    failed_outputs = Iset.empty;
    dead_converters = Pset.empty;
    scratch_uncovered = Array.make topo.r 0;
    mark_middle = Array.make topo.m 0;
    mark_requested = Array.make topo.r 0;
    mark_served = Array.make topo.r 0;
    plan_stamp = 0;
    instruments = Option.map (register_instruments topo) telemetry;
    plugin;
  }

let topology t = t.topo
let construction t = t.construction
let output_model t = t.output_model
let x_limit t = t.x_limit
let strategy t = t.strategy

(* ----- link-state helpers --------------------------------------------- *)

let stage1_free_wl t ~input_switch ~middle ~wl =
  slot_live_free t.stage1 ~row:input_switch ~col:middle ~wl

let stage1_used_count t ~input_switch ~middle =
  slot_used_count t.stage1 ~row:input_switch ~col:middle

let stage1_first_free t ~input_switch ~middle =
  slot_first_free t.stage1 ~k:t.topo.k ~row:input_switch ~col:middle

let stage1_any_free t ~input_switch ~middle =
  stage1_first_free t ~input_switch ~middle <> None

let stage2_free_wl t ~middle ~out_switch ~wl =
  slot_live_free t.stage2 ~row:middle ~col:out_switch ~wl

let stage2_first_free t ~middle ~out_switch =
  slot_first_free t.stage2 ~k:t.topo.k ~row:middle ~col:out_switch

let stage2_any_free t ~middle ~out_switch =
  stage2_first_free t ~middle ~out_switch <> None

(* Busy-bit writes funnel through these so the per-middle occupancy
   tally can never drift from the planes. *)
let s1_occupy t ~input_switch ~middle ~wl =
  slot_set t.stage1 ~row:input_switch ~col:middle ~wl;
  t.middle_occ.(middle - 1) <- t.middle_occ.(middle - 1) + 1

let s1_release t ~input_switch ~middle ~wl =
  slot_unset t.stage1 ~row:input_switch ~col:middle ~wl;
  t.middle_occ.(middle - 1) <- t.middle_occ.(middle - 1) - 1

let s2_occupy t ~middle ~out_switch ~wl =
  slot_set t.stage2 ~row:middle ~col:out_switch ~wl

let s2_release t ~middle ~out_switch ~wl =
  slot_unset t.stage2 ~row:middle ~col:out_switch ~wl

(* Whether middle [j] has a usable first-stage slot for a request sourced
   at [input_switch] on wavelength [src_wl]. *)
let middle_available t ~input_switch ~src_wl j =
  (not (Iset.mem j t.failed_middles))
  &&
  match t.construction with
  | Msw_dominant -> stage1_free_wl t ~input_switch ~middle:j ~wl:src_wl
  | Maw_dominant -> stage1_any_free t ~input_switch ~middle:j

(* The wavelength a hop through middle [j] would ride on its first-stage
   link, given the current state.  Deterministic, so the coverage check
   and the later allocation agree. *)
let prospective_stage1_wl t ~input_switch ~src_wl j =
  match t.construction with
  | Msw_dominant -> Some src_wl
  | Maw_dominant -> stage1_first_free t ~input_switch ~middle:j

(* Whether middle [j] can reach output module [p] for this request. *)
let middle_covers t ~input_switch ~src_wl j p =
  (not (Iset.mem p t.failed_outputs))
  &&
  match t.construction with
  | Msw_dominant -> stage2_free_wl t ~middle:j ~out_switch:p ~wl:src_wl
  | Maw_dominant -> (
    let converter_dead = Pset.mem (j, p) t.dead_converters in
    match t.output_model with
    | Model.MSW ->
      (* MSW output modules cannot convert: the hop must arrive on the
         destination wavelength, which under the MSW network model is
         the source wavelength.  A dead middle converter additionally
         pins the hop to its incoming wavelength, so both must be the
         source wavelength. *)
      stage2_free_wl t ~middle:j ~out_switch:p ~wl:src_wl
      && ((not converter_dead)
         || prospective_stage1_wl t ~input_switch ~src_wl j = Some src_wl)
    | Model.MSDW | Model.MAW ->
      if converter_dead then
        (* pass-through link: the hop leaves [j] on the wavelength it
           arrived on *)
        match prospective_stage1_wl t ~input_switch ~src_wl j with
        | None -> false
        | Some w1 -> stage2_free_wl t ~middle:j ~out_switch:p ~wl:w1
      else stage2_any_free t ~middle:j ~out_switch:p)

let available_middles t ~input_switch ~src_wl =
  List.filter
    (fun j -> middle_available t ~input_switch ~src_wl j)
    (List.init t.topo.m (fun j -> j + 1))

(* ----- middle-module selection ---------------------------------------- *)

(* Greedy cover scanning middles in exactly the given order, keeping
   any that covers something new: the kernel behind
   [Strategy.cover_in_order] and the ordering-based lab strategies. *)
let cover_in_order t ~input_switch ~src_wl order fanout =
  let rec go chosen uncovered remaining picks_left =
    if uncovered = [] then Some (List.rev chosen)
    else
      match remaining with
      | [] -> None
      | j :: rest ->
        if picks_left = 0 then None
        else begin
          let covered =
            List.filter (fun p -> middle_covers t ~input_switch ~src_wl j p) uncovered
          in
          if covered = [] then go chosen uncovered rest picks_left
          else begin
            let uncovered' =
              List.filter (fun p -> not (List.mem p covered)) uncovered
            in
            go ((j, covered) :: chosen) uncovered' rest (picks_left - 1)
          end
        end
  in
  go [] fanout order t.x_limit

(* The built-in selectors scan middles in ascending index order and
   break score ties toward the lower index.  The still-uncovered output
   modules live in a scratch array that is compacted in place as a pick
   covers some of them, so a selection round allocates nothing but the
   winner's covered list. *)
let load_uncovered t fanout =
  let unc = t.scratch_uncovered in
  let n = ref 0 in
  List.iter
    (fun p ->
      unc.(!n) <- p;
      incr n)
    fanout;
  !n

(* Split [unc.(0 .. n_unc-1)] on coverage by [j]: covered elements (in
   order) are returned as a list, the rest are compacted to the front.
   Returns (covered, new n_unc). *)
let extract_covered t ~input_switch ~src_wl j n_unc =
  let unc = t.scratch_uncovered in
  let covered = ref [] in
  let w = ref 0 in
  for idx = 0 to n_unc - 1 do
    let p = unc.(idx) in
    if middle_covers t ~input_switch ~src_wl j p then covered := p :: !covered
    else begin
      unc.(!w) <- p;
      incr w
    end
  done;
  (List.rev !covered, !w)

(* Min-intersection greedy (the Lemma 5 argument): repeatedly take the
   middle covering the most still-uncovered output modules, i.e.
   minimizing the residual intersection. *)
let min_intersection t ~input_switch ~src_wl fanout =
  let m = t.topo.m in
  let unc = t.scratch_uncovered in
  let rec pick chosen_rev chosen_js n_unc picks_left =
    if n_unc = 0 then Some (List.rev chosen_rev)
    else if picks_left = 0 then None
    else begin
      let best_j = ref 0 and best_cov = ref 0 in
      for j = 1 to m do
        if
          (not (List.mem j chosen_js))
          && middle_available t ~input_switch ~src_wl j
        then begin
          let c = ref 0 in
          for idx = 0 to n_unc - 1 do
            if middle_covers t ~input_switch ~src_wl j unc.(idx) then incr c
          done;
          if !c > !best_cov then begin
            best_j := j;
            best_cov := !c
          end
        end
      done;
      if !best_cov = 0 then None
      else begin
        let j = !best_j in
        let covered, n_unc = extract_covered t ~input_switch ~src_wl j n_unc in
        pick ((j, covered) :: chosen_rev) (j :: chosen_js) n_unc (picks_left - 1)
      end
    end
  in
  pick [] [] (load_uncovered t fanout) t.x_limit

let first_fit t ~input_switch ~src_wl fanout =
  let m = t.topo.m in
  let rec go chosen_rev n_unc picks_left j =
    if n_unc = 0 then Some (List.rev chosen_rev)
    else if j > m then None
    else if not (middle_available t ~input_switch ~src_wl j) then
      go chosen_rev n_unc picks_left (j + 1)
    else if picks_left = 0 then None
    else begin
      let covered, n_unc' = extract_covered t ~input_switch ~src_wl j n_unc in
      if covered = [] then go chosen_rev n_unc picks_left (j + 1)
      else go ((j, covered) :: chosen_rev) n_unc' (picks_left - 1) (j + 1)
    end
  in
  go [] (load_uncovered t fanout) t.x_limit 1

(* Exhaustive: subsets of increasing size; returns the first full cover.
   Ablation-only, so plain lists suffice. *)
let select_exhaustive t ~input_switch ~src_wl available fanout =
  let covers_of j = List.filter (fun p -> middle_covers t ~input_switch ~src_wl j p) fanout in
  let rec subsets size = function
    | [] -> if size = 0 then [ [] ] else []
    | j :: rest ->
      if size = 0 then [ [] ]
      else
        List.map (fun s -> j :: s) (subsets (size - 1) rest) @ subsets size rest
  in
  let try_size size =
    List.find_map
      (fun subset ->
        (* greedily attribute each output module to the first member
           that covers it *)
        let attribution =
          List.map (fun j -> (j, covers_of j)) subset
        in
        let rec assign uncovered acc = function
          | [] -> if uncovered = [] then Some (List.rev acc) else None
          | (j, cov) :: rest ->
            let mine = List.filter (fun p -> List.mem p uncovered) cov in
            let uncovered' = List.filter (fun p -> not (List.mem p mine)) uncovered in
            assign uncovered' ((j, mine) :: acc) rest
        in
        assign fanout [] attribution)
      (subsets size available)
  in
  let rec go size =
    if size > t.x_limit then None
    else match try_size size with Some s -> Some s | None -> go (size + 1)
  in
  go 1

(* ----- strategy plug-ins ----------------------------------------------- *)

module Strategy = struct
  type ctx = sctx
  type plan = (int * int list) list

  type t = splugin = {
    name : string;
    doc : string;
    select : ctx -> plan option;
  }

  let input_switch c = c.c_input_switch
  let src_wl c = c.c_src_wl
  let fanout c = c.c_fanout
  let middles c = c.net.topo.m
  let x_limit c = c.net.x_limit

  let available c =
    available_middles c.net ~input_switch:c.c_input_switch ~src_wl:c.c_src_wl

  let covers c ~middle p =
    middle_covers c.net ~input_switch:c.c_input_switch ~src_wl:c.c_src_wl
      middle p

  let occupancy c ~middle = c.net.middle_occ.(middle - 1)

  (* A replay-safe per-request seed: a pure fingerprint of the request
     against the sourcing coordinates, nothing stateful. *)
  let request_key c =
    List.fold_left Wdm_core.Strategy.mix
      (Wdm_core.Strategy.mix3 0x6d73 c.c_input_switch c.c_src_wl)
      c.c_fanout

  (* A middle without a free first-stage slot for this request cannot
     serve it ([check_plan] would refuse the plan), so the order is
     filtered to available middles before the scan. *)
  let cover_in_order c order =
    let t = c.net and input_switch = c.c_input_switch and src_wl = c.c_src_wl in
    cover_in_order t ~input_switch ~src_wl
      (List.filter (middle_available t ~input_switch ~src_wl) order)
      c.c_fanout

  let register = Plugin_registry.register
  let register_parser = Plugin_registry.register_parser
  let resolve = Plugin_registry.resolve
  let names = Plugin_registry.names
end

(* A plug-in's plan is checked against the engine invariants the
   built-ins uphold by construction, so a buggy plug-in surfaces as a
   loud [Invalid_argument] instead of corrupting the link planes.  The
   checks run in a fixed order, so a plan breaking several invariants
   always names the same one; membership is read off the stamp arrays,
   so a check costs O(|fanout| + |plan|). *)
let check_plan t ~input_switch ~src_wl ~fanout ~name plan =
  let bad reason =
    invalid_arg
      (Printf.sprintf "Network: strategy %S returned an invalid plan (%s)"
         name reason)
  in
  t.plan_stamp <- t.plan_stamp + 1;
  let stamp = t.plan_stamp and m = t.topo.m and r = t.topo.r in
  let picks =
    List.fold_left (fun n (_, serves) -> if serves = [] then n else n + 1) 0 plan
  in
  if picks > t.x_limit then bad "more than x_limit middles";
  (* a repeat among out-of-range middles counts too; only a bad plan
     has any *)
  let rec distinct outside = function
    | [] -> ()
    | (j, _) :: rest when j >= 1 && j <= m ->
      if t.mark_middle.(j - 1) = stamp then bad "repeated middle";
      t.mark_middle.(j - 1) <- stamp;
      distinct outside rest
    | (j, _) :: rest ->
      if List.mem j outside then bad "repeated middle";
      distinct (j :: outside) rest
  in
  distinct [] plan;
  (* the fanout is the engine's own: distinct modules in 1..r *)
  List.iter (fun p -> t.mark_requested.(p - 1) <- stamp) fanout;
  (* a module served twice is reported only after every hop's own
     checks, as a whole-plan property *)
  let served_twice =
    List.fold_left
      (fun twice (j, serves) ->
        if j < 1 || j > m then bad "middle out of range";
        if serves <> [] && not (middle_available t ~input_switch ~src_wl j) then
          bad "unavailable middle";
        List.fold_left
          (fun twice p ->
            if not (p >= 1 && p <= r && t.mark_requested.(p - 1) = stamp) then
              bad "serves a module outside the request";
            if not (middle_covers t ~input_switch ~src_wl j p) then
              bad "claims an uncoverable module";
            let again = t.mark_served.(p - 1) = stamp in
            t.mark_served.(p - 1) <- stamp;
            twice || again)
          twice serves)
      false plan
  in
  if served_twice then bad "module served twice";
  List.iter
    (fun p -> if t.mark_served.(p - 1) <> stamp then bad "module left uncovered")
    fanout

let select t ~input_switch ~src_wl fanout =
  let p = t.plugin in
  match
    p.select
      { net = t; c_input_switch = input_switch; c_src_wl = src_wl;
        c_fanout = fanout }
  with
  | None -> None
  | Some plan ->
    check_plan t ~input_switch ~src_wl ~fanout ~name:p.name plan;
    (* Drop members that ended up serving nothing. *)
    Some (List.filter (fun (_, serves) -> serves <> []) plan)

(* ----- built-in and lab strategy plug-ins ------------------------------ *)

(* Simulated annealing over the middle scan order: greedy covers under
   permuted orders are scored by (middles used, their live stage-1
   occupancy) and explored with a deterministic request-seeded RNG, so
   replays are byte-exact (see the Wdm_core.Strategy contract). *)
let annealed_select (c : sctx) =
  let t = c.net in
  let module R = Wdm_core.Strategy.Det_rng in
  let scan order =
    cover_in_order t ~input_switch:c.c_input_switch ~src_wl:c.c_src_wl order
      c.c_fanout
  in
  let avail =
    available_middles t ~input_switch:c.c_input_switch ~src_wl:c.c_src_wl
  in
  if avail = [] then None
  else begin
    let cost = function
      | None -> max_int
      | Some plan ->
        List.fold_left
          (fun acc (j, _) -> acc + 1000 + t.middle_occ.(j - 1))
          0 plan
    in
    let rng = R.make ~seed:(Strategy.request_key c) in
    let order = Array.of_list avail in
    let n = Array.length order in
    let current_cost = ref (cost (scan avail)) in
    let best = ref (scan avail) in
    let best_cost = ref !current_cost in
    let temp = ref 2.0 in
    for _ = 1 to 32 do
      if n >= 2 then begin
        let i = R.int rng n and j = R.int rng n in
        let swap () =
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp
        in
        swap ();
        let cand = scan (Array.to_list order) in
        let cc = cost cand in
        let accept =
          cc <= !current_cost
          || cc < max_int
             && R.float rng
                < exp
                    (-.float_of_int (cc - !current_cost)
                    /. (1000. *. !temp))
        in
        if accept then current_cost := cc else swap ();
        if cc < !best_cost then begin
          best := cand;
          best_cost := cc
        end
      end;
      temp := !temp *. 0.85
    done;
    !best
  end

(* [crosstalk[:BASE[:DB]]]: decorate BASE (default min-intersection)
   with a crosstalk budget — reject any plan whose worst-case
   signal-to-crosstalk margin (Wdm_optics.Crosstalk, co-active stage-1
   channels on the chosen middles as first-order leakers) falls below
   DB (default 20 dB). *)
let crosstalk_parser full_name =
  match String.split_on_char ':' full_name with
  | "crosstalk" :: rest -> (
    let base, threshold =
      match rest with
      | [] -> (Some "min-intersection", Some 20.)
      | [ b ] -> (Some b, Some 20.)
      | [ b; db ] -> (Some b, float_of_string_opt db)
      | _ -> (None, None)
    in
    match (base, threshold) with
    | Some base, Some threshold_db ->
      Option.map
        (fun (bp : splugin) ->
          {
            name = full_name;
            doc =
              Printf.sprintf
                "%s, rejecting routes whose crosstalk margin drops below \
                 %g dB"
                base threshold_db;
            select =
              (fun c ->
                match bp.select c with
                | None -> None
                | Some plan ->
                  let sharers =
                    List.fold_left
                      (fun acc (j, _) -> acc + c.net.middle_occ.(j - 1))
                      0 plan
                  in
                  let fan =
                    List.fold_left
                      (fun acc (_, serves) -> acc + List.length serves)
                      0 plan
                  in
                  if
                    Wdm_optics.Crosstalk.acceptable ~threshold_db ~sharers
                      ~fanout:(max 1 fan) ()
                  then Some plan
                  else None);
          })
        (Plugin_registry.resolve base)
    | _ -> None)
  | _ -> None

let () =
  let reg name doc select = Strategy.register { name; doc; select } in
  reg "min-intersection"
    "Lemma 5's argument made operational: repeatedly pick the available \
     middle covering the most still-uncovered output modules (minimal \
     residual intersection); the default"
    (fun c ->
      min_intersection c.net ~input_switch:c.c_input_switch ~src_wl:c.c_src_wl
        c.c_fanout);
  reg "first-fit"
    "scan middles in index order, keeping any that covers something new"
    (fun c ->
      first_fit c.net ~input_switch:c.c_input_switch ~src_wl:c.c_src_wl
        c.c_fanout);
  reg "exhaustive"
    "search all subsets of available middles of size <= x_limit for a \
     cover, smallest first (exponential: ablation and small fabrics only)"
    (fun c ->
      select_exhaustive c.net ~input_switch:c.c_input_switch
        ~src_wl:c.c_src_wl
        (available_middles c.net ~input_switch:c.c_input_switch
           ~src_wl:c.c_src_wl)
        c.c_fanout);
  reg "adaptive"
    "load-adaptive middle selection: cover using the least-occupied \
     middles first (live per-middle stage-1 occupancy, ties to the lower \
     index)"
    (fun c ->
      let occ j = c.net.middle_occ.(j - 1) in
      let order =
        List.stable_sort
          (fun a b -> compare (occ a, a) (occ b, b))
          (available_middles c.net ~input_switch:c.c_input_switch
             ~src_wl:c.c_src_wl)
      in
      Strategy.cover_in_order c order);
  reg "annealed"
    "simulated annealing over the middle scan order, seeded by the \
     request fingerprint (deterministic, replay-safe)"
    annealed_select;
  Strategy.register_parser crosstalk_parser

let strategy_of_string s =
  if Plugin_registry.mem s then Ok s
  else
    Error
      (Printf.sprintf "unknown strategy %S (want %s, or crosstalk[:BASE[:DB]])"
         s
         (String.concat ", " (Plugin_registry.names ())))

(* ----- admission ------------------------------------------------------ *)

let validate_request t (conn : Connection.t) =
  let spec = Topology.spec t.topo in
  match Assignment.validate spec t.output_model (Assignment.make [ conn ]) with
  | Error e -> Error (Invalid e)
  | Ok () ->
    let src_switch = fst (Topology.switch_of_port t.topo conn.source.port) in
    if Iset.mem src_switch t.failed_inputs then
      Error (Unserviceable (Fault.Input_module src_switch))
    else (
      match
        List.find_opt
          (fun (d : Endpoint.t) ->
            Iset.mem (fst (Topology.switch_of_port t.topo d.port)) t.failed_outputs)
          conn.destinations
      with
      | Some d ->
        Error
          (Unserviceable
             (Fault.Output_module (fst (Topology.switch_of_port t.topo d.port))))
      | None ->
        if Eset.mem conn.source t.busy_sources then Error (Source_busy conn.source)
        else (
          match
            List.find_opt (fun d -> Eset.mem d t.busy_dests) conn.destinations
          with
          | Some d -> Error (Destination_busy d)
          | None -> Ok ()))

let fanout_switches t (conn : Connection.t) =
  conn.destinations
  |> List.map (fun (d : Endpoint.t) -> fst (Topology.switch_of_port t.topo d.port))
  |> List.sort_uniq Int.compare

(* ----- telemetry ------------------------------------------------------- *)

let utilization t =
  float_of_int t.n_busy_dests
  /. float_of_int (Topology.num_ports t.topo * t.topo.k)

let input_utilization t =
  float_of_int t.n_busy_sources
  /. float_of_int (Topology.num_ports t.topo * t.topo.k)

(* O(1) per gauge: every tally is maintained incrementally by the
   connect/release paths, so this never rescans the planes. *)
let update_gauges t =
  match t.instruments with
  | None -> ()
  | Some i ->
    Tel.Metrics.set i.g_faults_in_force
      (float_of_int (Fault.Set.cardinal t.faults));
    Tel.Metrics.set i.g_utilization (utilization t);
    Tel.Metrics.set i.g_input_utilization (input_utilization t);
    Tel.Metrics.set i.g_active_routes (float_of_int t.n_routes);
    Array.iteri
      (fun j_minus1 g -> Tel.Metrics.set g (float_of_int t.middle_occ.(j_minus1)))
      i.g_stage1_occupancy

let error_cause = function
  | Invalid _ -> "invalid"
  | Source_busy _ -> "source_busy"
  | Destination_busy _ -> "destination_busy"
  | Unserviceable _ -> "unserviceable"
  | Blocked _ -> "blocked"

(* The one place refusals are rendered: the CLI, trace events, and the
   control-plane wire responses all call through here, so a cause reads
   identically in an interactive session, a trace dump, and a client's
   error report. *)
module Error = struct
  type t = error

  let cause = error_cause

  let to_string = function
    | Invalid e -> Format.asprintf "invalid request: %a" Assignment.pp_error e
    | Source_busy e -> Format.asprintf "source %a busy" Endpoint.pp e
    | Destination_busy e ->
      Format.asprintf "destination %a busy" Endpoint.pp e
    | Unserviceable f ->
      Format.asprintf "unserviceable: %a is out of service" Fault.pp f
    | Blocked { fanout_switches; available_middles; uncovered } ->
      Printf.sprintf
        "blocked: fanout over output modules {%s}, %d available middles, \
         uncoverable modules {%s}"
        (String.concat "," (List.map string_of_int fanout_switches))
        (List.length available_middles)
        (String.concat "," (List.map string_of_int uncovered))

  let json_endpoint (e : Endpoint.t) =
    Tel.Json.Obj [ ("port", Tel.Json.Int e.port); ("wl", Tel.Json.Int e.wl) ]

  let to_json e =
    let open Tel.Json in
    let ints l = List (List.map (fun i -> Int i) l) in
    Obj
      (("cause", String (error_cause e))
      ::
      (match e with
      | Invalid a ->
        [ ("detail", String (Format.asprintf "%a" Assignment.pp_error a)) ]
      | Source_busy ep | Destination_busy ep ->
        [ ("endpoint", json_endpoint ep) ]
      | Unserviceable f -> [ ("fault", String (Fault.to_string f)) ]
      | Blocked { fanout_switches; available_middles; uncovered } ->
        [
          ("fanout_switches", ints fanout_switches);
          ("available_middles", ints available_middles);
          ("uncovered", ints uncovered);
        ]))

  let disconnect_cause = function
    | Unknown_route _ -> "unknown_route"
    | Already_released _ -> "already_released"

  let disconnect_to_string = function
    | Unknown_route id -> Printf.sprintf "no route %d was ever allocated" id
    | Already_released id -> Printf.sprintf "route %d already released" id

  let disconnect_to_json e =
    let open Tel.Json in
    let id = match e with Unknown_route id | Already_released id -> id in
    Obj [ ("cause", String (disconnect_cause e)); ("id", Int id) ]
end

let blocked_counter i = function
  | Invalid _ -> i.blocked_invalid
  | Source_busy _ -> i.blocked_source_busy
  | Destination_busy _ -> i.blocked_destination_busy
  | Unserviceable _ -> i.blocked_unserviceable
  | Blocked _ -> i.blocked_no_route

let route_middles route = List.map (fun h -> h.middle) route.hops
let route_stage1_wls route = List.map (fun h -> h.stage1_wl) route.hops

(* Shared by connect and connect_rearrangeable, which differ only in
   the histogram they feed and the moves they may report. *)
let note_connect_outcome t i ~dur ~histogram ~moved result =
  Tel.Metrics.inc i.attempts;
  Tel.Histogram.observe histogram dur;
  match result with
  | Ok route ->
    Tel.Metrics.inc i.successes;
    if moved > 0 then Tel.Metrics.add i.rearrange_moves moved;
    update_gauges t;
    Tel.Sink.record i.sink ~dur ~route_id:route.id
      ~middles:(route_middles route)
      ~wavelengths:(route_stage1_wls route) Tel.Trace.Connect
  | Error e ->
    Tel.Metrics.inc (blocked_counter i e);
    Tel.Sink.record i.sink ~dur
      ~detail:[ ("cause", error_cause e); ("error", Error.to_string e) ]
      Tel.Trace.Block

let mark_endpoints_busy t (conn : Connection.t) =
  t.busy_sources <- Eset.add conn.source t.busy_sources;
  t.busy_dests <-
    List.fold_left (fun s d -> Eset.add d s) t.busy_dests conn.destinations;
  t.n_busy_sources <- t.n_busy_sources + 1;
  t.n_busy_dests <- t.n_busy_dests + List.length conn.destinations

let mark_endpoints_free t (conn : Connection.t) =
  t.busy_sources <- Eset.remove conn.source t.busy_sources;
  t.busy_dests <-
    List.fold_left (fun s d -> Eset.remove d s) t.busy_dests conn.destinations;
  t.n_busy_sources <- t.n_busy_sources - 1;
  t.n_busy_dests <- t.n_busy_dests - List.length conn.destinations

let mix = Wdm_core.Strategy.mix

(* A live route's term in the state digest: [mix] folded over every
   field the route codec writes, list lengths included.  [Hashtbl.hash]
   would not do: it stops after ten meaningful values, so it would skip
   hops of wide multicast routes. *)
let route_hash (route : route) =
  let serve h (p, w) = mix (mix h p) w in
  let hop h { middle; stage1_wl; serves } =
    List.fold_left serve
      (mix (mix (mix h middle) stage1_wl) (List.length serves))
      serves
  in
  let h = Connection.hash_into (mix 0 route.id) route.connection in
  List.fold_left hop
    (mix (mix h route.input_switch) (List.length route.hops))
    route.hops

(* Every change to the route map goes through these two (or [clear]),
   so [route_sum] stays the sum of the live routes' hashes: adding and
   subtracting wrap mod 2^63, and removal cancels a term exactly. *)
let add_route t route =
  t.routes <- Imap.add route.id route t.routes;
  t.n_routes <- t.n_routes + 1;
  t.route_sum <- t.route_sum + route_hash route

let remove_route t route =
  t.routes <- Imap.remove route.id t.routes;
  t.n_routes <- t.n_routes - 1;
  t.route_sum <- t.route_sum - route_hash route

let connect_raw t (conn : Connection.t) =
  match validate_request t conn with
  | Error _ as e -> e
  | Ok () ->
    let src_wl = conn.source.wl in
    let input_switch = fst (Topology.switch_of_port t.topo conn.source.port) in
    let fanout = fanout_switches t conn in
    (match select t ~input_switch ~src_wl fanout with
    | None ->
      (* cold path: rebuild the availability/coverage picture only to
         explain the refusal *)
      let available = available_middles t ~input_switch ~src_wl in
      let covered_somewhere p =
        List.exists (fun j -> middle_covers t ~input_switch ~src_wl j p) available
      in
      Error
        (Blocked
           {
             fanout_switches = fanout;
             available_middles = available;
             uncovered = List.filter (fun p -> not (covered_somewhere p)) fanout;
           })
    | Some chosen ->
      (* Allocate wavelengths hop by hop. *)
      let hops =
        List.map
          (fun (j, serves) ->
            let stage1_wl =
              match t.construction with
              | Msw_dominant -> src_wl
              | Maw_dominant -> (
                match stage1_first_free t ~input_switch ~middle:j with
                | Some w -> w
                | None -> assert false (* j was available *))
            in
            s1_occupy t ~input_switch ~middle:j ~wl:stage1_wl;
            let serves =
              List.map
                (fun p ->
                  let w2 =
                    match t.construction with
                    | Msw_dominant -> src_wl
                    | Maw_dominant -> (
                      match t.output_model with
                      | Model.MSW -> src_wl
                      | Model.MSDW | Model.MAW ->
                        if Pset.mem (j, p) t.dead_converters then
                          (* pass-through: coverage checked this slot *)
                          stage1_wl
                        else (
                          match stage2_first_free t ~middle:j ~out_switch:p with
                          | Some w -> w
                          | None -> assert false (* p was coverable via j *)))
                  in
                  assert (not (slot_busy t.stage2 ~row:j ~col:p ~wl:w2));
                  s2_occupy t ~middle:j ~out_switch:p ~wl:w2;
                  (p, w2))
                serves
            in
            { middle = j; stage1_wl; serves })
          chosen
      in
      let id = t.next_id in
      t.next_id <- id + 1;
      let route = { id; connection = conn; input_switch; hops } in
      add_route t route;
      mark_endpoints_busy t conn;
      Ok route)

let connect t (conn : Connection.t) =
  match t.instruments with
  | None -> connect_raw t conn
  | Some i ->
    let t0 = Tel.Sink.now i.sink in
    let result = connect_raw t conn in
    let dur = Tel.Sink.now i.sink -. t0 in
    note_connect_outcome t i ~dur ~histogram:i.h_connect ~moved:0 result;
    result

let release t (route : route) =
  List.iter
    (fun { middle = j; stage1_wl; serves } ->
      s1_release t ~input_switch:route.input_switch ~middle:j ~wl:stage1_wl;
      List.iter (fun (p, w2) -> s2_release t ~middle:j ~out_switch:p ~wl:w2) serves)
    route.hops;
  mark_endpoints_free t route.connection

let disconnect_raw t id =
  match Imap.find_opt id t.routes with
  | None ->
    if id >= 0 && id < t.next_id then Error (Already_released id)
    else Error (Unknown_route id)
  | Some route ->
    release t route;
    remove_route t route;
    Ok route

let disconnect t id =
  match t.instruments with
  | None -> disconnect_raw t id
  | Some i ->
    let t0 = Tel.Sink.now i.sink in
    let result = disconnect_raw t id in
    let dur = Tel.Sink.now i.sink -. t0 in
    Tel.Histogram.observe i.h_disconnect dur;
    (match result with
    | Ok route ->
      update_gauges t;
      Tel.Sink.record i.sink ~dur ~route_id:route.id
        ~middles:(route_middles route)
        ~wavelengths:(route_stage1_wls route) Tel.Trace.Disconnect
    | Error _ -> ());
    result

(* Re-mark exactly the resources of a route that is not live: the
   rollback of a rearrangement attempt, whose slots and endpoints are
   known-free, and [restore], where only a corrupt snapshot can make a
   route overlap the live ones.  That is refused, not asserted: a busy
   endpoint or slot, or a wavelength outside 1..k, raises
   [Invalid_argument] (after marking part of the route, which is fine:
   [restore] then discards the network). *)
let readmit t (route : route) =
  let refuse what =
    invalid_arg (Printf.sprintf "Network: route %d %s" route.id what)
  in
  let claim stage ~row ~col ~wl =
    if wl < 1 || wl > t.topo.k || slot_busy stage ~row ~col ~wl then
      refuse
        (Printf.sprintf "claims slot (%d, %d, l%d), busy or out of range" row
           col wl)
  in
  let conn = route.connection in
  if
    Eset.mem conn.source t.busy_sources
    || List.exists (fun d -> Eset.mem d t.busy_dests) conn.destinations
  then refuse "claims a busy endpoint";
  List.iter
    (fun { middle = j; stage1_wl; serves } ->
      claim t.stage1 ~row:route.input_switch ~col:j ~wl:stage1_wl;
      s1_occupy t ~input_switch:route.input_switch ~middle:j ~wl:stage1_wl;
      List.iter
        (fun (p, w2) ->
          claim t.stage2 ~row:j ~col:p ~wl:w2;
          s2_occupy t ~middle:j ~out_switch:p ~wl:w2)
        serves)
    route.hops;
  mark_endpoints_busy t conn;
  add_route t route

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Returns the moved victim's new route (already re-keyed under its
   original id) alongside the admitted route, so the telemetry wrapper
   can report the move. *)
let connect_rearrangeable_raw t (conn : Connection.t) =
  match connect_raw t conn with
  | Ok route -> Ok (route, None)
  | Error (Blocked _ as blocked) ->
    (* Try moving one existing connection out of the way: release it,
       place the request, then re-route the victim on what remains.
       Cheap victims first — a route spanning fewer middles frees fewer
       resources but is far likelier to re-home — and the scan is
       capped at [rearrange_limit] so a loaded fabric cannot turn one
       admission into a full-population sweep. *)
    let victims =
      Imap.fold (fun _ route acc -> route :: acc) t.routes []
      |> List.map (fun route -> (List.length route.hops, route))
      |> List.sort (fun (ha, (a : route)) (hb, b) ->
             match Int.compare ha hb with
             | 0 -> Int.compare a.id b.id
             | c -> c)
      |> List.map snd
      |> take t.rearrange_limit
    in
    let rec attempt = function
      | [] -> Error blocked
      | victim :: rest -> (
        release t victim;
        remove_route t victim;
        match connect_raw t conn with
        | Error _ ->
          readmit t victim;
          attempt rest
        | Ok new_route -> (
          match connect_raw t victim.connection with
          | Ok moved ->
            (* Re-key the moved route under the victim's original id:
               callers track live connections by id, and a silent
               renumbering would leave their handles stale. *)
            let rekeyed = { moved with id = victim.id } in
            remove_route t moved;
            add_route t rekeyed;
            Ok (new_route, Some rekeyed)
          | Error _ ->
            (* undo: drop the new route, restore the victim verbatim *)
            release t new_route;
            remove_route t new_route;
            readmit t victim;
            attempt rest))
    in
    attempt victims
  | Error _ as e -> e

let connect_rearrangeable t (conn : Connection.t) =
  match t.instruments with
  | None ->
    Result.map
      (fun (route, moved) -> (route, if moved = None then 0 else 1))
      (connect_rearrangeable_raw t conn)
  | Some i ->
    let t0 = Tel.Sink.now i.sink in
    let result = connect_rearrangeable_raw t conn in
    let dur = Tel.Sink.now i.sink -. t0 in
    let moves = match result with Ok (_, Some _) -> 1 | _ -> 0 in
    note_connect_outcome t i ~dur ~histogram:i.h_connect_rearrangeable
      ~moved:moves
      (Result.map fst result);
    (match result with
    | Ok (_, Some moved) ->
      Tel.Sink.record i.sink ~route_id:moved.id
        ~middles:(route_middles moved)
        ~wavelengths:(route_stage1_wls moved) Tel.Trace.Rearrange
    | _ -> ());
    Result.map (fun (route, moved) -> (route, if moved = None then 0 else 1)) result

let active_routes t = Imap.bindings t.routes |> List.map snd
let find_route t id = Imap.find_opt id t.routes

let destination_multiset t j =
  if j < 1 || j > t.topo.m then invalid_arg "Network.destination_multiset: bad middle";
  let ms = ref (Multiset.create ~r:t.topo.r ~k:t.topo.k) in
  for p = 1 to t.topo.r do
    for _ = 1 to slot_used_count t.stage2 ~row:j ~col:p do
      ms := Multiset.add !ms p
    done
  done;
  !ms

let destination_multiset_plane t ~middle ~wl =
  if middle < 1 || middle > t.topo.m then
    invalid_arg "Network.destination_multiset_plane: bad middle";
  if wl < 1 || wl > t.topo.k then
    invalid_arg "Network.destination_multiset_plane: bad wavelength";
  let ms = ref (Multiset.create ~r:t.topo.r ~k:1) in
  for p = 1 to t.topo.r do
    if slot_busy t.stage2 ~row:middle ~col:p ~wl then
      ms := Multiset.add !ms p
  done;
  !ms

let stage1_in_use t ~input_switch ~middle =
  if input_switch < 1 || input_switch > t.topo.r then
    invalid_arg "Network.stage1_in_use: bad input switch";
  if middle < 1 || middle > t.topo.m then
    invalid_arg "Network.stage1_in_use: bad middle";
  stage1_used_count t ~input_switch ~middle

(* ----- fault injection ------------------------------------------------- *)

let rebuild_fault_state t =
  t.failed_middles <- Iset.empty;
  t.failed_inputs <- Iset.empty;
  t.failed_outputs <- Iset.empty;
  stage_reset_dead t.stage1;
  stage_reset_dead t.stage2;
  t.dead_converters <- Pset.empty;
  Fault.Set.iter
    (function
      | Fault.Middle j -> t.failed_middles <- Iset.add j t.failed_middles
      | Fault.Input_module i -> t.failed_inputs <- Iset.add i t.failed_inputs
      | Fault.Output_module p -> t.failed_outputs <- Iset.add p t.failed_outputs
      | Fault.Stage1_laser { input; middle; wl } ->
        slot_dead_set t.stage1 ~row:input ~col:middle ~wl
      | Fault.Stage2_laser { middle; output; wl } ->
        slot_dead_set t.stage2 ~row:middle ~col:output ~wl
      | Fault.Converter { middle; output } ->
        t.dead_converters <- Pset.add (middle, output) t.dead_converters)
    t.faults

(* Whether a live route traverses the faulted component. *)
let route_hit (route : route) = function
  | Fault.Middle j -> List.exists (fun h -> h.middle = j) route.hops
  | Fault.Input_module i -> route.input_switch = i
  | Fault.Output_module p ->
    List.exists (fun h -> List.mem_assoc p h.serves) route.hops
  | Fault.Stage1_laser { input; middle; wl } ->
    route.input_switch = input
    && List.exists (fun h -> h.middle = middle && h.stage1_wl = wl) route.hops
  | Fault.Stage2_laser { middle; output; wl } ->
    List.exists
      (fun h ->
        h.middle = middle
        && List.exists (fun (p, w) -> p = output && w = wl) h.serves)
      route.hops
  | Fault.Converter { middle; output } ->
    (* only routes that actually relied on the converter: the hop
       retuned between its two links.  MSW middle modules never
       convert, so MSW-dominant routes are immune. *)
    List.exists
      (fun h ->
        h.middle = middle
        && List.exists (fun (p, w) -> p = output && w <> h.stage1_wl) h.serves)
      route.hops

let validate_fault t fn fault =
  match Fault.validate ~m:t.topo.m ~r:t.topo.r ~k:t.topo.k fault with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Network.%s: %s" fn e)

let fault_detail fault = ("fault", Format.asprintf "%a" Fault.pp fault)

let inject_fault t fault =
  validate_fault t "inject_fault" fault;
  if Fault.Set.mem fault t.faults then []
  else begin
    t.faults <- Fault.Set.add fault t.faults;
    rebuild_fault_state t;
    let victims =
      Imap.bindings t.routes
      |> List.map snd
      |> List.filter (fun route -> route_hit route fault)
    in
    List.iter
      (fun route ->
        release t route;
        remove_route t route)
      victims;
    (match t.instruments with
    | None -> ()
    | Some i ->
      Tel.Metrics.inc i.faults_injected;
      Tel.Metrics.add i.fault_teardowns (List.length victims);
      update_gauges t;
      Tel.Sink.record i.sink
        ~detail:
          [ fault_detail fault;
            ("victims", string_of_int (List.length victims)) ]
        Tel.Trace.Fault_inject);
    List.map (fun route -> route.connection) victims
  end

let clear_fault t fault =
  validate_fault t "clear_fault" fault;
  let was_in_force = Fault.Set.mem fault t.faults in
  t.faults <- Fault.Set.remove fault t.faults;
  rebuild_fault_state t;
  match t.instruments with
  | None -> ()
  | Some i ->
    if was_in_force then begin
      Tel.Metrics.inc i.faults_cleared;
      update_gauges t;
      Tel.Sink.record i.sink ~detail:[ fault_detail fault ]
        Tel.Trace.Fault_clear
    end

let faults t = Fault.Set.elements t.faults
let degraded t = not (Fault.Set.is_empty t.faults)

let clear t =
  List.iter (fun (_, route) -> release t route) (Imap.bindings t.routes);
  t.routes <- Imap.empty;
  t.n_routes <- 0;
  t.route_sum <- 0;
  update_gauges t

(* ----- persistence ----------------------------------------------------- *)

(* Everything below is the *minimal* state: busy planes, endpoint sets,
   per-middle occupancy and the derived fault views are all rebuilt on
   restore from the routes and the fault set, so a snapshot cannot
   drift internally inconsistent — there is one source of truth. *)
type snapshot = {
  s_topology : Topology.t;
  s_construction : construction;
  s_output_model : Model.t;
  s_x_limit : int;
  s_strategy : string;
  s_rearrange_limit : int;
  s_next_id : int;
  s_routes : route list;
  s_faults : Fault.t list;
}

let snapshot t =
  {
    s_topology = t.topo;
    s_construction = t.construction;
    s_output_model = t.output_model;
    s_x_limit = t.x_limit;
    s_strategy = t.strategy;
    s_rearrange_limit = t.rearrange_limit;
    s_next_id = t.next_id;
    s_routes = Imap.bindings t.routes |> List.map snd;
    s_faults = Fault.Set.elements t.faults;
  }

let restore ?telemetry s =
  let t =
    create
      ~config:
        {
          Config.strategy = s.s_strategy;
          x_limit = Some s.s_x_limit;
          rearrange_limit = s.s_rearrange_limit;
          telemetry;
        }
      ~construction:s.s_construction ~output_model:s.s_output_model s.s_topology
  in
  if s.s_next_id < 0 then invalid_arg "Network.restore: negative next_id";
  t.faults <-
    List.fold_left
      (fun acc f ->
        validate_fault t "restore" f;
        Fault.Set.add f acc)
      Fault.Set.empty s.s_faults;
  rebuild_fault_state t;
  (* faults first: live routes never occupy a dead slot (injection tears
     them down), so readmitting over the rebuilt dead planes is safe *)
  List.iter
    (fun route ->
      if route.id >= s.s_next_id then
        invalid_arg
          (Printf.sprintf "Network.restore: route id %d >= next_id %d" route.id
             s.s_next_id);
      if Imap.mem route.id t.routes then
        invalid_arg
          (Printf.sprintf "Network.restore: route id %d repeated" route.id);
      readmit t route)
    s.s_routes;
  t.next_id <- s.s_next_id;
  update_gauges t;
  t

let mix_fault h = function
  | Fault.Middle j -> mix (mix h 1) j
  | Fault.Input_module i -> mix (mix h 2) i
  | Fault.Output_module p -> mix (mix h 3) p
  | Fault.Stage1_laser { input; middle; wl } ->
    List.fold_left mix h [ 4; input; middle; wl ]
  | Fault.Stage2_laser { middle; output; wl } ->
    List.fold_left mix h [ 5; middle; output; wl ]
  | Fault.Converter { middle; output } -> List.fold_left mix h [ 6; middle; output ]

(* O(faults), never O(routes): the routes enter through their running
   sum.  The strategy enters by name.  The constant 0
   stands where earlier releases mixed a link-state implementation tag
   (0 for their bitset planes), so the states those planes held keep
   their digests.  Masked to 55 bits, the range the wire codec's ints
   carry. *)
let digest t =
  let h =
    List.fold_left mix 0
      [
        t.topo.n; t.topo.m; t.topo.r; t.topo.k;
        (match t.construction with Msw_dominant -> 0 | Maw_dominant -> 1);
        Model.strength t.output_model; t.x_limit;
      ]
  in
  let h = Wdm_core.Strategy.mix_string h t.strategy in
  let h =
    List.fold_left mix h
      [ 0; t.rearrange_limit; t.next_id; Fault.Set.cardinal t.faults ]
  in
  let h = Fault.Set.fold (fun f h -> mix_fault h f) t.faults h in
  mix (mix h t.n_routes) t.route_sum land ((1 lsl 55) - 1)

let copy t =
  {
    t with
    stage1 = copy_stage t.stage1;
    stage2 = copy_stage t.stage2;
    middle_occ = Array.copy t.middle_occ;
    scratch_uncovered = Array.make t.topo.r 0;
    mark_middle = Array.make t.topo.m 0;
    mark_requested = Array.make t.topo.r 0;
    mark_served = Array.make t.topo.r 0;
    (* a snapshot is for speculative search (the adversary's what-ifs);
       letting it feed the original's instruments would corrupt the
       production counters *)
    instruments = None;
  }

let pp_error ppf e = Format.pp_print_string ppf (Error.to_string e)
let pp_disconnect_error ppf e =
  Format.pp_print_string ppf (Error.disconnect_to_string e)

let pp_state ppf t =
  Format.fprintf ppf "@[<v>stage 1 (wavelengths used per input module x middle):@,";
  for i = 1 to t.topo.r do
    Format.fprintf ppf "  in%d:" i;
    for j = 1 to t.topo.m do
      Format.fprintf ppf " %d/%d" (stage1_used_count t ~input_switch:i ~middle:j) t.topo.k
    done;
    Format.pp_print_cut ppf ()
  done;
  Format.fprintf ppf "middle destination multisets:@,";
  for j = 1 to t.topo.m do
    Format.fprintf ppf "  M_%d = %a@," j Multiset.pp (destination_multiset t j)
  done;
  if degraded t then
    Format.fprintf ppf "faults: %a@,"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Fault.pp)
      (faults t);
  Format.fprintf ppf "active routes: %d, utilization %.1f%%@]"
    t.n_routes (100. *. utilization t)

let pp_route ppf route =
  Format.fprintf ppf "route %d: %a via %a" route.id Connection.pp
    route.connection
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
       (fun ppf { middle; stage1_wl; serves } ->
         Format.fprintf ppf "m%d(in l%d; %s)" middle stage1_wl
           (String.concat ","
              (List.map (fun (p, w) -> Printf.sprintf "o%d:l%d" p w) serves))))
    route.hops
