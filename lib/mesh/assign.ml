type t = {
  k : int;
  mask : int array; (* edge id -> bitmask, bit (wl-1) set = in use *)
  counts : int array; (* wl (1-based) -> edges carrying it *)
  mutable slots : int;
  ascending : int list; (* 1..k, the first-fit scan, built once *)
  anneal : int array; (* the annealed scan's working order, refilled per call *)
}

let create ~k ~m =
  if k < 1 || k > 62 then invalid_arg "Assign.create: k must be in 1..62";
  if m < 0 then invalid_arg "Assign.create: negative edge count";
  {
    k;
    mask = Array.make m 0;
    counts = Array.make (k + 1) 0;
    slots = 0;
    ascending = List.init k (fun i -> i + 1);
    anneal = Array.make k 0;
  }

let k t = t.k

let check t ~edge ~wl =
  if wl < 1 || wl > t.k then invalid_arg "Assign: wavelength out of range";
  if edge < 0 || edge >= Array.length t.mask then
    invalid_arg "Assign: edge out of range"

let used t ~edge ~wl =
  check t ~edge ~wl;
  t.mask.(edge) land (1 lsl (wl - 1)) <> 0

let occupancy t ~edge = t.mask.(edge)

let free_on t ~edges ~wl = List.for_all (fun e -> not (used t ~edge:e ~wl)) edges

let occupy t ~edges ~wl =
  if not (free_on t ~edges ~wl) then
    invalid_arg "Assign.occupy: wavelength already in use on an edge";
  List.iter
    (fun e ->
      t.mask.(e) <- t.mask.(e) lor (1 lsl (wl - 1));
      t.counts.(wl) <- t.counts.(wl) + 1;
      t.slots <- t.slots + 1)
    edges

let release t ~edges ~wl =
  List.iter
    (fun e ->
      if not (used t ~edge:e ~wl) then
        invalid_arg "Assign.release: wavelength not in use on an edge";
      t.mask.(e) <- t.mask.(e) land lnot (1 lsl (wl - 1));
      t.counts.(wl) <- t.counts.(wl) - 1;
      t.slots <- t.slots - 1)
    edges

let use_count t ~wl =
  if wl < 1 || wl > t.k then invalid_arg "Assign.use_count";
  t.counts.(wl)

let occupied_slots t = t.slots

let edge_load t ~edge =
  if edge < 0 || edge >= Array.length t.mask then
    invalid_arg "Assign.edge_load: edge out of range";
  let rec pop acc m = if m = 0 then acc else pop (acc + (m land 1)) (m lsr 1) in
  pop 0 t.mask.(edge)

(* ----- strategy plug-ins ------------------------------------------------ *)

type plugin = {
  p_name : string;
  p_doc : string;
  p_order : t -> hash:int -> int list;
  p_admit : (t -> edges:int list -> wl:int -> fanout:int -> bool) option;
}

module Plugin_registry = Wdm_core.Strategy.Registry (struct
  type t = plugin

  let name p = p.p_name
end)

let first_fit_order t ~hash:_ = t.ascending

(* By use count, ties to the lower index: a total order on distinct
   wavelengths, compared without building a tuple per comparison. *)
let most_used_order t ~hash:_ =
  List.stable_sort
    (fun a b ->
      match Int.compare t.counts.(b) t.counts.(a) with
      | 0 -> Int.compare a b
      | c -> c)
    t.ascending

let least_used_order t ~hash:_ =
  List.stable_sort
    (fun a b ->
      match Int.compare t.counts.(a) t.counts.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    t.ascending

let random_order t ~hash =
  let start = (hash land max_int) mod t.k in
  List.init t.k (fun i -> ((start + i) mod t.k) + 1)

(* Simulated annealing over the wavelength scan order, seeded from the
   request hash so WAL replay re-derives the same order.  Cost prefers
   heavily-used wavelengths early (packing, like most-used) but the
   stochastic swaps let it escape the strict sort when loads tie or
   nearly tie. *)
let annealed_order t ~hash =
  let rng = Wdm_core.Strategy.Det_rng.make ~seed:hash in
  let order = t.anneal in
  for i = 0 to t.k - 1 do
    order.(i) <- i + 1
  done;
  let cost o =
    let c = ref 0. in
    Array.iteri
      (fun i wl -> c := !c +. (float_of_int (i * (1000 + (t.counts.(wl) * 10))) /. 1000.))
      o;
    !c
  in
  let current = ref (cost order) in
  let temp = ref 2.0 in
  for _ = 1 to 32 do
    if t.k > 1 then begin
      let i = Wdm_core.Strategy.Det_rng.int rng t.k in
      let j = Wdm_core.Strategy.Det_rng.int rng t.k in
      let a = order.(i) and b = order.(j) in
      order.(i) <- b;
      order.(j) <- a;
      let c = cost order in
      let accept =
        c <= !current
        || Wdm_core.Strategy.Det_rng.float rng
           < exp ((!current -. c) /. !temp)
      in
      if accept then current := c
      else begin
        order.(i) <- a;
        order.(j) <- b
      end
    end;
    temp := !temp *. 0.85
  done;
  Array.to_list order

let crosstalk_parser name =
  match String.split_on_char ':' name with
  | "crosstalk" :: rest -> (
    let base_name, threshold =
      match rest with
      | [] -> (Some "first-fit", Some 20.)
      | [ b ] -> (Some b, Some 20.)
      | [ b; db ] -> (Some b, float_of_string_opt db)
      | _ -> (None, None)
    in
    match (base_name, threshold) with
    | Some base_name, Some threshold_db -> (
      match Plugin_registry.resolve base_name with
      | None -> None
      | Some base ->
        let admit t ~edges ~wl:_ ~fanout =
          let sharers =
            List.fold_left (fun acc e -> acc + edge_load t ~edge:e) 0 edges
          in
          Wdm_optics.Crosstalk.acceptable ~threshold_db ~sharers
            ~fanout:(max 1 fanout) ()
        in
        Some
          {
            p_name = name;
            p_doc =
              Printf.sprintf
                "%s, refusing wavelengths whose worst-case crosstalk margin \
                 on the chosen edges falls below %g dB"
                base.p_name threshold_db;
            p_order = base.p_order;
            p_admit = Some admit;
          })
    | _ -> None)
  | _ -> None

let () =
  let reg p_name p_doc p_order =
    Plugin_registry.register { p_name; p_doc; p_order; p_admit = None }
  in
  reg "first-fit" "lowest-index free wavelength; the default" first_fit_order;
  reg "most-used" "pack onto the globally busiest wavelengths first"
    most_used_order;
  reg "least-used" "spread onto the globally least-busy wavelengths first"
    least_used_order;
  reg "random" "request-hash rotation of the wavelength scan" random_order;
  (* an edge's occupancy word is the union of the wavelengths of the
     live routes crossing it, so the conflict-graph greedy's pick is
     the first-fit scan's (assign.mli) *)
  reg "coloring"
    "greedy coloring of the live routes' conflict graph, which picks what \
     the first-fit scan picks"
    first_fit_order;
  reg "adaptive"
    "load-adaptive: rank wavelengths by the live per-wavelength occupancy \
     gauge, least-loaded first"
    least_used_order;
  reg "annealed"
    "simulated annealing over the wavelength scan order, request-seeded"
    annealed_order;
  Plugin_registry.register_parser crosstalk_parser

let make_plugin ~name ~doc ?admit order =
  { p_name = name; p_doc = doc; p_order = order; p_admit = admit }

let register_plugin = Plugin_registry.register
let register_plugin_parser = Plugin_registry.register_parser
let resolve_plugin name = Plugin_registry.resolve name
let plugin_names () = Plugin_registry.names ()
let plugin_name p = p.p_name
let plugin_doc p = p.p_doc
let plugin_order p = p.p_order

let plugin_admits p t ~edges ~wl ~fanout =
  match p.p_admit with
  | None -> true
  | Some admit -> admit t ~edges ~wl ~fanout

let strategy_of_string s =
  if Plugin_registry.mem s then Ok s
  else
    Error
      (Printf.sprintf "unknown strategy %S (want %s, or crosstalk[:BASE[:DB]])"
         s
         (String.concat ", " (Plugin_registry.names ())))
