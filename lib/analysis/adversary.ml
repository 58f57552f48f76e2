open Wdm_core
open Wdm_multistage

type step = Connect of Connection.t | Disconnect of Connection.t

type witness = { steps : step list; probe : Connection.t }

type verdict =
  | Blocking of witness
  | Nonblocking_proved of { states_explored : int }
  | Search_exhausted of { states_explored : int }

(* --- request universe --------------------------------------------------- *)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let s = subsets rest in
    s @ List.map (fun sub -> x :: sub) s

(* all wavelength decorations of a port set, per model *)
let decorate model ~k ~src_wl ports =
  match (model : Model.t) with
  | MSW -> [ List.map (fun p -> Endpoint.make ~port:p ~wl:src_wl) ports ]
  | MSDW ->
    List.init k (fun w ->
        List.map (fun p -> Endpoint.make ~port:p ~wl:(w + 1)) ports)
  | MAW ->
    let rec expand = function
      | [] -> [ [] ]
      | p :: rest ->
        let tails = expand rest in
        List.concat_map
          (fun tail ->
            List.init k (fun w -> Endpoint.make ~port:p ~wl:(w + 1) :: tail))
          tails
    in
    expand ports

let all_requests ~max_fanout model (spec : Network_spec.t) =
  let ports = List.init spec.n (fun p -> p + 1) in
  let port_sets =
    subsets ports
    |> List.filter (fun s -> s <> [] && List.length s <= max_fanout)
  in
  List.concat_map
    (fun (src : Endpoint.t) ->
      List.concat_map
        (fun ps ->
          List.map
            (fun destinations -> Connection.make_exn ~source:src ~destinations)
            (decorate model ~k:spec.k ~src_wl:src.wl ps))
        port_sets)
    (Network_spec.inputs spec)

(* --- state keys ---------------------------------------------------------- *)

let route_key (r : Network.route) =
  Format.asprintf "%a|%a" Connection.pp r.Network.connection
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf (h : Network.hop) ->
         Format.fprintf ppf "%d@%d:%s" h.Network.middle h.Network.stage1_wl
           (String.concat ","
              (List.map
                 (fun (p, w) -> Printf.sprintf "%d/%d" p w)
                 (List.sort compare h.Network.serves)))))
    (List.sort
       (fun (a : Network.hop) b -> Int.compare a.Network.middle b.Network.middle)
       r.Network.hops)

let state_key net =
  Network.active_routes net
  |> List.map route_key
  |> List.sort String.compare
  |> String.concat "&"

(* --- search --------------------------------------------------------------- *)

let search ?(max_states = 50_000) ?max_fanout ?(prepare = fun (_ : Network.t) -> ())
    ~construction ~output_model topo =
  let spec = Topology.spec topo in
  let max_fanout =
    Option.value ~default:(Wdm_core.Network_spec.num_endpoints spec) max_fanout
  in
  let universe = all_requests ~max_fanout output_model spec in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue : (Network.t * step list) Queue.t = Queue.create () in
  let root = Network.create ~construction ~output_model topo in
  prepare root;
  Hashtbl.add seen (state_key root) ();
  Queue.add (root, []) queue;
  let explored = ref 0 in
  let witness = ref None in
  (try
     while not (Queue.is_empty queue) do
       let net, path = Queue.pop queue in
       incr explored;
       if !explored > max_states then raise Exit;
       (* try every request; any Blocked rejection is a witness *)
       List.iter
         (fun conn ->
           let trial = Network.copy net in
           match Network.connect trial conn with
           | Ok _ ->
             let key = state_key trial in
             if not (Hashtbl.mem seen key) then begin
               Hashtbl.add seen key ();
               Queue.add (trial, Connect conn :: path) queue
             end
           | Error (Network.Blocked _) ->
             witness := Some (List.rev path, conn);
             raise Exit
           | Error
               ( Network.Invalid _ | Network.Source_busy _
               | Network.Destination_busy _ | Network.Unserviceable _ ) ->
             (* not a legal request in this state: no obligation — an
                unserviceable endpoint module means no switch at all
                could carry the request *)
             ())
         universe;
       (* teardown successors *)
       List.iter
         (fun (route : Network.route) ->
           let trial = Network.copy net in
           ignore (Network.disconnect trial route.Network.id);
           let key = state_key trial in
           if not (Hashtbl.mem seen key) then begin
             Hashtbl.add seen key ();
             Queue.add (trial, Disconnect route.Network.connection :: path) queue
           end)
         (Network.active_routes net)
     done
   with Exit -> ());
  match !witness with
  | Some (steps, probe) -> Blocking { steps; probe }
  | None ->
    if !explored > max_states then Search_exhausted { states_explored = max_states }
    else Nonblocking_proved { states_explored = !explored }

let frontier_exact ?max_states ~construction ~output_model ~n ~r ~k () =
  let eval = Conditions.evaluate construction ~n ~r ~k in
  List.init (eval.Conditions.m_min - n + 1) (fun i ->
      let m = n + i in
      let topo = Topology.make_exn ~n ~m ~r ~k in
      (m, search ?max_states ~construction ~output_model topo))

let replay ~construction ~output_model topo { steps; probe } =
  let net = Network.create ~construction ~output_model topo in
  let step_ok = function
    | Connect c -> Result.is_ok (Network.connect net c)
    | Disconnect c -> (
      match
        List.find_opt
          (fun (r : Network.route) ->
            Connection.equal r.Network.connection c)
          (Network.active_routes net)
      with
      | Some r -> Result.is_ok (Network.disconnect net r.Network.id)
      | None -> false)
  in
  List.for_all step_ok steps
  &&
  match Network.connect net probe with
  | Error (Network.Blocked _) -> true
  | Ok _ | Error _ -> false

let pp_step ppf = function
  | Connect c -> Format.fprintf ppf "  connect %a" Connection.pp c
  | Disconnect c -> Format.fprintf ppf "  disconnect %a" Connection.pp c

let pp_verdict ppf = function
  | Blocking { steps; probe } ->
    Format.fprintf ppf "@[<v>BLOCKING witness:@ %a@ probe: %a@]"
      (Format.pp_print_list pp_step) steps Connection.pp probe
  | Nonblocking_proved { states_explored } ->
    Format.fprintf ppf "nonblocking (all %d reachable states admit every request)"
      states_explored
  | Search_exhausted { states_explored } ->
    Format.fprintf ppf "inconclusive (budget of %d states exhausted)" states_explored
