type t = { source : Endpoint.t; destinations : Endpoint.t list }

type error = Empty_destinations | Repeated_destination_port of int

let repeated_port dests =
  let sorted = List.sort Int.compare (List.map (fun (d : Endpoint.t) -> d.port) dests) in
  let rec scan = function
    | a :: (b :: _ as rest) -> if a = b then Some a else scan rest
    | [ _ ] | [] -> None
  in
  scan sorted

let make ~source ~destinations =
  match destinations with
  | [] -> Error Empty_destinations
  | _ -> (
    match repeated_port destinations with
    | Some p -> Error (Repeated_destination_port p)
    | None ->
      Ok { source; destinations = List.sort Endpoint.compare destinations })

let pp_error ppf = function
  | Empty_destinations -> Format.pp_print_string ppf "empty destination set"
  | Repeated_destination_port p ->
    Format.fprintf ppf "two destinations on output port %d" p

let make_exn ~source ~destinations =
  match make ~source ~destinations with
  | Ok c -> c
  | Error e -> invalid_arg (Format.asprintf "Connection.make_exn: %a" pp_error e)

let unicast ~source ~destination =
  { source; destinations = [ destination ] }

let fanout c = List.length c.destinations
let dest_ports c = List.map (fun (d : Endpoint.t) -> d.port) c.destinations

let equal a b =
  Endpoint.equal a.source b.source
  && List.length a.destinations = List.length b.destinations
  && List.for_all2 Endpoint.equal a.destinations b.destinations

let compare a b =
  let c = Endpoint.compare a.source b.source in
  if c <> 0 then c else List.compare Endpoint.compare a.destinations b.destinations

let hash_into h c =
  let mix = Strategy.mix in
  let endpoint h (e : Endpoint.t) = mix (mix h e.port) e.wl in
  List.fold_left endpoint
    (mix (endpoint h c.source) (List.length c.destinations))
    c.destinations

let pp ppf c =
  Format.fprintf ppf "%a -> {%a}" Endpoint.pp c.source
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Endpoint.pp)
    c.destinations
