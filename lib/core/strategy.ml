module type S = sig
  type ctx
  type plan
  type t = { name : string; doc : string; select : ctx -> plan option }
end

module Registry (P : sig
  type t

  val name : t -> string
end) =
struct
  let table : (string, P.t) Hashtbl.t = Hashtbl.create 16
  let parsers : (string -> P.t option) list ref = ref []

  let register p =
    let name = P.name p in
    if Hashtbl.mem table name then
      invalid_arg
        (Printf.sprintf "Strategy.Registry.register: %S is taken" name);
    Hashtbl.add table name p
  let register_parser f = parsers := !parsers @ [ f ]

  let resolve name =
    match Hashtbl.find_opt table name with
    | Some _ as p -> p
    | None -> List.find_map (fun f -> f name) !parsers

  let mem name = resolve name <> None

  let names () =
    Hashtbl.fold (fun name _ acc -> name :: acc) table []
    |> List.sort String.compare
end

(* splitmix64's finalizer with its multipliers truncated to OCaml's
   63-bit int (the top hex digit is masked off the 64-bit originals)
   and the result forced non-negative: still strong avalanche, no
   allocation, and identical on every 64-bit platform — the properties
   a replayed WAL needs from a request-derived seed. *)
let finalize z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  (z lxor (z lsr 31)) land max_int

let mix a b = finalize ((a * 0x1e3779b97f4a7c15) + b)
let mix3 a b c = mix (mix a b) c

let mix_string h s =
  String.fold_left (fun h c -> mix h (Char.code c)) (mix h (String.length s)) s

module Det_rng = struct
  type t = { mutable state : int }

  let make ~seed = { state = finalize (seed lor 1) }

  let next t =
    (* xorshift over the 62 usable bits; period is ample for the tens
       of draws an annealing pass makes per request *)
    let x = t.state in
    let x = x lxor (x lsl 13) land max_int in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) land max_int in
    t.state <- (if x = 0 then 0x2545f4914f6cdd1d else x);
    t.state

  let int t bound =
    if bound < 1 then invalid_arg "Strategy.Det_rng.int: bound must be >= 1";
    next t mod bound

  let float t = float_of_int (next t) /. float_of_int max_int
end
