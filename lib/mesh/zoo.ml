let unit_links l = List.map (fun (u, v) -> (u, v, 1.)) l

(* NSFNET T1: the standard 14-node, 21-link backbone used throughout
   the RWA literature (nodes renumbered 1-based). *)
let nsf14 () =
  Graph.make ~n:14
    (unit_links
       [
         (1, 2); (1, 3); (1, 6); (2, 3); (2, 4); (3, 9); (4, 5); (4, 7);
         (4, 14); (5, 6); (5, 10); (6, 11); (6, 13); (7, 8); (8, 9); (9, 10);
         (10, 12); (10, 14); (11, 12); (11, 13); (12, 14);
       ])

(* RedCLARA: 13 PoPs on the Latin-American ring with cross links. *)
let clara () =
  Graph.make ~n:13
    (unit_links
       [
         (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7); (7, 8); (8, 9);
         (9, 10); (10, 11); (11, 12); (12, 13); (13, 1); (2, 7); (3, 9);
         (5, 11); (6, 13); (4, 12);
       ])

(* JANET core: 7 nodes, 11 links. *)
let janet () =
  Graph.make ~n:7
    (unit_links
       [
         (1, 2); (1, 3); (2, 3); (2, 4); (2, 5); (3, 5); (4, 5); (4, 6);
         (4, 7); (5, 7); (6, 7);
       ])

let max_nodes = 4096

let ring n =
  if n < 3 then invalid_arg "Zoo.ring: need n >= 3";
  if n > max_nodes then
    invalid_arg (Printf.sprintf "Zoo.ring: at most %d nodes" max_nodes);
  let links = ref [] in
  for i = 1 to n - 1 do
    links := (i, i + 1) :: !links
  done;
  Graph.make ~n (unit_links ((n, 1) :: !links))

let torus rows cols =
  if rows < 2 || cols < 2 then invalid_arg "Zoo.torus: need rows, cols >= 2";
  (* divided, so a huge dimension cannot overflow the product *)
  if rows > max_nodes / cols then
    invalid_arg (Printf.sprintf "Zoo.torus: at most %d nodes" max_nodes);
  let node r c = (r * cols) + c + 1 in
  let links = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let here = node r c in
      (* a 2-wide dimension wraps onto the same neighbor: only its
         first column (row) links across *)
      if cols > 2 || c = 0 then
        links := (here, node r ((c + 1) mod cols)) :: !links;
      if rows > 2 || r = 0 then
        links := (here, node ((r + 1) mod rows) c) :: !links
    done
  done;
  Graph.make ~n:(rows * cols) (unit_links !links)

let names = [ "nsf14"; "clara"; "janet" ]

let by_name name =
  let parse_int s = match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad topology %S" name)
  in
  match name with
  | "nsf14" | "nsf" -> Ok (nsf14 ())
  | "clara" -> Ok (clara ())
  | "janet" -> Ok (janet ())
  | _ -> (
    let try_make f = match f () with
      | g -> Ok g
      | exception Invalid_argument e -> Error e
    in
    match String.index_opt name 'x' with
    | Some _ when String.length name > 5 && String.sub name 0 5 = "torus" -> (
      let dims = String.sub name 5 (String.length name - 5) in
      match String.split_on_char 'x' dims with
      | [ r; c ] -> (
        match (parse_int r, parse_int c) with
        | Ok r, Ok c -> try_make (fun () -> torus r c)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      | _ -> Error (Printf.sprintf "bad topology %S" name))
    | _ ->
      if String.length name > 4 && String.sub name 0 4 = "ring" then
        match parse_int (String.sub name 4 (String.length name - 4)) with
        | Ok n -> try_make (fun () -> ring n)
        | Error _ as e -> e
      else
        Error
          (Printf.sprintf
             "unknown topology %S (want nsf14, clara, janet, ringN or torusRxC)"
             name))
