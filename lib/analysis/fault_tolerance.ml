open Wdm_multistage

type slack = {
  eval : Conditions.evaluation;
  f : int;
  m_required : int;
}

let provision ~construction ~n ~r ~k ~f =
  if f < 0 then invalid_arg "Fault_tolerance.provision: f must be >= 0";
  let eval = Conditions.evaluate construction ~n ~r ~k in
  { eval; f; m_required = eval.Conditions.m_min + f }

let tolerates ~construction ~n ~r ~k ~m ~f =
  f >= 0 && m - f >= (Conditions.evaluate construction ~n ~r ~k).Conditions.m_min

type check = {
  failed : int list;
  verdict : Adversary.verdict;
}

(* all size-[f] subsets of [1..m], each ascending *)
let rec choose f lo m =
  if f = 0 then [ [] ]
  else if lo > m then []
  else
    List.map (fun s -> lo :: s) (choose (f - 1) (lo + 1) m)
    @ choose f (lo + 1) m

let verify_middle_slack ?max_states ?max_fanout ?(all_subsets = false)
    ~construction ~output_model ~n ~r ~k ~m ~f () =
  if f < 0 || f > m then
    invalid_arg "Fault_tolerance.verify_middle_slack: need 0 <= f <= m";
  let topo = Topology.make_exn ~n ~m ~r ~k in
  let subsets =
    if all_subsets then choose f 1 m else [ List.init f (fun j -> j + 1) ]
  in
  List.map
    (fun failed ->
      let verdict =
        Adversary.search ?max_states ?max_fanout
          ~prepare:(fun net ->
            List.iter (fun j -> ignore (Network.inject_fault net (Wdm_faults.Fault.Middle j))) failed)
          ~construction ~output_model topo
      in
      { failed; verdict })
    subsets

let pp_check ppf { failed; verdict } =
  Format.fprintf ppf "failed {%s}: %a"
    (String.concat "," (List.map string_of_int failed))
    Adversary.pp_verdict verdict
