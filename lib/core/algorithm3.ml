module Nodeset = Lbc_graph.Nodeset
module Combi = Lbc_graph.Combi

(* Candidate pairs (T, F): T ⊆ V with |T| ≤ t, then F ⊆ V − T with
   |F| ≤ f − |T|, in a fixed deterministic order. *)
let candidate_pairs ~nodes ~f ~t =
  List.concat_map
    (fun cap_t ->
      let rest = List.filter (fun v -> not (List.mem v cap_t)) nodes in
      List.map
        (fun cap_f -> (cap_t, cap_f))
        (Combi.subsets_up_to rest (f - List.length cap_t)))
    (Combi.subsets_up_to nodes t)

let phases ~g ~f ~t =
  List.length (candidate_pairs ~nodes:(Lbc_graph.Graph.nodes g) ~f ~t)

let schedule ~g ~f ~t =
  Array.of_list
    (List.map
       (fun (cap_t, cap_f) -> (Nodeset.of_list cap_t, Nodeset.of_list cap_f))
       (candidate_pairs ~nodes:(Lbc_graph.Graph.nodes g) ~f ~t))

let proc ~g ~f ~t = Phase_driver.proc ~g ~f ~schedule:(schedule ~g ~f ~t)

let run ~g ~f ~t ~inputs ~faulty ?(equivocators = Nodeset.empty) ?strategy
    ?seed () =
  if Array.length inputs <> Lbc_graph.Graph.size g then
    invalid_arg "Algorithm3.run: inputs length mismatch";
  if f < 0 || t < 0 || t > f then
    invalid_arg "Algorithm3.run: need 0 <= t <= f";
  Phase_driver.run ~g ~f ~schedule:(schedule ~g ~f ~t)
    ~model:(Lbc_sim.Engine.Hybrid equivocators)
    ~decisive_counter:"a3.decisive_phase" ~inputs ~faulty ?strategy ?seed ()
