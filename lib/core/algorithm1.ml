module Nodeset = Lbc_graph.Nodeset

let phases ~g ~f = Lbc_graph.Combi.phase_count ~n:(Lbc_graph.Graph.size g) ~f
let rounds ~g ~f = phases ~g ~f * Lbc_graph.Graph.size g

(* The (T, F) schedule with T = ∅: one phase per F, |F| ≤ f. *)
let schedule ~g ~f =
  Array.of_list
    (List.map
       (fun cap_f -> (Nodeset.empty, Nodeset.of_list cap_f))
       (Lbc_graph.Combi.subsets_up_to (Lbc_graph.Graph.nodes g) f))

let proc ~g ~f = Phase_driver.proc ~g ~f ~schedule:(schedule ~g ~f)

type phase_observation = Phase_driver.phase_observation = {
  phase_idx : int;
  cap_t : Nodeset.t;
  cap_f : Nodeset.t;
  stores : Bit.t Lbc_flood.Flood.store option array;
  before : Bit.t array;
  after : Bit.t array;
}

let run ~g ~f ~inputs ~faulty ?strategy ?seed ?observer () =
  if Array.length inputs <> Lbc_graph.Graph.size g then
    invalid_arg "Algorithm1.run: inputs length mismatch";
  if f < 0 then invalid_arg "Algorithm1.run: negative f";
  Phase_driver.run ~g ~f ~schedule:(schedule ~g ~f)
    ~model:Lbc_sim.Engine.Local_broadcast ~decisive_counter:"a1.decisive_phase"
    ~inputs ~faulty ?strategy ?seed ?observer ()
