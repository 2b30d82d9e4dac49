module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy

let phases ~g ~f = Lbc_graph.Combi.phase_count ~n:(Lbc_graph.Graph.size g) ~f
let rounds ~g ~f = phases ~g ~f * Lbc_graph.Graph.size g

(* Reactive per-node form. Phase p occupies global rounds p*n .. p*n+n-1;
   its flood is initiated at local round 0 and the steps (b)-(c) update
   runs when the next phase starts (or at output time for the last
   phase). The inbox at local round 0 contains only leftovers of the
   previous phase's final round; every such message carries a maximal
   path and is discarded by the flooding rules, so dropping it is
   equivalent. *)
let proc ~g ~f ~me ~input : (Bit.t Lbc_flood.Flood.wire, Bit.t) Engine.proc =
  let module Flood = Lbc_flood.Flood in
  let n = Lbc_graph.Graph.size g in
  let schedule =
    Array.of_list
      (List.map Nodeset.of_list
         (Lbc_graph.Combi.subsets_up_to (Lbc_graph.Graph.nodes g) f))
  in
  let gamma = ref input in
  let fresh_store () =
    Flood.create g ~me ~vcompare:Bit.compare ~initiate:!gamma ~default:Bit.default ()
  in
  let store = ref (fresh_store ()) in
  let current = ref 0 in
  let finalize () =
    gamma :=
      Phase.update g ~f ~cap_f:schedule.(!current) ~cap_t:Nodeset.empty
        ~store:!store ~gamma:!gamma
  in
  let step ~round ~inbox =
    let local = round mod n in
    if local = 0 && round > 0 then begin
      finalize ();
      current := min (round / n) (Array.length schedule - 1);
      store := fresh_store ()
    end;
    let inbox = if local = 0 then [] else inbox in
    (Flood.proc !store).Engine.step ~round:local ~inbox
  in
  let output () =
    finalize ();
    !gamma
  in
  { Engine.step; output }

type phase_observation = {
  phase_idx : int;
  cap_f : Nodeset.t;
  stores : Bit.t Lbc_flood.Flood.store option array;
  before : Bit.t array;
  after : Bit.t array;
}

let run ~g ~f ~inputs ~faulty ?(strategy = fun _ -> Strategy.Flip_forwards)
    ?(seed = 0) ?(observer = fun (_ : phase_observation) -> ()) () =
  let n = Lbc_graph.Graph.size g in
  if Array.length inputs <> n then
    invalid_arg "Algorithm1.run: inputs length mismatch";
  if f < 0 then invalid_arg "Algorithm1.run: negative f";
  let gamma = ref (Array.copy inputs) in
  let total_rounds = ref 0 in
  let transmissions = ref 0 in
  let deliveries = ref 0 in
  let phase_idx = ref 0 in
  let decisive = ref 0 in
  let candidate_sets =
    Lbc_graph.Combi.subsets_up_to (Lbc_graph.Graph.nodes g) f
  in
  (* One path intern table for the honest stores of every phase: each
     phase floods over the same graph, so each path is interned once. *)
  let paths = Lbc_flood.Path_intern.create g in
  List.iter
    (fun cap_f ->
      (* Stop between phases once the domain's round budget is spent,
         rather than launching another full flood phase. *)
      Engine.check_fuel ();
      let cap_f = Nodeset.of_list cap_f in
      let before = Array.copy !gamma in
      let gamma', stores, stats =
        Phase_driver.run_phase ~g ~f ~cap_f ~cap_t:Nodeset.empty
          ~model:Engine.Local_broadcast ~inputs ~faulty ~strategy ~seed ~paths
          ~phase_idx:!phase_idx !gamma
      in
      gamma := gamma';
      let changed = ref false in
      Array.iteri
        (fun v b ->
          if (not (Nodeset.mem v faulty)) && b <> gamma'.(v) then changed := true)
        before;
      if !changed then decisive := !phase_idx;
      observer
        { phase_idx = !phase_idx; cap_f; stores; before; after = Array.copy gamma' };
      total_rounds := !total_rounds + stats.Engine.rounds;
      transmissions := !transmissions + stats.Engine.transmissions;
      deliveries := !deliveries + stats.Engine.deliveries;
      incr phase_idx)
    candidate_sets;
  Lbc_obs.Obs.add "algo.phases" !phase_idx;
  Lbc_obs.Obs.observe "a1.decisive_phase" !decisive;
  {
    Spec.outputs =
      Array.mapi
        (fun v b -> if Nodeset.mem v faulty then None else Some b)
        !gamma;
    faulty;
    inputs;
    rounds = !total_rounds;
    phases = !phase_idx;
    transmissions = !transmissions;
    deliveries = !deliveries;
  }
