module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy
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

(* Reactive per-node form, mirroring Algorithm1.proc: phase p of the
   (T, F) schedule occupies global rounds p*n .. p*n + n - 1. *)
let proc ~g ~f ~t ~me ~input : (Bit.t Lbc_flood.Flood.wire, Bit.t) Engine.proc
    =
  let module Flood = Lbc_flood.Flood in
  let n = Lbc_graph.Graph.size g in
  let schedule =
    Array.of_list
      (List.map
         (fun (cap_t, cap_f) -> (Nodeset.of_list cap_t, Nodeset.of_list cap_f))
         (candidate_pairs ~nodes:(Lbc_graph.Graph.nodes g) ~f ~t))
  in
  let gamma = ref input in
  let fresh_store () =
    Flood.create g ~me ~vcompare:Bit.compare ~initiate:!gamma ~default:Bit.default ()
  in
  let store = ref (fresh_store ()) in
  let current = ref 0 in
  let finalize () =
    let cap_t, cap_f = schedule.(!current) in
    gamma := Phase.update g ~f ~cap_f ~cap_t ~store:!store ~gamma:!gamma
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

let run ~g ~f ~t ~inputs ~faulty ?(equivocators = Nodeset.empty)
    ?(strategy = fun _ -> Strategy.Flip_forwards) ?(seed = 0) () =
  let n = Lbc_graph.Graph.size g in
  if Array.length inputs <> n then
    invalid_arg "Algorithm3.run: inputs length mismatch";
  if f < 0 || t < 0 || t > f then
    invalid_arg "Algorithm3.run: need 0 <= t <= f";
  let model = Engine.Hybrid equivocators in
  let gamma = ref (Array.copy inputs) in
  let total_rounds = ref 0 in
  let transmissions = ref 0 in
  let deliveries = ref 0 in
  let phase_idx = ref 0 in
  let decisive = ref 0 in
  (* One path intern table for the honest stores of every phase, as in
     Algorithm1.run. *)
  let paths = Lbc_flood.Path_intern.create g in
  List.iter
    (fun (cap_t, cap_f) ->
      (* Stop between phases once the domain's round budget is spent,
         rather than launching another full flood phase. *)
      Engine.check_fuel ();
      let cap_t = Nodeset.of_list cap_t in
      let cap_f = Nodeset.of_list cap_f in
      let before = Array.copy !gamma in
      let gamma', _stores, stats =
        Phase_driver.run_phase ~g ~f ~cap_f ~cap_t ~model ~inputs ~faulty
          ~strategy ~seed ~paths ~phase_idx:!phase_idx !gamma
      in
      gamma := gamma';
      let changed = ref false in
      Array.iteri
        (fun v b ->
          if (not (Nodeset.mem v faulty)) && b <> gamma'.(v) then changed := true)
        before;
      if !changed then decisive := !phase_idx;
      total_rounds := !total_rounds + stats.Engine.rounds;
      transmissions := !transmissions + stats.Engine.transmissions;
      deliveries := !deliveries + stats.Engine.deliveries;
      incr phase_idx)
    (candidate_pairs ~nodes:(Lbc_graph.Graph.nodes g) ~f ~t);
  Lbc_obs.Obs.add "algo.phases" !phase_idx;
  Lbc_obs.Obs.observe "a3.decisive_phase" !decisive;
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
