module Nodeset = Lbc_graph.Nodeset
module Flood = Lbc_flood.Flood
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy

type schedule = (Nodeset.t * Nodeset.t) array

(* One phase: flood the states [gamma] (step (a)) under [model], then
   apply steps (b)-(c) at every honest node. Returns the new states
   (faulty nodes keep their entry), the honest nodes' flood stores and
   the engine statistics. [seed] and [phase_idx] derandomise the
   strategies per phase; every store of the phase, the faulty nodes'
   included, interns its paths in [paths], which changes no result. *)
let run_phase ~g ~f ~cap_f ~cap_t ~model ~inputs ~faulty ~strategy ~seed
    ~paths ~phase_idx gamma =
  let n = Lbc_graph.Graph.size g in
  let topo = Engine.topology_of_graph g in
  let roles =
    Array.init n (fun v ->
        if Nodeset.mem v faulty then
          Engine.Faulty
            (Strategy.fstep (strategy v) ~g ~paths ~me:v ~vcompare:Bit.compare
               ~input:inputs.(v) ~default:Bit.default ~flip:Bit.flip
               ~seed:(seed + (1000 * phase_idx)))
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:Bit.compare ~paths
                  ~initiate:gamma.(v) ~default:Bit.default ())))
  in
  let result = Engine.run topo ~model ~rounds:(Flood.rounds_needed g) ~roles in
  let gamma' =
    Array.mapi
      (fun v state ->
        match result.Engine.outputs.(v) with
        | Some store -> Phase.update g ~f ~cap_f ~cap_t ~store ~gamma:state
        | None -> state)
      gamma
  in
  (gamma', result.Engine.outputs, result.Engine.stats)

(* Reactive per-node form. Phase p occupies global rounds p*n .. p*n+n-1;
   its flood is initiated at local round 0 and the steps (b)-(c) update
   runs when the next phase starts (or at output time for the last
   phase). The inbox at local round 0 contains only leftovers of the
   previous phase's final round; every such message carries a maximal
   path and is discarded by the flooding rules, so dropping it is
   equivalent. *)
let proc ~g ~f ~schedule ~paths ~me ~input :
    (Bit.t Flood.wire, Bit.t) Engine.proc =
  let n = Lbc_graph.Graph.size g in
  let gamma = ref input in
  let fresh_store () =
    Flood.create g ~me ~vcompare:Bit.compare ~paths ~initiate:!gamma
      ~default:Bit.default ()
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

type phase_observation = {
  phase_idx : int;
  cap_t : Nodeset.t;
  cap_f : Nodeset.t;
  stores : Bit.t Flood.store option array;
  before : Bit.t array;
  after : Bit.t array;
}

let run ~g ~f ~schedule ~model ~decisive_counter ~inputs ~faulty
    ?(strategy = fun _ -> Strategy.Flip_forwards) ?(seed = 0)
    ?(observer = fun (_ : phase_observation) -> ()) () =
  let gamma = ref (Array.copy inputs) in
  let rounds = ref 0 and transmissions = ref 0 and deliveries = ref 0 in
  let decisive = ref 0 in
  (* One path intern table for the stores of every phase: each phase
     floods over the same graph, so each path is interned once. *)
  let paths = Lbc_flood.Path_intern.create g in
  Array.iteri
    (fun phase_idx (cap_t, cap_f) ->
      (* Stop between phases once the domain's round budget is spent,
         rather than launching another full flood phase. *)
      Engine.check_fuel ();
      let before = !gamma in
      let after, stores, stats =
        run_phase ~g ~f ~cap_f ~cap_t ~model ~inputs ~faulty ~strategy ~seed
          ~paths ~phase_idx before
      in
      gamma := after;
      Array.iteri
        (fun v b ->
          if not (Nodeset.mem v faulty || Bit.equal b after.(v)) then
            decisive := phase_idx)
        before;
      observer { phase_idx; cap_t; cap_f; stores; before; after };
      rounds := !rounds + stats.Engine.rounds;
      transmissions := !transmissions + stats.Engine.transmissions;
      deliveries := !deliveries + stats.Engine.deliveries)
    schedule;
  Lbc_obs.Obs.add "algo.phases" (Array.length schedule);
  Lbc_obs.Obs.observe decisive_counter !decisive;
  {
    Spec.outputs =
      Array.mapi
        (fun v b -> if Nodeset.mem v faulty then None else Some b)
        !gamma;
    faulty;
    inputs;
    rounds = !rounds;
    phases = Array.length schedule;
    transmissions = !transmissions;
    deliveries = !deliveries;
  }
