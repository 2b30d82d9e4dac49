module Nodeset = Lbc_graph.Nodeset
module Flood = Lbc_flood.Flood
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy

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
