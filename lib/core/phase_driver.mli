(** Shared per-phase execution for Algorithms 1 and 3: run one flood of
    the current states (step (a)) under the given communication model,
    then apply steps (b)–(c) at every honest node. *)

val run_phase :
  g:Lbc_graph.Graph.t ->
  f:int ->
  cap_f:Lbc_graph.Nodeset.t ->
  cap_t:Lbc_graph.Nodeset.t ->
  model:Lbc_sim.Engine.model ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  strategy:(int -> Lbc_adversary.Strategy.kind) ->
  seed:int ->
  paths:Lbc_flood.Path_intern.t ->
  phase_idx:int ->
  Bit.t array ->
  Bit.t array * Bit.t Lbc_flood.Flood.store option array * Lbc_sim.Engine.stats
(** [run_phase ... gamma] returns the states at the end of the phase, the
    honest nodes' flood stores ([None] for faulty nodes — for observers
    and white-box tests), and the phase's engine statistics. Faulty nodes
    keep their [gamma] entry unchanged (it is not meaningful). [seed] and
    [phase_idx] derandomise the adversarial strategies per phase. Every
    flood store of the phase, the faulty nodes' included, interns its
    paths in [paths]; an execution passes the same table to all its
    phases, which changes no result (see {!Lbc_flood.Flood.create}). *)
