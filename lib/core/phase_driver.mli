(** The one executor of a phase schedule, shared by Algorithms 1 and 3.

    Algorithm 3 (hybrid model) runs one phase per candidate pair
    [(T, F)], with [φ = f − |T|] and paths excluding [F ∪ T]; Algorithm
    1 is the same loop over the pairs [(∅, F)]. Each phase floods the
    current states (step (a)) and then applies steps (b)–(c) at every
    honest node ({!Phase.update}). Both forms of the algorithm live
    here: {!run}, the phase loop over whole-network floods, and {!proc},
    the reactive per-node process that runs the same schedule round by
    round — the form the necessity gadgets drive. The two algorithms
    supply only the schedule, the communication model and the name of
    their decisive-phase counter. *)

type schedule = (Lbc_graph.Nodeset.t * Lbc_graph.Nodeset.t) array
(** Phase [p]'s candidate pair [(T, F)]: the guessed equivocators and
    the guessed broadcast-bound faults, in execution order. *)

val proc :
  g:Lbc_graph.Graph.t ->
  f:int ->
  schedule:schedule ->
  paths:Lbc_flood.Path_intern.t ->
  me:int ->
  input:Bit.t ->
  (Bit.t Lbc_flood.Flood.wire, Bit.t) Lbc_sim.Engine.proc
(** Node [me]'s complete state machine over
    [Array.length schedule × size g] rounds: phase [p] occupies rounds
    [p·n .. p·n + n − 1] (phase boundaries are derived from the round
    number), and the output is only meaningful after the full schedule.
    Running one such proc per node under {!Lbc_sim.Engine.run} is
    equivalent to {!run}. Every phase's flood store interns its paths in
    [paths], which must be a table over [g]: the caller creates one per
    execution and hands it to every node, so a received wire is read as
    an id (see {!Lbc_flood.Flood.handle}). *)

type phase_observation = {
  phase_idx : int;
  cap_t : Lbc_graph.Nodeset.t;  (** the phase's guessed equivocators T *)
  cap_f : Lbc_graph.Nodeset.t;  (** the phase's candidate fault set F *)
  stores : Bit.t Lbc_flood.Flood.store option array;
      (** honest nodes' flood stores after step (a); [None] for faulty *)
  before : Bit.t array;  (** states at the start of the phase *)
  after : Bit.t array;  (** states after step (c) *)
}
(** Everything a white-box observer can see about one phase — used by the
    lemma-level property tests and the ablation benchmarks. *)

val run :
  g:Lbc_graph.Graph.t ->
  f:int ->
  schedule:schedule ->
  model:Lbc_sim.Engine.model ->
  decisive_counter:string ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?strategy:(int -> Lbc_adversary.Strategy.kind) ->
  ?seed:int ->
  ?observer:(phase_observation -> unit) ->
  unit ->
  Spec.outcome
(** Run every phase of [schedule] in order under [model], checking the
    domain's round budget ({!Lbc_sim.Engine.check_fuel}) before each.
    Every flood store of the execution, the faulty nodes' included,
    interns its paths in one table, which changes no result (see
    {!Lbc_flood.Flood.create}). Faulty nodes
    follow [strategy] (default {!Lbc_adversary.Strategy.Flip_forwards}),
    re-instantiated each phase from [seed] (default 0); [observer] sees
    each phase as it completes. Counts the phases under [algo.phases] and
    observes the last phase that changed an honest state under
    [decisive_counter]. The caller validates [inputs] and [f]. *)
