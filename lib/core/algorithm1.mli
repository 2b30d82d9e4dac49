(** Algorithm 1: exact Byzantine consensus under the local broadcast model
    (Theorem 5.1).

    The algorithm runs one {e phase} per candidate fault set [F ⊆ V],
    [|F| ≤ f], in a fixed deterministic order. Each phase floods every
    node's current binary state with path annotations (step (a)),
    re-estimates who flooded what along [F]-excluding paths (step (b)),
    and conditionally overwrites the state with a value received along
    [f + 1] node-disjoint [A_v v]-paths (step (c)). After all phases the
    state is the output.

    Correct (agreement + validity + termination) whenever the graph has
    minimum degree ≥ 2f and connectivity ≥ ⌊3f/2⌋ + 1
    ({!Lbc_graph.Conditions.lbc_feasible}), for any placement of at most
    [f] Byzantine nodes and any broadcast-bound strategy. Runs
    [Σ_{k≤f} C(n,k)] phases of [n] rounds each — exponential in [f]; see
    {!Algorithm2} for the O(n) algorithm on 2f-connected graphs.

    This is {!Algorithm3}'s schedule with [T = ∅] under local broadcast:
    the module supplies the schedule [(∅, F)] for every [F] in
    {!Lbc_graph.Combi.subsets_up_to} order and runs it through
    {!Phase_driver}, whose phase loop is {!run} and whose reactive
    per-node process is {!proc}. *)

val phases : g:Lbc_graph.Graph.t -> f:int -> int
(** Number of phases the algorithm executes on [g]. *)

val rounds : g:Lbc_graph.Graph.t -> f:int -> int
(** Total synchronous rounds: [phases × size g]. *)

val proc :
  g:Lbc_graph.Graph.t ->
  f:int ->
  paths:Lbc_flood.Path_intern.t ->
  me:int ->
  input:Bit.t ->
  (Bit.t Lbc_flood.Flood.wire, Bit.t) Lbc_sim.Engine.proc
(** The algorithm as a reactive per-node process for the engine
    ({!Phase_driver.proc}): node [me]'s complete state machine over
    [phases × size g] rounds. Running one such proc per node under
    {!Lbc_sim.Engine.run} is equivalent to {!run}; the reactive form
    also runs unmodified on the directed gadget networks of the
    necessity proofs ({!Lbc_lowerbound}). [paths] is the execution's
    path intern table over [g], the same for every node; every phase's
    flood store interns in it. [proc ~g ~f] computes the schedule once
    and shares it across the nodes it is applied to. The output is only
    meaningful after the full schedule of rounds. *)

type phase_observation = Phase_driver.phase_observation = {
  phase_idx : int;
  cap_t : Lbc_graph.Nodeset.t;  (** always empty here *)
  cap_f : Lbc_graph.Nodeset.t;  (** the phase's candidate fault set F *)
  stores : Bit.t Lbc_flood.Flood.store option array;
      (** honest nodes' flood stores after step (a); [None] for faulty *)
  before : Bit.t array;  (** states at the start of the phase *)
  after : Bit.t array;  (** states after step (c) *)
}
(** The driver's per-phase record, re-exported: everything a white-box
    observer can see about one phase — used by the lemma-level property
    tests and the ablation benchmarks. *)

val run :
  g:Lbc_graph.Graph.t ->
  f:int ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?strategy:(int -> Lbc_adversary.Strategy.kind) ->
  ?seed:int ->
  ?observer:(phase_observation -> unit) ->
  unit ->
  Spec.outcome
(** Execute the algorithm on [g] with fault budget [f]. [inputs] assigns
    a binary input to every node (length [size g]); nodes in [faulty] are
    adversary-controlled and follow [strategy] (default
    {!Lbc_adversary.Strategy.Flip_forwards}), re-instantiated each phase.
    [seed] (default 0) drives the randomised strategies.

    The caller may pass an infeasible graph or more than [f] faults — the
    run still terminates; the outcome then simply may violate agreement
    or validity (this is how the necessity experiments use it).
    @raise Invalid_argument if [inputs] has the wrong length or [f < 0]. *)
