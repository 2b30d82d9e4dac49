(** Algorithm 3: Byzantine consensus under the hybrid model (Theorem 6.1,
    Appendix D.2).

    At most [f] nodes are faulty, of which at most [t] may {e equivocate}
    (send per-neighbour inconsistent messages, as under point-to-point);
    the remaining faults are broadcast-bound. The algorithm runs one phase
    per pair of candidate sets [(F, T)] with [|T| ≤ t], [F ⊆ V − T] and
    [|F| ≤ f − |T|]; each phase floods the current states and applies the
    generalised steps (b)–(c) with [φ = f − |T|] and paths excluding
    [F ∪ T].

    Correct whenever the graph satisfies the hybrid condition
    ({!Lbc_graph.Conditions.hybrid_feasible}): connectivity ≥
    ⌊3(f−t)/2⌋ + 2t + 1, plus the degree (t = 0) or small-set
    neighbourhood (t > 0) bound. With [t = 0] it coincides with
    {!Algorithm1}; with [t = f] it handles the classical point-to-point
    adversary.

    The module supplies the [(T, F)] schedule and the hybrid model; the
    phase loop ({!run}) and the reactive per-node process ({!proc}) are
    {!Phase_driver}'s, shared with {!Algorithm1}. *)

val phases : g:Lbc_graph.Graph.t -> f:int -> t:int -> int
(** Number of [(F, T)] phases: [Σ_{j≤t} C(n,j) · Σ_{k≤f−j} C(n−j,k)]. *)

val proc :
  g:Lbc_graph.Graph.t ->
  f:int ->
  t:int ->
  paths:Lbc_flood.Path_intern.t ->
  me:int ->
  input:Bit.t ->
  (Bit.t Lbc_flood.Flood.wire, Bit.t) Lbc_sim.Engine.proc
(** The hybrid algorithm as a reactive per-node process over
    [phases × size g] rounds ({!Phase_driver.proc}), used to run it
    unmodified on the directed gadget networks of the Lemma A.1/A.2
    ([t = 0]) and D.1/D.2 necessity proofs. [paths] is the execution's
    path intern table over [g], the same for every node. *)

val run :
  g:Lbc_graph.Graph.t ->
  f:int ->
  t:int ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?equivocators:Lbc_graph.Nodeset.t ->
  ?strategy:(int -> Lbc_adversary.Strategy.kind) ->
  ?seed:int ->
  unit ->
  Spec.outcome
(** Execute the algorithm. [equivocators] (default: empty) is the subset
    of [faulty] actually granted unicast capability by the engine; it must
    have size ≤ [t] for the guarantee to apply (not enforced — necessity
    experiments deliberately exceed it). Equivocating strategies
    ({!Lbc_adversary.Strategy.Equivocate}) are legal only on those
    nodes. *)
