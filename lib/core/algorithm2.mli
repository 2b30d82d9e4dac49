(** Algorithm 2: efficient Byzantine consensus in O(n) rounds when the
    graph is 2f-connected (Theorem 5.6, Appendix C).

    Three flooding phases of [n] rounds each:

    + {e Phase 1} — every node floods its input with path annotations.
    + {e Phase 2} — every node floods {e reports}: for each neighbour [z],
      the list of messages it heard [z] transmit in phase 1 (a silent
      neighbour is reported as having sent the default). After the
      reports settle, each node runs {e fault discovery}: for every value
      [b] it reliably received (Definition C.1) from some [w], it walks
      [2f] node-disjoint paths from [w] to every other node and marks the
      first node on each path reliably reported to have forwarded [1−b]
      as [w]'s value {e or to have omitted the expected forward} — that
      node is provably faulty (first-tamperer argument, Lemma C.3,
      extended to omission evidence; see DESIGN.md for why the paper's
      tamper-only reading is insufficient against silent faults and why
      the extension is sound).
    + {e Phase 3} — a node that identified exactly [f] faulty nodes is
      {e type A} (it now knows every fault); everyone else is {e type B}.
      Type B nodes decide by majority over the reliably received inputs
      (ties to [Zero]) and flood the decision; type A nodes adopt any
      decision received from a non-faulty node over a fault-free path, or
      fall back to the majority of the true inputs of the non-faulty
      nodes (readable along fault-free paths, since they know the fault
      set).

    Correct whenever the graph is 2f-connected and at most [f] nodes are
    faulty, for any broadcast-bound strategy. *)

type node_report = {
  type_a : bool;  (** did the node identify all [f] faults? *)
  detected : Lbc_graph.Nodeset.t;  (** the faulty nodes it identified *)
  decision : Bit.t;
}
(** Per-node diagnostic information (the fault-forensics view). *)

type report = int * Bit.t Lbc_flood.Flood.wire
(** A phase-2 report entry: "node [z] transmitted message [m] in
    phase 1". *)

type traced = {
  outcome : Spec.outcome;
  node_reports : node_report option array;
  store1 : Bit.t Lbc_flood.Flood.store option array;
      (** phase-1 flood stores of honest nodes *)
  heard : (int * Bit.t Lbc_flood.Flood.wire) list array;
      (** everything each honest node heard in phase 1 (empty for
          faulty) *)
  store2 : report list Lbc_flood.Flood.store option array;
      (** phase-2 report stores of honest nodes *)
}
(** Full white-box view of a run — used by the Appendix C lemma tests. *)

val rounds : g:Lbc_graph.Graph.t -> int
(** Total synchronous rounds: [3 × size g + 1] (phase 1 takes one extra
    delivery round so that relays transmitted in its final flooding round
    are overheard by the reporters — required for sound omission
    evidence). *)

(** {1 Forensics internals}

    Exposed for diagnostics, the fault-forensics example and white-box
    tests; {!run} composes them. *)

type scope
(** What the attribution and discovery steps of one execution share
    across its honest nodes. A scope holds only things that depend on the
    graph and on phase-2 report lists, never on a node's own
    observations:

    - one path intern table, so report claims and scan prefixes key on
      ints;
    - the claim/key index of each distinct report list, canonicalised by
      structural equality, and the answers it has given;
    - the [2f] disjoint [w]→[u] path families of {!discover} and their
      interned scan steps.

    Results never depend on the scope: a call with a shared scope returns
    exactly what the same call with a fresh one returns, and records the
    same observability counters (the per-node memo tables and packing
    certificate caches are not shared). A scope is mutable, bound to one
    graph, and must stay on one domain. {!run_traced} creates one per
    execution. *)

val create_scope : Lbc_graph.Graph.t -> scope
(** An empty scope for executions on this graph. *)

type attribution
(** A node's phase-2 attribution queries (see {!sent} and {!silent_on}),
    memoised per node for the last [f] asked. *)

val attribution_index :
  ?scope:scope ->
  Lbc_graph.Graph.t ->
  me:int ->
  heard:(int * Bit.t Lbc_flood.Flood.wire) list ->
  store2:(int * Bit.t Lbc_flood.Flood.wire) list Lbc_flood.Flood.store ->
  attribution
(** Build the phase-2 attribution queries from a node's own phase-1
    observations and its phase-2 report store. Without [scope] the index
    gets a private one.
    @raise Invalid_argument if [scope] was created for a different
    graph. *)

val sent : attribution -> f:int -> z:int -> m:Bit.t Lbc_flood.Flood.wire -> bool
(** Reliable positive evidence that [z] transmitted [m] in phase 1. *)

val silent_on : attribution -> f:int -> z:int -> path:int list -> bool
(** Reliable evidence that [z] transmitted {e nothing} whose path
    annotation is [path]. *)

val discover :
  Lbc_graph.Graph.t ->
  f:int ->
  me:int ->
  store1:Bit.t Lbc_flood.Flood.store ->
  learns:attribution ->
  ?trace:(w:int -> u:int -> path:int list -> z:int -> kind:string -> unit) ->
  unit ->
  Lbc_graph.Nodeset.t
(** The fault-discovery procedure; [trace] observes each detection (the
    origin [w], the far end [u], the scanned path and the evidence
    kind). It uses the scope [learns] was built in. *)

val run :
  g:Lbc_graph.Graph.t ->
  f:int ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?strategy:(int -> Lbc_adversary.Strategy.kind) ->
  ?seed:int ->
  unit ->
  Spec.outcome
(** Execute the algorithm; parameters as in {!Algorithm1.run}. The same
    strategy kind is applied to each faulty node in all three phases
    (suitably lifted to the phase's message type). *)

val run_detailed :
  g:Lbc_graph.Graph.t ->
  f:int ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?strategy:(int -> Lbc_adversary.Strategy.kind) ->
  ?seed:int ->
  unit ->
  Spec.outcome * node_report option array
(** Like {!run}, additionally returning each honest node's type and the
    fault set it identified ([None] for faulty nodes). *)

val run_traced :
  g:Lbc_graph.Graph.t ->
  f:int ->
  inputs:Bit.t array ->
  faulty:Lbc_graph.Nodeset.t ->
  ?strategy:(int -> Lbc_adversary.Strategy.kind) ->
  ?seed:int ->
  unit ->
  traced
(** Like {!run_detailed} with the full white-box view. The honest flood
    stores of all three phases share one path intern table, and fault
    discovery shares one {!scope} across the honest nodes; neither
    changes any result. *)
