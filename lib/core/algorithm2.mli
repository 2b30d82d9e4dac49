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

type claims = int array
(** A phase-2 report list as it is flooded: the sorted, duplicate-free
    array of its entries' claim keys [((pid·n + z)·2 + value)], where
    [pid] numbers the entry's path in the execution's intern table
    ({!Lbc_flood.Path_intern.intern_total}) and [n] is the graph size.
    Two report lists are equal as sets iff their claims are equal, and a
    claim is in a list iff its key is in the array. Keys mean something
    only in the table that made them; see {!encode} and {!decode}. *)

type traced = {
  outcome : Spec.outcome;
  node_reports : node_report option array;
  store1 : Bit.t Lbc_flood.Flood.store option array;
      (** phase-1 flood stores of honest nodes *)
  heard : report list array;
      (** everything each honest node heard in phase 1 (empty for
          faulty) *)
  store2 : claims Lbc_flood.Flood.store option array;
      (** phase-2 report stores of honest nodes. They share the
          execution's path intern table ({!Lbc_flood.Flood.paths}), in
          which the claims were made; {!decode} reads them back. *)
}
(** Full white-box view of a run — used by the Appendix C lemma tests. *)

val rounds : g:Lbc_graph.Graph.t -> int
(** Total synchronous rounds: [3 × size g + 1] (phase 1 takes one extra
    delivery round so that relays transmitted in its final flooding round
    are overheard by the reporters — required for sound omission
    evidence). *)

(** {1 Phase-2 claims} *)

val encode : Lbc_flood.Path_intern.t -> report list -> claims
(** The claims of a report list. An entry whose wire has the table as
    its home is keyed on the wire's id as it is; any other has its path
    interned in the table. Entries may repeat and may carry any path,
    nodes out of range included.
    @raise Invalid_argument if a sender is outside the table's graph. *)

val decode : Lbc_flood.Path_intern.t -> claims -> report list
(** The inverse of {!encode} over the same table: the distinct entries,
    in key order. *)

val compare_claims : claims -> claims -> int
(** A total order on claims; [0] iff the arrays are equal. *)

val flip_claims : claims -> claims
(** The claims of the report list with every value flipped:
    [flip_claims (encode t l) = encode t (flipped l)]. A fresh array. *)

val mem_claim :
  Lbc_flood.Path_intern.t -> claims -> z:int -> m:Bit.t Lbc_flood.Flood.wire -> bool
(** Is [(z, m)] an entry of the list? A binary search on [m]'s id when
    the table is [m]'s home; a wire of another table has its path
    interned first. *)

val mem_key : Lbc_flood.Path_intern.t -> claims -> z:int -> path:int list -> bool
(** Is some [(z, m)] with [m]'s path [path] an entry of the list? *)

(** {1 Forensics internals}

    Exposed for diagnostics, the fault-forensics example and white-box
    tests; {!run} composes them. *)

type scope
(** What the attribution and discovery steps of one execution share
    across its honest nodes. A scope is built over the execution's path
    intern table and holds only things that depend on the graph and on
    phase-2 report lists, plus each node's own claims:

    - the table, in which the report claims, queried paths and scan
      prefixes are numbered;
    - the canonical copy of each distinct report list (claims equal as
      arrays share one copy), and, per reporter, the list objects already
      met from it with their canonical copies. A record's copy is found
      there by physical identity; only a list object met for the first
      time pays the structural lookup;
    - per node, the claims of its own phase-1 observations, by the
      physical [heard] list they were encoded from: {!run_traced} encodes
      them once, for the phase-2 flood, and {!attribution_index} reads
      them back when handed the same list;
    - the [2f] disjoint [w]→[u] path families of {!discover} and their
      interned scan steps (each step's node, the prefix before it and
      the prefix through it);
    - the graph's {!Lbc_graph.Disjoint.network}, built with the scope,
      on which every family is computed;
    - the scratch of {!discover}'s prefix memo: for each flipped value,
      an int array indexed by prefix id recording the evidence found on
      the node that ends the prefix. Each {!discover} call stamps its
      entries with a fresh epoch and reads back only its own, so nothing
      carries over from one node to the next.

    Results never depend on the scope: a call with a shared scope returns
    exactly what the same call with a fresh one over the same table
    returns, and records the same observability counters (the per-node
    memo tables and packing certificate caches are not shared). A scope
    is mutable, bound to one table, and must stay on one domain.
    {!run_traced} creates one per execution. *)

val create_scope : Lbc_flood.Path_intern.t -> scope
(** An empty scope over this intern table and its graph. *)

type attribution
(** A node's phase-2 attribution queries (see {!sent} and {!silent_on}),
    memoised per node for the last [f] asked. *)

val attribution_index :
  ?scope:scope ->
  Lbc_graph.Graph.t ->
  me:int ->
  heard:report list ->
  store2:claims Lbc_flood.Flood.store ->
  attribution
(** Build the phase-2 attribution queries from a node's own phase-1
    observations and its phase-2 report store. The store's claims are
    keys of its intern table ({!Lbc_flood.Flood.paths}); without [scope]
    the index gets a private scope over that table.
    @raise Invalid_argument if [scope] was created for a different graph
    or over another intern table than the store's. *)

val sent : attribution -> f:int -> z:int -> m:Bit.t Lbc_flood.Flood.wire -> bool
(** Reliable positive evidence that [z] transmitted [m] in phase 1. [m]
    is read by its id when it is a wire of the scope's table, and by its
    path otherwise. *)

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
    kind). It uses the scope [learns] was built in. The evidence on a
    scan prefix is evaluated once per call and memoised in the scope;
    detections, their order and the counters are those of a scan that
    asks {!sent} and {!silent_on} at every step. *)

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
(** Like {!run_detailed} with the full white-box view. Every flood store
    of all three phases, the faulty nodes' included, shares one path
    intern table, and fault discovery shares one {!scope} over it across
    the honest nodes; neither changes any result. *)
