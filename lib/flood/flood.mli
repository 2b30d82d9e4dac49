(** Path-annotated flooding under the local broadcast model — the
    communication primitive of Algorithms 1, 2 and 3 (step (a) of
    Algorithm 1 and phases 1–3 of Algorithm 2).

    A flood message is a pair [(value, path)] where [path] records the
    route from the originator up to {e and including} the transmitter's
    predecessor (the paper's [(b, Π)]; the originator transmits
    [(b, ⊥)] = an empty path). On receiving [(b, Π)] from neighbour [u], a
    node [v] applies the paper's four rules:

    {ol
    {- discard if [Π·u] is not a (simple) path of the known graph [G];}
    {- discard if a message with key [(u, Π)] was already received — under
       local broadcast this is what makes equivocation detectable/useless;}
    {- discard if [v] itself appears in [Π];}
    {- otherwise {e accept}: record that the value [b] was received along
       the path [Π·u·v], and forward [(b, Π·u)].}}

    A silent initiator is replaced at round 1 by a configurable default
    message (the paper's [(1, ⊥)] rule), so every node — even a crashed
    one — effectively floods exactly one value.

    The store is generic in the value type so the same primitive floods
    binary states (Algorithm 1 step (a)), neighbour reports (Algorithm 2
    phase 2) and decision values (Algorithm 2 phase 3). Values must be
    comparable with structural equality.

    Acceptance queries implement the paper's path-counting conditions:
    {!disjoint_count} / {!disjoint_count_from_set} compute the maximum
    number of node-disjoint delivery paths {e among the actually received
    records} — a set-packing computation. Packing over whole records is
    essential for soundness: only an entirely non-faulty record path
    certifies its annotation, so the pigeonhole argument (f+1 disjoint
    records, at most f faults) requires genuine, indivisible paths;
    recombining edges of different records would let a Byzantine
    forwarder fabricate path prefixes through honest nodes (see
    DESIGN.md). {!reliable_values} implements Definition C.1 on top.
    The packing masks are multi-word bitsets ({!Packing.mask}), so graph
    size is not capped by the machine word.

    Internally every path annotation is interned ({!Path_intern}, one
    table per store unless the caller shares one), and a wire carries
    its path as an id of its sender's table, not as a list. A receiver
    that shares the sender's table — the stores of an Algorithm 1, 2 or
    3 [run] all share one — reads the id as it is: receiving a message
    walks no list. A wire from any other table is re-interned from its
    list. The rule-(ii) key [(u, Π)] is the trie id of [Π·u], so the
    dedup table is a bitset over trie ids; the record store keys on the
    full path's id ({!Itbl}); rule (i)'s timing/validity checks read
    intern-time facts, record node-sets are bitsets built once at accept
    time, and disjoint-path certificates are memoised per store
    ({!Packing.Cache}, counters [packing.cache_hit]/[packing.cache_miss]).
    An intern table grows by a few words per distinct path prefix (it
    keeps parent links, not lists), and a path's node list is built only
    when something reads it — {!wire_path}, or a record's path in
    {!records}/{!iter_records}/{!value_along} — once per path, then
    shared. A forward is an id, so relaying builds no list at all.
    None of this is observable: records, forwards (as value and path)
    and query results are byte-identical to the direct list-keyed
    implementation (a retained reference copy is QCheck-tested against
    this module). *)

type 'v wire = private {
  value : 'v;
  pid : Path_intern.id;
  home : Path_intern.t;
}
(** On-the-wire message: the flooded value and the route up to the
    transmitter's predecessor, as the id [pid] of that route in the
    table [home] (its sender's). [pid] is {!Path_intern.root} exactly
    when the route is empty (an initiation), and negative exactly when
    the route names a node outside [home]'s graph (an exotic id of
    {!Path_intern.intern_total}). Wires hold a mutable table: compare
    them by {!wire_path} and [value], never with polymorphic
    [=]/[compare]/[Hashtbl.hash]. *)

val wire : Path_intern.t -> 'v -> int list -> 'v wire
(** [wire home v path] is the message [(v, path)] over the table
    [home]; [path] may be any list, nodes out of range included
    ({!Path_intern.intern_total}). *)

val with_value : 'v wire -> 'v -> 'v wire
(** The same route carrying another value. *)

val wire_path : 'v wire -> int list
(** The route, origin first (built once per route and memoised in
    [home]). *)

val wire_length : 'v wire -> int
(** [List.length (wire_path m)], read from the table for any route
    inside the graph. *)

type 'v store
(** Per-node flooding state and received-record store. *)

val create :
  Lbc_graph.Graph.t ->
  me:int ->
  vcompare:('v -> 'v -> int) ->
  ?paths:Path_intern.t ->
  ?initiate:'v ->
  ?default:'v ->
  unit ->
  'v store
(** [create g ~me ~vcompare ~initiate ~default ()] prepares a flooding
    instance at node [me] of graph [g]. [vcompare] is a total order on
    the flooded values whose equality must coincide with structural
    equality (e.g. [Bit.compare], [Int.compare]); it replaces the
    polymorphic comparisons the query layer used to make (lint rule D4)
    and orders {!origin_values}. When [initiate] is given, [me] floods
    that value (and records it for itself along the trivial path [[me]]).
    When [default] is given, neighbours that stay silent in round 0 are
    deemed to have flooded [default] (the paper's missing-message rule).
    Omit [default] for floods in which only some nodes initiate
    (Algorithm 2 phase 3). [paths] is the path intern table the store
    uses and the [home] of its transmissions; the stores of one
    execution may share one, which changes no result and makes
    receiving a message O(1) (default: a private table).
    @raise Invalid_argument if [paths] was created for another graph. *)

val proc : 'v store -> ('v wire, 'v store) Lbc_sim.Engine.proc
(** The honest flooding process for the engine; its output is the store,
    ready for querying. *)

val rounds_needed : Lbc_graph.Graph.t -> int
(** Number of engine rounds for a flood to complete: [size g] (a message
    along a simple path of [k] edges is processed [k] rounds after
    initiation, and [k <= n - 1]). *)

val predicted_transmissions : Lbc_graph.Graph.t -> int
(** Exact transmission count of one all-honest, all-initiating flood:
    every node broadcasts its initiation and forwards each accepted
    message exactly once, and the accepted messages at [v] are in
    bijection with the simple paths ending at [v] — so the total is
    [n + Σ_{u ≠ v} #simple-paths(u, v)]. Exponential to evaluate on dense
    graphs (it {e is} the message complexity being predicted). The
    benchmark harness checks measured floods against this number. *)

val handle : 'v store -> round:int -> from:int -> 'v wire -> 'v wire option
(** Apply rules (i)–(iv) to one message received in engine round [round];
    [Some fwd] means the message was accepted and [fwd] should be
    broadcast. Exposed for unit tests and adversarial wrappers; {!proc}
    uses it internally.

    A message whose [home] is this store's table is checked on its id
    alone: no list is walked and nothing is interned but the relayed
    route [Π·u] and the record [Π·u·me]. A message from another table
    is re-interned from {!wire_path} first. Either way the forward is a
    wire of this store's table.

    Rule (i) includes the {e synchronous timing check}: a message
    [(b, Π)] is acceptable only in round [|Π| + 1], because honest
    flooding initiates in round 0 and relays immediately, so a message
    annotated with a k-hop route physically arrives exactly k+1 rounds
    in. A Byzantine node transmitting a short-path message late (or a
    long-path message early) is fabricating, and accepting it would let
    relay chains overrun the phase — the late-injection attack our fuzz
    campaigns found against Algorithm 2's omission evidence (see
    DESIGN.md). *)

val synthesize_defaults : 'v store -> 'v wire list
(** Apply the missing-message rule: for every neighbour whose round-0
    initiation has not been received, record the default value and return
    the forwards to broadcast. Called by {!proc} at round 1; exposed for
    adversarial wrappers. No-op when the store has no default.

    Synthesized defaults are {e not} entered in the rule-(ii) dedup
    table, and probing it for a neighbour's initiation interns nothing
    ({!Path_intern.find}): a genuine round-1 initiation handled after the
    defaults were synthesized is still accepted (and supersedes the
    synthesized record) rather than being masked by a burnt key. Under
    {!proc} the round-1 inbox is always processed first, so this only
    matters to adversarial wrappers that reorder the two. *)

(** {1 Queries} *)

val me : 'v store -> int

val paths : 'v store -> Path_intern.t
(** The path intern table the store keys on: the [paths] it was created
    with, or its private one. *)

val own_value : 'v store -> 'v option
(** The value this node initiated, if any. *)

val records : 'v store -> (int * int list * 'v) list
(** All accepted records as [(origin, path, value)] with [path] running
    from [origin] to [me] inclusive. Includes the node's own initiation as
    [(me, [me], v)] and synthesized defaults. Order unspecified. *)

val iter_records :
  'v store ->
  (origin:int ->
  path:int list ->
  sans_me:Packing.mask ->
  value:'v ->
  unit) ->
  unit
(** Iterate the records in acceptance order (deterministic), handing out
    the precomputed packing mask of the path's nodes minus [me] alongside
    each record — for query layers (e.g. Algorithm 2's attribution index)
    that would otherwise rebuild per-record node sets. *)

val value_along : 'v store -> path:int list -> 'v option
(** The value received along exactly [path] (origin to [me] inclusive),
    if any. *)

val origin_values : 'v store -> origin:int -> 'v list
(** Distinct values received from [origin] over any path, sorted by the
    store's [vcompare]. *)

val disjoint_count :
  'v store ->
  origin:int ->
  value:'v ->
  ?excluded:Lbc_graph.Nodeset.t ->
  ?limit:int ->
  unit ->
  int
(** Maximum number of internally node-disjoint [origin]→[me] paths among
    the recorded paths that carry [value] from [origin] and exclude
    [excluded] (no internal node in the set). [limit] caps the search
    (default: graph size). *)

val disjoint_count_from_set :
  'v store ->
  sources:Lbc_graph.Nodeset.t ->
  value:'v ->
  ?excluded:Lbc_graph.Nodeset.t ->
  ?limit:int ->
  unit ->
  int
(** Maximum number of node-disjoint [A]→[me] paths (sharing only [me],
    with pairwise-distinct endpoints in [sources]) among the recorded
    paths carrying [value] from origins in [sources], each excluding
    [excluded] — the acceptance test of Algorithm 1 step (c). *)

val reliable_values : f:int -> 'v store -> origin:int -> 'v list
(** Definition C.1: the values [me] {e reliably} received from [origin] —
    its own value when [origin = me]; the directly-heard value when
    [origin] is a neighbour; otherwise every value delivered along at
    least [f + 1] internally disjoint paths. Under at most [f] faults the
    result has at most one element for a broadcast-bound origin; the
    (adversarially unreachable) multi-value case is returned as-is so
    callers can assert on it. *)
