(** Node-disjoint paths and vertex connectivity (Menger's theorem, computed
    by max-flow with unit vertex capacities).

    Path conventions match the paper (§3):
    - two [uv]-paths are node-disjoint when they share no {e internal} node
      (they necessarily share the endpoints [u] and [v]);
    - two [Uv]-paths (one endpoint in the set [U], the other [v]) are
      node-disjoint when they share {e no} node other than [v] — in
      particular their [U]-endpoints are distinct;
    - a path {e excludes} a set [x] when no internal node lies in [x];
      endpoints may lie in [x]. *)

val max_disjoint_directed :
  n:int ->
  adj:(int -> int list) ->
  sources:int list ->
  sink:int ->
  ?excluded:Nodeset.t ->
  ?limit:int ->
  unit ->
  int list list
(** [max_disjoint_directed ~n ~adj ~sources ~sink ()] is a maximum
    collection of node-disjoint paths, each from a distinct source to
    [sink], in the directed graph on [0 .. n-1] whose successor relation is
    [adj]. Paths share no node except [sink]; each source is used at most
    once (even as an endpoint). Nodes in [excluded] may appear only as a
    source endpoint, never as internal nodes. [limit] caps the number of
    paths searched for. Each returned path lists its nodes from source to
    [sink] inclusive. *)

val disjoint_uv_paths :
  ?excluded:Nodeset.t ->
  ?limit:int ->
  Graph.t ->
  u:int ->
  v:int ->
  int list list
(** Maximum set of node-disjoint [uv]-paths in an undirected graph
    (internally disjoint; all start at [u] and end at [v]). [excluded]
    nodes cannot be internal; ids in [excluded] that are not nodes of the
    graph are ignored. [limit] caps the number of paths searched for.
    Each call builds one {!network}; [uv_paths (network g)] answers the
    same queries without rebuilding it.
    @raise Invalid_argument if [u = v] or either is not a node. *)

val count_uv : ?excluded:Nodeset.t -> ?limit:int -> Graph.t -> u:int -> v:int -> int
(** [count_uv g ~u ~v] is [List.length (disjoint_uv_paths g ~u ~v)], read
    off the flow value without decomposing it into paths. *)

type network
(** The flow network of one graph, reusable for every [uv] query on it.
    It holds each node's split arc, an arc per direction of every edge,
    and a super-source arc to every node; a query resets the capacities
    and switches off the arcs it must not use (the splits of [u], [v]
    and the excluded nodes, every super-source arc but [u]'s), and caps
    [u]'s direct edge to [v] at one path.

    {b Reuse contract.} {!uv_paths} on one network returns, for every
    query and in any sequence of queries, exactly the list that
    {!disjoint_uv_paths} on the graph returns: the same paths, in the
    same order. Every arc usable in a query sits in the same relative
    order as in a network built for that query alone, and the arcs
    switched off never carry flow, so the searches take the same
    augmenting paths (the argument is spelt out in the implementation).

    A network is mutable scratch: it must stay on one domain, and its
    queries must not interleave. *)

val network : Graph.t -> network
(** [network g] builds the reusable [uv] network of [g]: [2 n + 1]
    vertices and [2 n + 2 |E|] arcs, each with its residual twin. *)

val uv_paths :
  ?excluded:Nodeset.t -> ?limit:int -> network -> u:int -> v:int -> int list list
(** [uv_paths t ~u ~v] is [disjoint_uv_paths g ~u ~v] for the graph [t]
    was built on, computed on [t].
    @raise Invalid_argument if [u = v] or either is not a node. *)

val disjoint_set_paths :
  ?excluded:Nodeset.t ->
  ?limit:int ->
  Graph.t ->
  sources:Nodeset.t ->
  sink:int ->
  int list list
(** Maximum set of node-disjoint [Uv]-paths from the set [sources] to
    [sink]: paths share only [sink], and have pairwise-distinct source
    endpoints. [sink] must not belong to [sources]. *)

val connectivity : Graph.t -> int
(** Vertex connectivity κ(G): [0] for disconnected (or ≤ 1-node) graphs,
    [n - 1] for the complete graph, otherwise the minimum over non-adjacent
    pairs of the maximum number of internally disjoint paths. Only the
    pairs [(u, v)], [u < v], with [u] below the running minimum are
    tried (the pruning of Even's algorithm; the proof is in the
    implementation). All counts run on one {!network}. *)

val connectivity_at_least : Graph.t -> int -> bool
(** [connectivity_at_least g k] decides κ(G) ≥ k, with early termination
    (cheaper than computing κ exactly). [true] for [k <= 0]. Only the
    pairs [(u, v)], [u < v < n], with [u < k] are tried, on one
    {!network}. *)

val min_vertex_cut : Graph.t -> Nodeset.t
(** A minimum vertex cut: a set of κ(G) nodes whose removal disconnects
    the graph.
    @raise Invalid_argument on complete or disconnected graphs (no vertex
    cut exists / the empty set already "disconnects"). *)
