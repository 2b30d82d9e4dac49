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

val max_disjoint_directed_uv :
  n:int ->
  adj:(int -> int list) ->
  src:int ->
  sink:int ->
  ?excluded:Nodeset.t ->
  ?limit:int ->
  unit ->
  int list list
(** Like {!max_disjoint_directed} but with a single origin [src] shared by
    all paths: the returned paths are internally disjoint [src]-[sink]
    paths (they share exactly their two endpoints). [src] cannot occur as
    an internal node of any path. *)

val disjoint_uv_paths :
  ?excluded:Nodeset.t ->
  ?limit:int ->
  Graph.t ->
  u:int ->
  v:int ->
  int list list
(** Maximum set of node-disjoint [uv]-paths in an undirected graph
    (internally disjoint; all start at [u] and end at [v]). [excluded]
    nodes cannot be internal. @raise Invalid_argument if [u = v]. *)

val count_uv : ?excluded:Nodeset.t -> ?limit:int -> Graph.t -> u:int -> v:int -> int
(** [count_uv g ~u ~v] is [List.length (disjoint_uv_paths g ~u ~v)], without
    materialising the paths differently. *)

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
    implementation). *)

val connectivity_at_least : Graph.t -> int -> bool
(** [connectivity_at_least g k] decides κ(G) ≥ k, with early termination
    (cheaper than computing κ exactly). [true] for [k <= 0]. Only the
    pairs [(u, v)], [u < v < n], with [u < k] are tried. *)

val min_vertex_cut : Graph.t -> Nodeset.t
(** A minimum vertex cut: a set of κ(G) nodes whose removal disconnects
    the graph.
    @raise Invalid_argument on complete or disconnected graphs (no vertex
    cut exists / the empty set already "disconnects"). *)
