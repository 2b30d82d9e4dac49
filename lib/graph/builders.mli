(** Graph constructors: classical families, the paper's example graphs, and
    families engineered to meet (or just miss) the paper's tight condition
    for the local broadcast model (min degree ≥ 2f and connectivity ≥
    ⌊3f/2⌋ + 1). *)

(** {1 Classical families} *)

val complete : int -> Graph.t
(** [complete n] is K_n. *)

val cycle : int -> Graph.t
(** [cycle n] is the n-cycle (n ≥ 3). *)

val path_graph : int -> Graph.t
(** [path_graph n] is the path on n nodes. *)

val star : int -> Graph.t
(** [star n] has hub 0 joined to nodes 1 .. n-1. *)

val wheel : int -> Graph.t
(** [wheel n] is a cycle on nodes 1 .. n-1 plus hub 0 joined to all
    (n ≥ 4). *)

val complete_bipartite : int -> int -> Graph.t
(** [complete_bipartite a b] is K_{a,b}, left part 0..a-1. *)

val grid : int -> int -> Graph.t
(** [grid w h] is the w×h grid; node (x, y) has id [y*w + x]. *)

val torus : int -> int -> Graph.t
(** [torus w h] is the w×h torus (wrap-around grid); 4-regular when
    w, h ≥ 3. *)

val hypercube : int -> Graph.t
(** [hypercube d] is the d-dimensional hypercube on 2^d nodes. *)

val circulant : int -> int list -> Graph.t
(** [circulant n jumps] joins i to i ± j (mod n) for each j in [jumps].
    [circulant n [1..k]] is 2k-regular and 2k-connected for n > 2k. *)

val harary : int -> int -> Graph.t
(** [harary k n] is the Harary graph H_{k,n}: k-connected on n nodes with
    ⌈kn/2⌉ edges (n > k). *)

val petersen : unit -> Graph.t
(** The Petersen graph: 10 nodes, 3-regular, 3-connected. *)

(** {1 The paper's graphs} *)

val fig1a : unit -> Graph.t
(** Figure 1(a): the 5-cycle, satisfying the condition for f = 1.
    (Node ids 0..4 stand for the paper's 1..5.) *)

val fig1b : unit -> Graph.t
(** Figure 1(b): an 8-node graph satisfying the condition for f = 2
    (4-regular, 4-connected). The paper prints the figure without an edge
    list, so we use the circulant C_8(1,2), which matches the stated
    properties. *)

(** {1 Condition-calibrated families} *)

val tight : int -> Graph.t
(** [tight f] (f ≥ 1) meets the local-broadcast condition {e exactly}:
    minimum degree exactly 2f and connectivity exactly ⌊3f/2⌋ + 1. Built as
    cliques A and B of size ⌈f/2⌉ bridged by a clique cut C of size
    ⌊3f/2⌋ + 1, with every A- and B-node joined to all of C. *)

val deficient_degree : int -> Graph.t
(** [deficient_degree f] (f ≥ 1) violates only the degree half of the
    condition: node [0] has degree exactly 2f − 1 (attached to nodes
    1 .. 2f-1 of a complete graph on the rest). Used by the Lemma A.1
    necessity gadget. *)

val deficient_connectivity : int -> Graph.t
(** [deficient_connectivity f] (f ≥ 1) violates only the connectivity half:
    minimum degree ≥ 2f but a vertex cut of size ⌊3f/2⌋ separates the graph.
    Used by the Lemma A.2 necessity gadget. Layout: clique A = 0..2f, cut C
    = 2f+1 .. 2f+⌊3f/2⌋ (empty for f = 0 is disallowed), clique B = rest. *)

val two_cliques_with_cut : a:int -> b:int -> c:int -> Graph.t
(** [two_cliques_with_cut ~a ~b ~c] is the general bridged construction:
    clique A (size a, ids 0..a-1), clique cut C (size c, ids a..a+c-1),
    clique B (size b, remaining ids), with A×C and B×C complete. Its
    connectivity is [c] whenever a, b ≥ 1. *)

(** {1 Graph specs} *)

val of_spec : string -> (Graph.t, string) result
(** Build the graph a spec string names: the CLI's [-g] syntax and a
    scenario's [gname]. Specs are [fig1a], [fig1b], [petersen], [cycle:N]
    (or [ring:N]), [path:N], [complete:N] (or [k:N]), [star:N], [wheel:N],
    [hypercube:D], [tight:F], [torus:WxH], [grid:WxH], [circulant:N:J1,J2],
    [harary:K:N], [gnp:N:P:SEED], [edges:N:0-1,1-2,...] and [file:PATH]
    ({!Graphio.of_file}). Never raises: a malformed spec, a parameter its
    builder rejects, an out-of-range edge endpoint or an unreadable file
    gives [Error] with a message naming the spec. *)

(** {1 Randomised families (deterministic under a seed)} *)

val random_gnp : seed:int -> int -> float -> Graph.t
(** Erdős–Rényi G(n, p). *)

val random_augmented_circulant : seed:int -> n:int -> k:int -> extra:float -> Graph.t
(** [random_augmented_circulant ~seed ~n ~k ~extra] starts from
    [circulant n [1..⌈k/2⌉]] (hence at least k-connected) and adds each
    remaining edge independently with probability [extra]. Useful as a
    source of random graphs guaranteed to satisfy a connectivity floor. *)

val random_geometric : seed:int -> int -> radius:float -> Graph.t
(** [random_geometric ~seed n ~radius] places [n] points uniformly in the
    unit square and joins points at Euclidean distance ≤ [radius] — the
    standard model of a wireless (radio) network, where local broadcast
    is the physical communication layer. *)

val random_geometric_positions :
  seed:int -> int -> radius:float -> Graph.t * (float * float) array
(** Like {!random_geometric}, also returning the sampled positions (for
    rendering and distance-based diagnostics). *)
