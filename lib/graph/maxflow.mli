(** Integer maximum flow on directed networks (Edmonds–Karp).

    Small, dependency-free max-flow used to compute Menger-style
    node-disjoint path counts. Networks are built imperatively; every
    [add_edge] creates a forward arc and its zero-capacity residual twin.

    {b Reuse.} A network can answer many queries: {!reset} puts every arc
    back to the capacity it was added with, and {!set_capacity} adjusts
    single arcs before the next {!max_flow}. The breadth-first search
    scratch lives in the network, so a query allocates nothing per
    augmentation.

    {b Arc order.} Searches and {!take_flow} visit the arcs leaving a
    vertex newest first, so results depend on the order arcs were added
    in. An arc whose capacity is zero for a whole query never carries
    flow, and neither does its twin; such arcs are skipped and do not
    affect the order in which the remaining ones are visited. *)

type t

val create : int -> t
(** [create n] is an empty network on vertices [0 .. n - 1]. *)

val add_edge : t -> src:int -> dst:int -> cap:int -> int
(** Add a directed arc with the given non-negative capacity and return
    its id. Parallel arcs are permitted (capacities add up
    behaviourally). *)

val set_capacity : t -> int -> int -> unit
(** [set_capacity t arc c] sets the remaining capacity of [arc] (an id
    returned by {!add_edge}) to [c], until the next {!reset}. Meant for
    a network that carries no flow, right after {!reset}. *)

val reset : t -> unit
(** Remove all flow and restore every arc to the capacity it was added
    with. *)

val max_flow : ?limit:int -> t -> src:int -> sink:int -> int
(** [max_flow t ~src ~sink] computes the maximum flow value and leaves the
    flow recorded in the network. With [~limit:k], augmentation stops as
    soon as the flow reaches [k] (useful for threshold queries). Calling it
    again on the same network resumes from the current flow. *)

val take_flow : t -> int -> int option
(** After [max_flow]: remove one unit of flow from the first arc leaving
    [u] that carries flow, and return that arc's head; [None] if no arc
    leaving [u] carries flow. Used to decompose the flow into paths. *)

val residual_reachable : t -> src:int -> Nodeset.t
(** After [max_flow]: the set of vertices reachable from [src] in the
    residual network; its complement side of the sink induces a minimum
    cut. *)
