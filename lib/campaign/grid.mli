(** Scenario grids: lazy, totally ordered enumerations of scenarios.

    A grid is the declarative description of a campaign — typically a
    cartesian product (graph family × algorithm × fault placement ×
    adversary strategy × input vector) — enumerated lazily in a fixed
    total order. Positions in that order are the scenario {e indices};
    combined with content-derived {!Scenario.id}s this makes a grid
    deterministically shardable: shard [k] of size [s] is the contiguous
    index range [k·s .. k·s + s - 1], identical on every run, for every
    domain count, and across process restarts. *)

type t = { name : string; scenarios : Scenario.t Seq.t }

val make : name:string -> Scenario.t Seq.t -> t
val of_list : name:string -> Scenario.t list -> t

val append : name:string -> t list -> t
(** Concatenate grids in order (scenario indices are re-assigned by the
    combined enumeration; ids are unaffected, being content-derived). *)

val to_array : t -> Scenario.t array
(** Force the enumeration. *)

val shards : shard_size:int -> Scenario.t array -> (int * Scenario.t array) array
(** Partition the enumeration into contiguous shards of [shard_size]
    scenarios (the last may be shorter), as [(shard_index, scenarios)].
    @raise Invalid_argument if [shard_size < 1]. *)

val fingerprint : Scenario.t array -> string
(** Hex digest (FNV-1a) over the ordered scenario ids — two grids with
    the same fingerprint enumerate the same scenarios in the same order.
    Used to validate that a checkpoint belongs to the grid being run. *)

(** {1 Cartesian-product construction} *)

val product :
  ?net:Lbc_net.Net.profile option list ->
  ?chaos:Lbc_sim.Perturb.spec option list ->
  name:string ->
  graphs:(string * int) list ->
  algos:Scenario.algo list ->
  placements:(Lbc_graph.Graph.t -> f:int -> Lbc_graph.Nodeset.t list) ->
  strategies:Lbc_adversary.Strategy.kind list ->
  inputs:
    (Lbc_graph.Graph.t ->
    faulty:Lbc_graph.Nodeset.t ->
    Lbc_consensus.Bit.t array list) ->
  unit ->
  t
(** [product] enumerates graphs (each [(spec, f)]: a
    {!Lbc_graph.Builders.of_spec} spec, which is both the scenario's
    [gname] and the source of its graph, and a fault budget) × algorithms ×
    fault placements × strategies × input vectors × net profiles × chaos
    points, in exactly that nesting order (chaos varies fastest, then
    net, then inputs). [chaos] and [net] default to [[None]] — one
    perfect-synchrony, latency-free point per cell, which leaves the
    enumeration (and so every existing grid fingerprint) unchanged.
    [placements] and [inputs] are evaluated against a graph instance
    built once at enumeration time; executions build their own
    instances.
    @raise Invalid_argument on enumerating a graph whose spec
    {!Lbc_graph.Builders.of_spec} rejects. *)

val with_chaos : Lbc_sim.Perturb.spec -> t -> t
(** Install one perturbation spec on every scenario of a grid (the
    whole-grid analogue of the [chaos] axis). *)

val chaos_points : Lbc_sim.Perturb.spec list -> Lbc_sim.Perturb.spec option list
(** Wrap specs for the [chaos] axis: [chaos_points [a; b]] sweeps [a]
    and [b]; prepend [None] yourself to keep an unperturbed point. *)

val with_net : Lbc_net.Net.profile -> t -> t
(** Install one network profile on every scenario of a grid (the
    whole-grid analogue of the [net] axis) — the CLI's [--net] override. *)

val net_points : Lbc_net.Net.profile list -> Lbc_net.Net.profile option list
(** Wrap profiles for the [net] axis: [net_points [lan; wan]] sweeps
    both; prepend [None] yourself to keep a latency-free point. *)

(** {1 Axis helpers} *)

val singleton_placements : Lbc_graph.Graph.t -> f:int -> Lbc_graph.Nodeset.t list
(** All [n] single-node fault placements (ignores [f]). *)

val placements_of_size : int -> Lbc_graph.Graph.t -> f:int -> Lbc_graph.Nodeset.t list
(** All node subsets of exactly the given size (ignores [f]). *)

val placements_up_to_f : Lbc_graph.Graph.t -> f:int -> Lbc_graph.Nodeset.t list
(** All node subsets of size [0 .. f], smallest first. *)

val unanimous_inputs :
  Lbc_graph.Graph.t -> faulty:Lbc_graph.Nodeset.t -> Lbc_consensus.Bit.t array list
(** The two unanimous assignments ([Zero]s and [One]s), with every faulty
    node given the flipped value — the strongest configuration for the
    validity check, as used by the E1/E2 sweeps. *)

val all_inputs :
  ?cap:int ->
  Lbc_graph.Graph.t ->
  faulty:Lbc_graph.Nodeset.t ->
  Lbc_consensus.Bit.t array list
(** All [2^n] input assignments in numeric order (node 0 is the least
    significant bit).
    @raise Invalid_argument when [n] exceeds [cap] (default 12). *)
