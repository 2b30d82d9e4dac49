(** Synchronous round-based execution engine.

    The engine realises the paper's system model (§3): a synchronous
    network of [n] nodes. In each round every node is stepped with the
    messages delivered to it (those transmitted in the previous round),
    and emits transmissions for the next round.

    Three communication models are supported (§3, §6):
    - {e local broadcast}: every transmission by [u] is received
      identically by every node that hears [u]; unicast is physically
      impossible;
    - {e point-to-point}: [u] may send distinct messages to distinct
      neighbours;
    - {e hybrid}: only a designated set of (faulty) nodes may unicast;
      everyone else is broadcast-bound.

    The engine enforces the model: an illegal unicast raises
    {!Model_violation} — a deliberate crash, since a strategy attempting
    one is a bug in the experiment, not a tolerable fault.

    Topologies are "hears" relations rather than graphs so that the
    directed gadget networks of Appendices A and D (Figures 2–5) can run
    unmodified node procedures. *)

type node_id = int

type topology = {
  n : int;  (** number of nodes, ids [0 .. n-1] *)
  hears : node_id -> node_id list;
      (** [hears u] — the nodes that receive [u]'s broadcasts, in
          ascending order. *)
  link : node_id -> node_id -> bool;
      (** [link u v] — may [u] address a unicast to [v] (in models that
          permit unicast)? *)
}

val topology_of_graph : Lbc_graph.Graph.t -> topology
(** The symmetric topology of an undirected graph: [hears u] is the
    neighbour set of [u]. *)

val topology_directed : n:int -> out:(node_id -> node_id list) -> topology
(** An explicitly directed topology: [out u] lists the nodes that hear
    [u]. [link u v] holds iff [v] is in [out u]. [out] is consulted once
    per node at construction. *)

type model =
  | Local_broadcast
  | Point_to_point
  | Hybrid of Lbc_graph.Nodeset.t
      (** members of the set may unicast (equivocate); everyone else is
          broadcast-bound. *)

type 'msg delivery =
  | Broadcast of 'msg
  | Unicast of node_id * 'msg  (** receiver, message *)

exception Model_violation of string

type ('msg, 'out) proc = {
  step : round:int -> inbox:(node_id * 'msg) list -> 'msg list;
      (** honest step: consumes the inbox, returns broadcasts. The inbox
          is sorted by sender id, preserving each sender's emission
          order. *)
  output : unit -> 'out;  (** read the node's final output after the run *)
}

type 'msg fstep = round:int -> inbox:(node_id * 'msg) list -> 'msg delivery list
(** A Byzantine-controlled node: full freedom within the communication
    model. *)

type ('msg, 'out) role = Honest of ('msg, 'out) proc | Faulty of 'msg fstep

type stats = {
  rounds : int;  (** rounds executed *)
  transmissions : int;  (** broadcast and unicast operations performed *)
  deliveries : int;  (** point-to-point message receptions *)
}

type ('msg, 'out) result = {
  outputs : 'out option array;  (** [None] for faulty nodes *)
  stats : stats;
  transcript : (int * node_id * 'msg delivery) list;
      (** every transmission as [(round, sender, delivery)], in
          chronological order; recorded only when [run ~record:true]. *)
}

val run :
  ?record:bool ->
  topology ->
  model:model ->
  rounds:int ->
  roles:('msg, 'out) role array ->
  ('msg, 'out) result
(** Execute [rounds] synchronous rounds. [roles] must have length
    [topology.n].

    Without a {!Perturb} context every transmission reaches its hearers
    in the next round. When one is installed in the current domain
    ({!Perturb.with_chaos}), each delivery's fate comes from the
    perturbation oracle: per-(round, sender, receiver) drop /
    duplication / bounded delay, and honest crash-restart windows (a
    down node is not stepped, loses its inbox and emits nothing; its
    closure state survives the restart). A zero-rate context
    reproduces a run without one bit-for-bit — same outputs, stats,
    transcript and observability counters. Perturbed runs additionally
    tally [perturb.dropped] / [perturb.duplicated] / [perturb.delayed] /
    [perturb.expired] / [perturb.crashes] / [perturb.crash_rounds]. A
    copy delayed past the last round counts as a delivery and as
    [perturb.expired]; the engine's memory is bounded by [rounds], not
    by the spec's [delay].

    When a {!Lbc_net.Net} context is installed ({!Lbc_net.Net.with_net}),
    every delivery is additionally assigned a sampled link latency and
    each round's duration (its slowest completion) advances the
    simulated clock — orthogonally to chaos. An
    ideal (all-zero) profile records nothing and is observationally
    identical to running without the layer; non-ideal profiles record
    the [net.link_ns] / [net.round_ns] histograms. A perturb-delayed
    copy is charged its latency at the send round; a dropped copy is
    never charged.

    Every run consumes one unit of {e fuel} per round when a budget is
    installed with {!with_fuel}.

    @raise Model_violation if a faulty node unicasts in a model that
    forbids it for that node, or unicasts over a non-existent link.
    @raise Fuel_exhausted when the installed round budget runs out. *)

(** {1 Fuel}

    A domain-local round budget shared by every [run] in a dynamic
    extent — the campaign runner's defence against livelocked or
    runaway executions: instead of hanging a worker domain forever, the
    execution raises and is recorded as a timeout verdict. *)

exception Fuel_exhausted of { budget : int }

val with_fuel : budget:int -> (unit -> 'a) -> 'a
(** Install a fresh budget of [budget] rounds around a thunk (restoring
    the previous budget, also on exception). Nested budgets shadow. *)

val check_fuel : unit -> unit
(** Raise {!Fuel_exhausted} if an installed budget is spent — for
    algorithm drivers to call between engine runs (e.g. at phase-loop
    heads), so multi-phase algorithms stop promptly rather than starting
    another full [run]. No-op without a budget. *)

val current_fuel_cell : unit -> int Atomic.t option
(** The live fuel counter installed by the innermost {!with_fuel} on the
    calling domain, if any. The campaign runner's deadline watchdog holds
    this cell and zeroes it {e from another domain} to cancel an overdue
    execution: the next [consume_fuel]/[check_fuel] on the running domain
    then raises {!Fuel_exhausted} with the installed budget, turning a
    hung execution into an ordinary timeout verdict. The cell is an
    [Atomic.t] precisely because of that cross-domain write: a plain
    [ref] would give the zero no visibility guarantee under the OCaml 5
    memory model, so the worker could spin forever without ever
    observing the cancellation. *)
