(** Byzantine strategies against flooding-based protocols.

    A strategy describes how a faulty node behaves during one flooding
    instance (one step (a) of Algorithm 1/3, or one phase of Algorithm 2).
    Strategies are interpreted by {!fstep} into an engine-level faulty
    step, generically over the flooded value type.

    Strategies marked "broadcast-bound" conform to the local broadcast
    model. {!Equivocate} unicasts and is legal only for equivocating
    nodes of the hybrid model (or under point-to-point); using it under
    [Local_broadcast] raises {!Lbc_sim.Engine.Model_violation}, by
    design. *)

type kind =
  | Honest_behavior  (** faulty but follows the protocol this flood *)
  | Silent  (** never transmits (crash at round 0) *)
  | Crash_at of int  (** honest before the given round, silent after *)
  | Lie  (** floods [flip input] instead of [input], otherwise honest *)
  | Flip_forwards
      (** relays every accepted message with its value flipped (the
          tampering relay of §4's two-case discussion) *)
  | Flip_from of Lbc_graph.Nodeset.t
      (** tampers only messages originating at the given nodes *)
  | Omit_from of Lbc_graph.Nodeset.t
      (** relays everything except messages originating at the given
          nodes — targeted relay omission, the attack class that defeats
          tamper-only fault discovery (see DESIGN.md on Algorithm 2) *)
  | Omit_sampled of int
      (** drops each accepted forward independently with probability 1/2
          (seeded with the given salt): noisy omission *)
  | Spurious of int
      (** honest, plus up to the given number of invented messages per
          round along fabricated paths ending at this node (seeded,
          deterministic) *)
  | Noise of int
      (** arbitrary junk: random values over random (often invalid)
          paths, the given number per round (seeded) *)
  | Equivocate
      (** per-neighbour inconsistent unicast: true values to even
          neighbours, flipped to odd ones, both for initiation and
          relays. Hybrid/point-to-point models only. *)

val broadcast_bound : kind -> bool
(** Is the strategy legal under the pure local broadcast model? *)

val kinds_lbc : kind list
(** All broadcast-bound strategies (with representative parameters), for
    exhaustive test sweeps. *)

val kinds_hybrid : kind list
(** [kinds_lbc] plus {!Equivocate}. *)

val pp_kind : Format.formatter -> kind -> unit
(** Human rendering, as in scenario ids: ["flip-forwards"],
    ["omit-from-{2, 3}"]. Not parseable back; see {!to_string}. *)

val to_string : kind -> string
(** The CLI's [-s] spelling: ["flip"], ["crash:2"], ["omit:2,3"], ... *)

val of_string : string -> (kind, string) result
(** Inverse of {!to_string}; also accepts ["flip-forwards"]. A negative
    [spurious]/[noise] count is an error naming it
    (["noise:-1: count must be >= 0"]). *)

val fstep :
  kind ->
  g:Lbc_graph.Graph.t ->
  paths:Lbc_flood.Path_intern.t ->
  me:int ->
  vcompare:('v -> 'v -> int) ->
  input:'v ->
  default:'v ->
  flip:('v -> 'v) ->
  seed:int ->
  'v Lbc_flood.Flood.wire Lbc_sim.Engine.fstep
(** Interpret a strategy as a faulty engine step for one flooding
    instance. [input] is the value the node would honestly flood,
    [default] the flood's missing-message default, [vcompare] the value
    order handed to the internal flood stores (see
    {!Lbc_flood.Flood.create}), [flip] an involution on values used by
    the tampering strategies, and [seed] makes the randomised strategies
    deterministic. [paths] is the intern table of the internal flood
    store and the [home] of every wire the step transmits, fabricated
    ones included: pass the execution's table, the one its honest stores
    share, so that a faulty node interns nothing the honest nodes have
    not (its store would otherwise build and grow a private table per
    flood) and its receivers read its wires' ids directly. The table is
    a memo of path facts, so sharing it changes no transmission (as
    value and path).
    @raise Invalid_argument if [paths] was created for another graph
    and the kind keeps a flood store. *)
