(** Executable necessity gadgets (Appendix A, Figures 2–3, Table 1).

    The impossibility proofs build, from a condition-violating graph [G],
    a {e doubled network} 𝒢 with some directed edges. Every 𝒢-node runs
    the {e unmodified} procedure of the original [G]-node it copies. One
    execution [E] of 𝒢 then simultaneously models three executions
    E1/E2/E3 of the protocol on [G]; validity in E1 and E3 forces the two
    copy groups of 𝒢 to decide differently, which makes E2 — a legal
    execution of [G] with at most [f] faults — violate agreement.

    This module makes the construction runnable: {!degree_gadget} and
    {!connectivity_gadget} build 𝒢 for Lemma A.1 (a node of degree
    < 2f) and Lemma A.2 (connectivity ≤ ⌊3f/2⌋); {!run} executes any
    protocol on 𝒢 and checks the two validity groups; {!replay_e2}
    re-enacts execution E2 on the original graph [G], driving the faulty
    nodes with their recorded 𝒢 transcripts, and returns the resulting
    (agreement-violating) outcome. *)

type proc_family =
  paths:Lbc_flood.Path_intern.t ->
  me:int ->
  input:Lbc_consensus.Bit.t ->
  (Lbc_consensus.Bit.t Lbc_flood.Flood.wire, Lbc_consensus.Bit.t)
  Lbc_sim.Engine.proc
(** A protocol, given as the per-node process constructor for the
    original graph (e.g. [Algorithm1.proc ~g ~f]). A gadget creates one
    path intern table over the original graph and passes it as [paths]
    to every process of {!run} and of {!replay_e2}: each 𝒢-node runs a
    [G]-node's procedure on [G]-node paths, so the whole of execution E
    and its replay share that table, and the recorded wires the faulty
    nodes replay in E2 are read as ids of it. *)

type t
(** A constructed gadget network. *)

val network_size : t -> int
(** Number of 𝒢-nodes. *)

val describe : t -> string
(** Human-readable description of the construction (which sets were
    chosen, node correspondence). *)

val degree_gadget : Lbc_graph.Graph.t -> f:int -> ?z:int -> unit -> t
(** Lemma A.1 construction. [z] (default: a minimum-degree node) must
    have degree < 2f: its neighbourhood is split into F¹ (size < f) and
    F² (non-empty, size ≤ f); the remaining nodes W are doubled.
    @raise Invalid_argument if [z]'s degree is ≥ 2f. *)

val connectivity_gadget :
  Lbc_graph.Graph.t -> f:int -> ?cut:Lbc_graph.Nodeset.t -> unit -> t
(** Lemma A.2 construction. [cut] (default: a minimum vertex cut) must
    have size ≤ ⌊3f/2⌋ and its removal must disconnect the graph; it is
    split into C¹, C², C³ with |C¹|,|C²| ≤ ⌊f/2⌋, |C³| ≤ ⌈f/2⌉, and the
    two sides A, B are doubled.
    @raise Invalid_argument if the cut is too large or does not
    disconnect. *)

val hybrid_neighborhood_gadget :
  Lbc_graph.Graph.t ->
  f:int ->
  t:int ->
  ?s:Lbc_graph.Nodeset.t ->
  unit ->
  t
(** Lemma D.1 construction (hybrid model, Figure 4). [s] (default: the
    first set of size ≤ t with at most 2f neighbours) has its
    neighbourhood split into F¹, F², R, T; W and T are doubled. In the
    produced execution E2, the faults are F¹ ∪ T and the T nodes
    {e equivocate}: the replay unicasts the T0 transcript towards S and
    the T1 transcript towards everyone else. The sides forced to disagree
    are S and R. Requires [1 <= t <= f].
    @raise Invalid_argument when no qualifying set exists. *)

val hybrid_connectivity_gadget :
  Lbc_graph.Graph.t ->
  f:int ->
  t:int ->
  ?cut:Lbc_graph.Nodeset.t ->
  unit ->
  t
(** Lemma D.2 construction (hybrid model, Figure 5). [cut] (default: a
    minimum vertex cut) must have size ≤ ⌊3(f−t)/2⌋ + 2t; it is split
    into C¹, C², C³, R, T, and A, B, R, T are doubled. In execution E2
    the faults are C¹ ∪ C³ ∪ R with R equivocating (R0 towards side A,
    R1 towards the rest); the sides forced to disagree are A and B.
    Requires [1 <= t <= f]. *)

type verdict = {
  outputs : Lbc_consensus.Bit.t array;  (** per-𝒢-node outputs in E *)
  group_zero_ok : bool;
      (** did the nodes modelling E1's honest set output 0? *)
  group_one_ok : bool;
      (** did the nodes modelling E3's honest set output 1? *)
  split : bool;
      (** [group_zero_ok && group_one_ok] — the E2 agreement violation is
          forced *)
}

val run : t -> proc:proc_family -> rounds:int -> verdict
(** Execute the protocol on 𝒢 for [rounds] rounds (use the protocol's own
    round count for [G], e.g. [Algorithm1.rounds]). *)

val replay_e2 :
  t -> proc:proc_family -> rounds:int -> Lbc_consensus.Spec.outcome
(** Re-enact execution E2 {e on the original graph}: honest nodes run
    [proc]; the faulty set of E2 replays, round by round, the broadcasts
    of the corresponding 𝒢-copies recorded during {!run}'s execution of
    E. When the protocol satisfies validity on the two side executions,
    the returned outcome violates agreement — with at most [f] faulty
    nodes, proving the condition necessary. *)

val e2_faulty : t -> Lbc_graph.Nodeset.t
(** The faulty set of execution E2 (size ≤ f). *)

val e2_sides : t -> Lbc_graph.Nodeset.t * Lbc_graph.Nodeset.t
(** The two honest groups of E2 that are forced to disagree (for the
    degree gadget: [{z}] and [W ∪ F²]; for the connectivity gadget: [A]
    and [B]). *)
