(** Randomised falsification harness.

    Replays a consensus algorithm many times with randomised inputs,
    fault placements and per-node adversarial strategies, and reports
    every agreement/validity violation with its reproduction seed. This
    is the harness that exposed the two implementation-level soundness
    bugs documented in DESIGN.md (union-graph path counting; omission
    evidence), kept as a first-class tool: any future change to the
    flooding rules, acceptance tests or fault discovery should survive a
    [Fuzz] campaign on condition-satisfying graphs.

    On a graph satisfying the respective condition, a campaign must
    report zero violations; finding one is a bug (or, on a deliberately
    deficient graph, a demonstration). *)

type target =
  | A1  (** Algorithm 1 (local broadcast, tight condition) *)
  | A2  (** Algorithm 2 (local broadcast, 2f-connected) *)
  | A3 of int  (** Algorithm 3 with the given [t] (hybrid) *)
  | Relay  (** Dolev-relayed EIG (point-to-point) *)

type violation = {
  case_seed : int;  (** reproduce with the same graph/f/target and this seed *)
  faulty : Lbc_graph.Nodeset.t;
  strategies : string list;  (** per faulty node, rendered *)
  inputs : Bit.t array;
  outcome : Spec.outcome;
}

type report = {
  target : target;
  runs : int;
  violations : violation list;  (** chronological; empty on a clean campaign *)
}

val run :
  g:Lbc_graph.Graph.t ->
  f:int ->
  target:target ->
  runs:int ->
  ?seed:int ->
  ?max_faults:int ->
  unit ->
  report
(** Execute a campaign: each case draws uniform inputs, a fault set of
    size 0 .. [max_faults] (default [f]), independent strategies per
    faulty node (broadcast-bound kinds; for {!A3} the equivocating kind
    is allowed on up to [t] designated equivocators), and checks
    agreement + validity (+ decision = the unanimous honest value when
    the honest inputs happen to be unanimous). *)

val pp_report : Format.formatter -> report -> unit
