(** Predefined campaign grids for the experiment index (DESIGN.md §4).

    These are the declarative replacements for the ad-hoc serial loops
    the E1 / E2 / E5 / E8 sweeps used to run in [bench/main.ml]; the
    bench harness and the [lbcast campaign] subcommand both obtain their
    grids here, so the CLI and the experiment tables are guaranteed to
    sweep the same scenarios. *)

val e1 : ?inputs:[ `All | `Unanimous ] -> ?quick:bool -> unit -> Grid.t
(** E1 — Figure 1(a), the 5-cycle at [f = 1]: Algorithms 1 and 2 × all 5
    fault placements × all broadcast-bound strategies × input vectors.
    [`All] (default) sweeps all [2^5 = 32] input assignments — the
    exhaustive grid; [`Unanimous] the two flipped-unanimous ones. [quick]
    reduces the strategy axis to two. *)

val e2 : ?quick:bool -> unit -> Grid.t
(** E2 — Figure 1(b), C8(1,2) at [f = 2]: the representative
    A1+A2 sweep plus (unless [quick]) the exhaustive Algorithm 2 sweep
    over all 28 fault pairs × 4 strategies. *)

val e5 : ?sizes:int list -> unit -> Grid.t
(** E5 — Theorem 5.6 round linearity: Algorithm 2 on [cycle n] for each
    [n] (default the bench's 5–17 odd sweep), one flip-forwards fault at
    [n/2], near-unanimous inputs. *)

val e8 : ?quick:bool -> unit -> Grid.t
(** E8 — efficiency-gap measurements: A1 vs A2 on the Figure 1 graphs,
    plus the relay-EIG and EIG point-to-point baselines. *)

val edeg : unit -> Grid.t
(** Degradation study: A1 and A2 on a 7-cycle under a sweep of
    environment perturbations (packet drop at three rates, duplication,
    bounded delay, honest crash-restart), each cell also run unperturbed
    as a baseline — the data source for the bench chaos table. *)

val e15 : ?quick:bool -> unit -> Grid.t
(** E15 — latency degradation study: A1 and A2 on a 7-cycle across the
    named network profiles (lan / wan / satellite / heavy-tail) × packet
    drop (0 / 1% / 5%), flipped-unanimous inputs, each cell also run
    latency-free and unperturbed as baselines — the data source for the
    bench round-complexity vs simulated-tail-latency table. [quick]
    restricts to the wan profile and drop ∈ {0, 1%}. *)

val fuzz :
  gname:string ->
  f:int ->
  algo:Scenario.algo ->
  runs:int ->
  seed:int ->
  ?max_faults:int ->
  unit ->
  Grid.t
(** The randomised falsification grid (E13, [lbcast fuzz]): [runs]
    cases on the graph [gname], case [k] drawn from
    [Random.State.make [|0xFACE; seed + k|]]: uniform random inputs, a
    fault set of size 0 .. [max_faults] (default [f]), an independent
    broadcast-bound kind per faulty node (a per-node
    {!Scenario.t.per_node} assignment, or a uniform scenario when every
    node drew one kind), and for [A3 t] up to [t] equivocators among the
    faulty nodes, which run [Equivocate]. On a graph meeting the
    algorithm's condition, every case must reach consensus.
    @raise Invalid_argument when {!Lbc_graph.Builders.of_spec} rejects
    [gname]. *)

val e13 : ?quick:bool -> unit -> (string * Grid.t) list
(** E13 — the five labelled {!fuzz} grids of the falsification table
    (seed 0): A2 on the 5-cycle (300 runs), A2 on Figure 1(b) at [f = 2]
    (150), A1 on the 5-cycle (150), A3 with [t = 1] on K4 (150) and
    relay-EIG on the 7-wheel (100); [quick] divides the runs by 10. *)

val by_name : ?quick:bool -> string -> Grid.t option
(** Look up ["e1"], ["e1-unanimous"], ["e2"], ["e5"], ["e8"], ["edeg"],
    ["e15"], ["chaos-smoke"], ["smoke"] or ["n100"]. The last three are
    CI gates: ["chaos-smoke"] holds perturbed runs, a scenario that
    raises {!Lbc_sim.Engine.Model_violation} (Equivocate under local
    broadcast) and a 110-round Petersen run that exceeds modest
    [max_rounds] budgets; ["smoke"] is {!e1} with unanimous inputs (220
    scenarios); ["n100"] is one Algorithm 2 scenario on a 100-node
    cycle, node ids beyond one bitset word. *)

val names : string list
(** The accepted {!by_name} arguments, for help text. *)
