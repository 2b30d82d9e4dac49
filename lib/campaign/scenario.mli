(** One cell of an experiment campaign: "run algorithm X under adversary Y
    on graph Z with inputs I and check agreement/validity/termination".

    Scenarios are pure descriptions — the graph is carried as a {e spec
    string} (the CLI's [-g] syntax) plus a builder thunk, and every
    execution builds a fresh graph instance, so scenarios can be executed
    concurrently on separate domains without sharing mutable graph
    structure, and every failure report doubles as a [lbcast run]
    reproduction command. [lbcast run] builds a scenario from its flags
    and executes it through {!run}, the same executor campaigns use, and
    each field's spelling in that command parses back in [lib/]
    ({!Lbc_graph.Builders.of_spec}, {!algo_of_name},
    {!Lbc_adversary.Strategy.of_string}, {!Lbc_graph.Nodeset.of_csv},
    {!Lbc_consensus.Bit.array_of_string}), so a repro line replays the
    campaign's execution exactly.

    A scenario's {!id} is a canonical string derived from its content
    only (never from enumeration order or scheduling), which is what
    makes campaign grids shardable and resumable: ids are stable across
    runs, domain counts and process restarts. *)

type algo =
  | A1  (** Algorithm 1 (exponential phases, local broadcast) *)
  | A2  (** Algorithm 2 (O(n) rounds, 2f-connected) *)
  | A3 of int  (** Algorithm 3 with equivocation budget [t] (hybrid) *)
  | Relay  (** Dolev-relayed EIG baseline (point-to-point) *)
  | Eig  (** EIG baseline on complete graphs (point-to-point) *)

val algo_name : algo -> string
(** CLI-compatible name: ["a1"], ["a2"], ["a3"], ["relay"], ["eig"]. *)

val algo_of_name : t:int -> string -> (algo, string) result
(** Inverse of {!algo_name}; [t] is the equivocation budget of ["a3"]
    (the CLI's [-t]) and is ignored for the other names. *)

type t = {
  gname : string;
      (** graph spec, e.g. ["cycle:5"] ({!Lbc_graph.Builders.of_spec}) *)
  build : unit -> Lbc_graph.Graph.t;  (** fresh graph per execution *)
  algo : algo;
  f : int;
  faulty : Lbc_graph.Nodeset.t;
  equivocators : Lbc_graph.Nodeset.t;  (** for {!A3}; empty otherwise *)
  strategy : Lbc_adversary.Strategy.kind;
      (** applied to every faulty node when [per_node] is empty *)
  per_node : (int * Lbc_adversary.Strategy.kind) list;
      (** a mixed adversary: one kind per faulty node, sorted by node and
          naming exactly the faulty set; [strategy] is then the lowest
          node's kind. Empty when every faulty node runs [strategy] —
          {!make} collapses an assignment of one kind to that form *)
  inputs : Lbc_consensus.Bit.t array;
  chaos : Lbc_sim.Perturb.spec option;
      (** environment perturbation installed around the execution
          ({!Lbc_sim.Perturb.with_chaos} with the scenario seed);
          [None] runs the perfect-synchrony model *)
  net : Lbc_net.Net.profile option;
      (** latency model installed around the execution
          ({!Lbc_net.Net.with_net} with the scenario seed); [None] — and
          equivalently the {!Lbc_net.Net.ideal} profile — reports zero
          simulated time and leaves the artifact bytes untouched *)
}

val make :
  gname:string ->
  build:(unit -> Lbc_graph.Graph.t) ->
  algo:algo ->
  f:int ->
  faulty:Lbc_graph.Nodeset.t ->
  ?equivocators:Lbc_graph.Nodeset.t ->
  strategy:Lbc_adversary.Strategy.kind ->
  ?per_node:(int * Lbc_adversary.Strategy.kind) list ->
  inputs:Lbc_consensus.Bit.t array ->
  ?chaos:Lbc_sim.Perturb.spec ->
  ?net:Lbc_net.Net.profile ->
  unit ->
  t
(** [per_node] (default empty) is normalised as its field describes. *)

val node_strategy : t -> int -> Lbc_adversary.Strategy.kind
(** The kind a faulty node runs: its [per_node] entry, else [strategy]. *)

val strategy_label : t -> string
(** The adversary as {!id} spells it after [s=]:
    {!Lbc_adversary.Strategy.pp_kind} of [strategy], or [V:KIND/V:KIND...]
    per node for a mixed one. *)

val strategy_of_string :
  string ->
  (Lbc_adversary.Strategy.kind * (int * Lbc_adversary.Strategy.kind) list,
   string)
  result
(** Parse a [-s] value, the spelling {!repro_command} prints: a
    {!Lbc_adversary.Strategy.of_string} kind [k] gives [(k, [])], and the
    mixed form [V=KIND/V=KIND...] (e.g. [1=noise:2/3=omit:1,4]) gives
    the first item's kind and the items, for {!make}; {!validate} then
    rejects a list naming a node twice or other nodes than the faulty
    ones. *)

val id : t -> string
(** Canonical content-derived identifier, e.g.
    ["a1|cycle:5|f=1|faulty=2|s=flip-forwards|in=00100"] (a mixed
    adversary spells [s=] as {!strategy_label} does). Stable across
    runs and independent of position in any grid. Scenarios with a chaos
    spec append a [|chaos=...] segment (canonical {!Lbc_sim.Perturb.to_string}
    spelling); [chaos = None] keeps the historical spelling, so existing
    grid fingerprints are unchanged. Scenarios with a non-ideal network
    profile likewise append a [|net=NAME] segment; [net = None] and the
    ideal profile both keep the historical spelling. *)

val repro_command : t -> seed:int -> string
(** The [lbcast run] command line reproducing this scenario (including
    its [--chaos] spec and non-ideal [--net] profile) with the given
    seed. *)

val validate : t -> Lbc_graph.Graph.t -> unit
(** Check the scenario against its built graph, as {!run} does before
    executing: the inputs must cover the graph, every faulty node must
    be in it, every equivocator must be faulty, and a [per_node] list
    must name exactly the faulty nodes (and not run {!Eig}).
    @raise Invalid_argument naming the scenario and the violation. *)

val run : ?max_rounds:int -> t -> seed:int -> Lbc_consensus.Spec.outcome * int
(** Execute the scenario once on a freshly built graph: the algorithm
    under the scenario's strategy, inside its chaos spec and network
    profile (both seeded with [seed]), and inside a [max_rounds] fuel
    budget ({!Lbc_sim.Engine.with_fuel}) when one is given. Returns the
    outcome and the simulated wall-time in ns (0 without a profile). The
    one executor behind campaigns ({!execute}) and [lbcast run].

    {!Eig} maps the strategy onto its own attack: [Silent]/[Crash_at]
    stay silent, [Equivocate] equivocates, anything else lies.

    @raise Invalid_argument when the inputs do not cover the graph, a
    faulty node is not in the graph, or an equivocator is not faulty.
    Whatever the execution raises ({!Lbc_sim.Engine.Fuel_exhausted},
    {!Lbc_sim.Engine.Model_violation}, ...) propagates. *)

val scenario_seed : base:int -> t -> int
(** The per-scenario RNG seed: a deterministic (FNV-1a) hash of {!id}
    folded with the campaign's base seed. Randomised adversary strategies
    thus behave identically for a given scenario no matter which domain,
    shard or resumed process executes it. *)

type status =
  | Checked  (** the execution ran to completion and was judged *)
  | Timed_out of { budget : int }
      (** the per-scenario round budget ({!Lbc_sim.Engine.with_fuel}) ran
          out — a livelocked or oversized execution, stopped instead of
          hanging its worker domain *)
  | Crashed of { exn : string; backtrace : string; repro : string }
      (** the execution raised (including
          {!Lbc_sim.Engine.Model_violation} and [Stack_overflow]):
          exception message, backtrace captured at the raise, and the
          [lbcast run] command that reproduces it *)

type verdict = {
  index : int;  (** position in the grid's total enumeration order *)
  id : string;
  status : status;
      (** non-{!Checked} verdicts have [ok = false] and zeroed
          rounds/phases/tx/rx *)
  ok : bool;
      (** agreement ∧ validity ∧ termination ∧ (decision = unanimous
          honest input, when the honest inputs are unanimous) *)
  agreement : bool;
  validity : bool;
  termination : bool;  (** every honest node decided *)
  decision : Lbc_consensus.Bit.t option;  (** common decision, if agreed *)
  expected : Lbc_consensus.Bit.t option;
      (** the unanimous honest input, when unanimous *)
  rounds : int;
  phases : int;
  transmissions : int;
  deliveries : int;
  sim_ns : int;
      (** simulated wall-time of the execution under the scenario's
          network profile, ns ({!Lbc_net.Net.with_net}); 0 without a
          profile, under the ideal profile, and on failure verdicts *)
  counterexample : string option;
      (** on failure: per-node outputs plus a [lbcast run] reproduction
          command line *)
}

val crashed_verdict :
  index:int -> id:string -> repro:string -> message:string -> verdict
(** The deterministic crash-record verdict the runner writes when it
    quarantines a scenario whose {e execution machinery} (not the
    scenario itself) failed repeatedly: status {!Crashed} with [message]
    as the exception text, the given reproduction command, and an empty
    backtrace — the worker's call stack says nothing about the scenario. *)

val execute : ?base_seed:int -> ?max_rounds:int -> index:int -> t -> verdict
(** Build a fresh graph and run the scenario to a verdict. [base_seed]
    (default 0) feeds {!scenario_seed}. [max_rounds] installs a fuel
    budget around the execution ({!Lbc_sim.Engine.with_fuel}).

    Contained: an execution that exhausts its budget returns a
    {!Timed_out} verdict, and one that raises anything else (including
    [Stack_overflow]) returns a {!Crashed} verdict carrying the
    exception, its backtrace and a reproduction command — [execute]
    itself never raises on scenario failure. Both failure verdicts live
    in the artifact's byte-comparable portion, minus the backtrace: it
    names source lines, so {!Artifact.deterministic_string} leaves it
    out (the saved artifact keeps it). *)

val execute_observed :
  ?base_seed:int ->
  ?max_rounds:int ->
  index:int ->
  t ->
  verdict * (string * int) list
(** {!execute} under an {!Lbc_obs.Obs.record}: additionally returns the
    scenario's observability counters (instrumentation counters, flattened
    histograms as [name.count]/[name.sum], the verdict's own
    round/phase/tx/rx tallies as [verdict.*], and — for failure verdicts
    — [verdict.timeouts] / [verdict.crashed]), sorted by name. The
    counters are a pure function of the scenario and seed — the execution
    happens wholly on the calling domain, so the list is identical no
    matter which domain or process runs it. *)

val verdict_to_json : ?backtrace:bool -> verdict -> Jsonio.t
(** [backtrace] (default [true]) includes a {!Crashed} verdict's
    backtrace; the artifact's deterministic rendering passes [false]. *)

val verdict_of_json : Jsonio.t -> (verdict, string) result

val pp_verdict : Format.formatter -> verdict -> unit
(** One-line human rendering. *)
