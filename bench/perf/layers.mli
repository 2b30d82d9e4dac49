(** [lbcbench trace]: per-layer measurement of one workload at one seed.

    The sample is the workload's first pass (the grid [lbcbench run]
    repeats). Every layer is measured from outside, by timing calls into
    its public functions — nothing in [lib/] is instrumented:

    - campaign: the sample through [Runner.run_exn] plain, with a
      journal and a fresh result cache (cold, then warm), and at two
      domains; [Artifact.save];
    - obs: [Scenario.execute_observed] against [Scenario.execute];
    - core: [Algorithm2.attribution_index] and [Algorithm2.discover] per
      honest node, on the [run_traced] output of each Algorithm 2
      scenario (run without chaos or latency model);
    - graph: the scenario's build thunk, the precondition checks, and a
      replay of [discover]'s [Disjoint.disjoint_uv_paths] calls;
    - flood and sim: an all-honest [Engine.run] flood on the scenario's
      graph with every [Flood.proc] step timed;
    - packing: uncached [Packing.count] over that flood's per-(origin,
      value) record masks;
    - chaos and net: [Scenario.execute] with the perturbation or the
      latency model stripped.

    Counts are summed deterministic counters of the sample's
    [execute_observed] runs and of the artifacts. Rounds of all probes
    repeat until [seconds] have elapsed (at least one); times are the
    median over rounds, counts come from the first round and must repeat
    exactly in every later one. Spans of the first round go to the
    {!Spans} recorder. *)

type result = {
  workload : string;
  seed : int;
  rounds : int;
  attempted : int;  (** sample scenarios × rounds *)
  problems : string list;  (** one line per failed check *)
  values : Metric.value list;  (** the {!Metric.per_layer} metrics *)
}

val trace :
  ?limit:int -> Workloads.t -> seed:int -> seconds:float -> spans:Spans.t -> result
