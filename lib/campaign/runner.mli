(** Campaign execution: enumerate a grid, execute scenarios on a
    work-stealing domain pool, stream every verdict to a crash-survivable
    journal, and aggregate the journal into an artifact.

    Determinism contract: the verdict array {e and the stats section} of
    the resulting artifact are pure functions of (grid, base seed) —
    every scenario runs with its content-derived
    {!Scenario.scenario_seed} wholly on one domain under an
    {!Lbc_obs.Obs.record}, verdict aggregation orders by scenario index,
    and stats aggregation is a commutative merge of per-scenario counters
    — so {!Artifact.deterministic_string} is byte-identical for any
    [domains], any work-stealing interleaving, any cache state, and
    across any number of kill/resume cycles. Only the artifact's [run]
    section (timing, domain count, cache/steal/recovery reports) varies.
    Wall-clock is measured on a monotonic clock.

    The exception is the opt-in [deadline_s] watchdog: which scenarios it
    fires on depends on real time, so runs using it are only
    byte-reproducible when no deadline fires (its verdicts are the
    ordinary {!Scenario.Timed_out} shape, and are never cached). *)

type config = {
  domains : int;  (** worker domains (including the caller); min 1 *)
  base_seed : int;
  journal : string option;
      (** journal-file path; enables crash recovery and resume. The file
          is deleted when the campaign completes. *)
  cache : string option;
      (** result-cache directory ({!Cache}); scenarios whose
          (id, seed, budget) key is present are not re-executed *)
  stop_after : int option;
      (** execute at most this many {e new} scenarios, then return
          [Partial] — deterministic interruption, used by the resume
          tests and [--max-scenarios] *)
  progress : (done_scenarios:int -> total:int -> unit) option;
      (** called after each scenario completes, {e outside} the sink lock
          (with a snapshot taken under it) — a raising or slow callback
          cannot deadlock the other workers. Not replayed when a retried
          scenario finds its result already recorded. *)
  max_rounds : int option;
      (** per-scenario engine-round budget ({!Lbc_sim.Engine.with_fuel});
          an execution that exhausts it gets a {!Scenario.Timed_out}
          verdict instead of hanging its worker domain *)
  deadline_s : float option;
      (** per-scenario wall-clock deadline: a watchdog domain zeroes the
          overdue execution's fuel cell
          ({!Lbc_sim.Engine.current_fuel_cell}), converting the hang into
          a {!Scenario.Timed_out} verdict. Off by default — see the
          determinism note above. *)
  retries : int;
      (** infrastructure-failure retries per scenario (default 1), with
          capped exponential backoff and deterministic jitter
          ({!Pool.run}); a scenario still failing is quarantined. Unused in
          strict mode, which never retries. *)
  strict : bool;
      (** [false] (default): self-healing — scenario crashes and
          timeouts become verdicts, a scenario exhausting its retries at
          the infrastructure level is quarantined, and the campaign runs
          to [Complete]. [true]: fail fast — the first crashed or
          timed-out scenario (or infrastructure failure) aborts the pool
          with {!Pool.Task_failed}, whose message names the scenario
          ([attempts = 1]: nothing is retried). Strict runs use the same
          scheduler as the default mode, so [deadline_s] still arms the
          watchdog (an overdue scenario aborts as timed out) and
          [kill_after_verdicts] still raises {!Journal.Killed}. *)
  kill_after_verdicts : (int * bool) option;
      (** crash-injection hook for the kill-point fuzzer: [(k, torn)]
          raises {!Journal.Killed} at the [k]-th journal append of this
          invocation, first writing a torn half-record when [torn].
          Requires [journal]; ignored without one. *)
}

val default : config
(** [domains = 1], [base_seed = 0], no journal, no cache, no stop, no
    progress callback, no round budget, no deadline, [retries = 1], not
    strict, no kill point. *)

type outcome =
  | Complete of Artifact.t
  | Partial of { completed : int; total : int; recovery : Journal.recovery }
      (** scenarios completed so far (including resumed ones) / total;
          returned only under [stop_after]. [recovery] reports what the
          journal load found (adopted records, truncated bytes, first
          corrupt record). *)

val run : ?config:config -> Grid.t -> outcome
(** Enumerate, (maybe) recover + resume, execute, aggregate.

    Containment (non-strict mode): scenario exceptions — including
    {!Lbc_sim.Engine.Model_violation} and [Stack_overflow] — are caught
    in {!Scenario.execute} and recorded as {!Scenario.Crashed} verdicts
    with a reproduction command; executions exceeding [max_rounds] (or an
    armed [deadline_s]) become {!Scenario.Timed_out}; a scenario that
    fails beyond that through every retry (infrastructure errors) is
    quarantined with a {!Scenario.crashed_verdict}. The campaign
    therefore always reaches [Complete] (absent [stop_after]), and the
    deterministic byte-identity contract holds for crashed and timed-out
    verdicts too. Quarantined verdicts are not journaled, so a resumed
    run retries them.

    Raises {!Journal.Killed} when [kill_after_verdicts] fires — the
    simulated crash the fuzzer resumes from — and {!Pool.Task_failed} in
    strict mode. *)

val run_exn : ?config:config -> Grid.t -> Artifact.t
(** {!run}, raising [Failure] on [Partial] — for callers that set no
    [stop_after]. The failure message includes the completed/total counts
    and, when recovery dropped journal bytes, how many and at which
    record. *)
