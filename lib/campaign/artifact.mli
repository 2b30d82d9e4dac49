(** Versioned campaign result artifacts.

    An artifact records the full outcome of a campaign: the grid identity
    (name, scenario count, base seed, grid fingerprint), every scenario
    verdict in enumeration order, and a [run] section with wall-clock
    timing, the domain count and the scheduler/cache/recovery reports.

    Everything {e except} the [run] section and crashed verdicts'
    backtraces (which name source lines) is a pure function of the grid
    and the base seed — {!deterministic_string} renders exactly that
    part, and is byte-identical across domain counts, scheduling orders,
    work-stealing interleavings, cache states and journal/resume
    boundaries. The [run] section is where all timing and environment
    variance lives, by construction. *)

type cache_info = {
  hits : int;  (** scenarios answered from the result cache *)
  misses : int;  (** scenarios looked up but absent (then executed) *)
  stores : int;  (** verdicts persisted to the cache by this run *)
}
(** Result-cache tallies. Deliberately in the [run] section: they depend
    on what happened to be in the cache directory, not on the grid. Zero
    across the board when no cache is configured. *)

type steal_info = {
  steals : int;  (** tasks executed by a non-owner worker *)
  retried : int;  (** retry attempts across all scenarios *)
}

type recovery_info = {
  recovered_records : int;  (** journal records adopted on resume *)
  dropped_bytes : int;  (** torn/corrupt journal tail truncated away *)
  first_corrupt_record : int option;
      (** 1-based ordinal of the first corrupt journal record; [None]
          when the journal was wholly intact *)
}

type run_info = {
  domains : int;
  wall_s : float;
      (** wall-clock of the completing invocation (monotonic clock,
          clamped at [0.0] on parse) *)
  slowest : (int * float) list;
      (** the slowest scenarios of this invocation as
          [(index, wall_s)], slowest first — the straggler profile the
          work-stealing scheduler exists for (resumed/cached scenarios
          do not appear; their cost was not paid here) *)
  resumed_scenarios : int;  (** scenarios adopted from the journal *)
  cache : cache_info;
  steal : steal_info;
  recovery : recovery_info;
}

type quarantined = {
  index : int;  (** scenario index within the grid *)
  id : string;  (** {!Scenario.id} of the quarantined scenario *)
  message : string;
      (** exception message of the final (post-retry) failure, prefixed
          by earlier attempts' messages when they differed *)
}
(** A scenario whose execution failed at the infrastructure level
    (journal I/O, progress callback, …) through every retry and was
    quarantined by the self-healing runner. It appears in [verdicts] as
    a {!Scenario.Crashed} entry, so the verdict array stays complete. *)

type t = {
  campaign : string;
  count : int;
  base_seed : int;
  grid_fingerprint : string;
  verdicts : Scenario.verdict array;  (** sorted by scenario index *)
  stats : Stats.t;
      (** per-algorithm counter aggregates; part of the deterministic
          portion — byte-identical across domain counts *)
  quarantined : quarantined list;  (** sorted by scenario index *)
  run : run_info;
}

val version : int
(** Artifact format version; serialized as ["lbc-campaign/<version>"]. *)

val no_cache_info : cache_info
(** All-zero cache tallies, for a run without a cache. *)

type summary = {
  total : int;
  checked : int;  (** verdicts whose execution completed and was judged *)
  ok : int;
  violations : int;  (** [checked - ok] *)
  agreement_failures : int;
  validity_failures : int;
  termination_failures : int;
  decision_mismatches : int;
      (** honest inputs unanimous but the decision differed *)
  crashed : int;  (** {!Scenario.Crashed} verdicts *)
  timeouts : int;  (** {!Scenario.Timed_out} verdicts *)
  quarantined : int;
  rounds_max : int;
  transmissions_total : int;
}
(** Property counters (agreement/validity/termination/decision) tally
    {e checked} verdicts only: a crashed or timed-out scenario is
    unjudged, not a property violation. *)

val summarize : t -> summary
val pp_summary : Format.formatter -> summary -> unit

type sim_entry = {
  family : string;
      (** algorithm and graph segments of the scenario id plus the
          [net=] segment when present, e.g. ["a1|cycle:7|net=wan"] *)
  scenarios : int;  (** checked verdicts in the family *)
  p50_ns : int;  (** median simulated wall-time, ns (nearest-rank) *)
  p99_ns : int;
  max_ns : int;
}

val sim_stats : t -> sim_entry list
(** Per-family simulated-time percentiles over checked verdicts, sorted
    by family name. Families whose simulated time is identically zero
    (no network profile, or the ideal one) are omitted — a latency-free
    campaign has [sim_stats = []] and serializes a [sim] section of
    [[]], keeping its deterministic bytes independent of the network
    layer. Derived from [verdicts]; serialized in the deterministic
    portion as the [sim] section. *)

val to_string : t -> string
(** Full JSON rendering, including the [run] section. *)

val deterministic_string : t -> string
(** JSON rendering of everything except the [run] section and crashed
    verdicts' backtraces — the byte-comparable portion. Two campaign runs
    over the same grid and base seed produce identical
    [deterministic_string]s regardless of domain count or interruption,
    and a crash backtrace (which names source lines) cannot move them. *)

val of_string : string -> (t, string) result
(** Parse either rendering (a missing [run] section parses with zeroed
    run info). Rejects artifacts with a different format version. *)

val save : path:string -> t -> unit
val load : path:string -> (t, string) result
