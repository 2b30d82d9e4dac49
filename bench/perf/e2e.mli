(** [lbcbench run]: the end-to-end measurement of one workload at one
    seed, tracing off.

    After set-up, the run executes passes of the workload's grid — each
    one [Runner.run_exn] at one domain plus [Artifact.save], as
    [lbcast campaign] does — until [seconds] have elapsed (at least one
    pass). At one domain the runner calls [progress] on the calling domain
    right after each scenario, so the gap between two callbacks is that
    scenario's service time in a closed loop with one caller.

    The metrics take each scenario's median service time over the passes:
    [scenario_p50_ms]/[scenario_p90_ms] are nearest-rank percentiles of
    those medians, and [scenarios_per_s] divides the pass size by their
    sum plus the median time from the last scenario to the end of
    [Artifact.save]. [setup_s] is the median of several set-ups (grid
    enumeration and precondition checks). *)

type result = {
  workload : string;
  seed : int;
  seconds : float;
  passes : int;
  attempted : int;  (** scenarios executed, over all passes *)
  problems : string list;
      (** one line per failed check (a failed scenario or pass check); the
          run's failure count is their number *)
  values : Metric.value list;  (** the {!Metric.end_to_end} metrics *)
  service_ms : float list;  (** every scenario's service time *)
  counters : (string * int) list;
      (** the first pass's deterministic artifact counters, as
          ["algo.counter"] *)
  digest : string;
      (** FNV-1a of the first pass's [Artifact.deterministic_string] *)
}

val run : ?limit:int -> Workloads.t -> seed:int -> seconds:float -> result
(** [limit] keeps only the first [limit] scenarios of the grid. *)

val check :
  Workloads.t ->
  cold:Lbc_campaign.Artifact.t ->
  ?warm:Lbc_campaign.Artifact.t ->
  unit ->
  string list
(** The output checks of one pass, one line per failure. Any crashed,
    timed-out or quarantined scenario fails; on {!Workloads.Exact}
    workloads every verdict must also be [ok]; on {!Workloads.Durable} the
    warm pass must answer every scenario from the cache and match the cold
    pass's deterministic string. *)

val sample :
  ?limit:int ->
  Workloads.t ->
  seed:int ->
  Lbc_campaign.Grid.t * Lbc_campaign.Scenario.t array
(** The grid of one pass, and its scenarios. *)

val is_a2 : Lbc_campaign.Scenario.t -> bool

val precondition_problems : Lbc_campaign.Scenario.t array -> string list
(** The tight condition ([Conditions.lbc_feasible]) and, for Algorithm 2,
    2f-connectivity, checked once per distinct (graph, f). *)

val temp_dir : unit -> string
(** A fresh directory under [Filename.get_temp_dir_name ()]. *)

val remove_tree : string -> unit
(** Delete a file or a directory tree; missing paths are ignored. *)
