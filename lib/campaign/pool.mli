(** The campaign's worker pool on OCaml 5 domains.

    Built on the stdlib only ([Domain], [Mutex], [Atomic] — domainslib
    is deliberately not a dependency). Campaign determinism is
    unaffected by scheduling because results are keyed by task, not by
    completion order.

    One scheduler, {!run}: per-worker contiguous blocks with
    tail-stealing (a straggler task does not idle the other workers),
    capped-exponential-backoff retries with deterministic jitter and
    quarantine of persistent failures, an optional per-task deadline
    watchdog, and a fatal-exception escape that aborts the pool — the
    runner's strict mode and the crash-injection shim both leave through
    it. With [domains <= 1] no worker domain is spawned and the calling
    domain drains every block itself, through the same worker loop and
    failure path as spawned workers, so 1-domain and N-domain campaigns
    fail identically. *)

type failure = {
  index : int;  (** position of the failing task in [tasks] *)
  description : string;  (** from [describe]; [""] if none given *)
  message : string;  (** [Printexc.to_string] of the final exception *)
  backtrace : string;  (** captured at the final raise, in the worker *)
  attempts : int;  (** executions attempted (retries + 1) *)
  prior_messages : string list;
      (** messages of the earlier failed attempts, oldest first — so a
          transient-then-different failure is distinguishable from a
          deterministic one repeating verbatim *)
}

exception Task_failed of failure
(** Registered with a printer that includes the task index, description
    and original exception message, so even an uncaught failure
    identifies the task that crashed. *)

val failure_of :
  describe:(int -> 'a -> string) ->
  attempts:int ->
  prior:string list ->
  int ->
  'a ->
  exn ->
  Printexc.raw_backtrace ->
  failure
(** [failure_of ~describe ~attempts ~prior index task exn bt]: the record
    for a task whose last attempt raised [exn] with backtrace [bt] — what
    {!run} quarantines, and what the runner's strict mode raises as
    {!Task_failed}. *)

type steal_report = {
  steals : int;  (** tasks executed by a non-owner worker *)
  retried : int;  (** retry attempts across all tasks *)
}

val run :
  ?describe:(int -> 'a -> string) ->
  ?seed:int ->
  ?retries:int ->
  ?backoff_s:float * float ->
  ?deadline:float * (int -> 'a -> unit) ->
  ?fatal:(exn -> bool) ->
  domains:int ->
  tasks:'a array ->
  (int -> 'a -> unit) ->
  steal_report * failure list
(** Execute [f index task] once for every element of [tasks], using the
    calling domain plus [domains - 1] spawned domains; returns when every
    task is done. [f] must be domain-safe (the campaign runner's task
    bodies only touch per-task state and a mutex-protected sink). Tasks
    are partitioned into contiguous per-worker blocks; each worker pops
    its own block from the front and, when empty, steals from the
    {e back} of other workers' blocks in ring order.

    A failing task is retried up to [retries] (default 1) more times,
    inline on the same worker — so the final failure set is independent
    of the domain layout — sleeping
    [min cap (base * 2^(attempt-1)) * jitter] between attempts
    ([backoff_s] is [(base, cap)], default [(0.001, 0.05)]; the jitter in
    [0.5, 1.5) is a pure splitmix64 function of [seed], task index and
    attempt). Tasks still failing are quarantined and returned sorted by
    index, with earlier attempts' messages in [prior_messages].

    [deadline = (limit_s, on_overdue)] spawns a watchdog domain that
    calls [on_overdue index task] once per task attempt exceeding
    [limit_s] of wall time. The callback runs on the watchdog domain and
    must be domain-safe; the runner uses it to zero the overdue
    execution's fuel cell, converting the hang into an ordinary timeout
    verdict. Each retry attempt restarts the task's clock.

    An exception satisfying [fatal] (default: none) aborts the pool:
    in-flight tasks finish, queued ones are abandoned, every domain is
    joined, and the exception is re-raised to the caller. The kill-point
    fuzzer routes {!Journal.Killed} through this to simulate a crash at
    an exact journal position, and the runner's strict mode routes the
    {!Task_failed} it raises for the first failing scenario. *)
