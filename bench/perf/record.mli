(** Results records of [lbcbench run] and their comparison.

    A record ([lbcbench-run/1]) holds the host (cores, OCaml version,
    domains, temp directory), every end-to-end metric with its sample
    count, the raw per-scenario service times, the first pass's
    deterministic counters and its [verdict_digest]. *)

val write : path:string -> E2e.result -> unit

val compare : benchmark:string -> base:string list -> next:string list -> int
(** [compare ~benchmark ~base ~next] reads the [BENCHMARK.json] at
    [benchmark] for the bounds and prints, per workload and end-to-end
    metric, the median and quartiles of the [base] and [next] records and
    the change in the metric's worse direction against its bound. A
    metric whose spread (quartile distance over median) on either side
    exceeds its bound is "unresolved". Also checks that every record of a
    (workload, seed) carries the same counters and verdict digest.
    Returns the exit code: [0] when nothing regressed and the counts
    agree, [1] otherwise, [2] on unreadable input. *)
