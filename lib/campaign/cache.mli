(** Content-addressed scenario→verdict result cache.

    A scenario's {!Scenario.id} is a pure function of its content, and an
    execution's verdict and counters are a pure function of
    (id, base seed, round budget) — the determinism contract the test
    suite and lbclint enforce. The cache exploits that: each key maps to
    one JSON entry in a {!Lbc_store.Store}, which re-verifies the key and
    a payload digest on lookup (collisions and corrupt files degrade to
    misses), letting overlapping grids and re-runs skip already-executed
    scenarios.

    Lookups and stores are safe from concurrent worker domains and even
    concurrent campaigns sharing a directory (see {!Lbc_store.Store}).

    Cache hit/miss tallies are surfaced in the artifact's [run] section —
    deliberately {e not} in the deterministic stats section, since they
    depend on what happened to be in the directory. *)

type entry = {
  algo : string;  (** {!Scenario.algo_name}, keys the stats section *)
  counters : (string * int) list;  (** sorted observability counters *)
  verdict : Scenario.verdict;
      (** [verdict.index] is positional: the caller must remap it to the
          current grid's index on a hit *)
}

type t

val create : dir:string -> t
(** Open (creating if needed) a cache directory. *)

val key : id:string -> base_seed:int -> budget:int -> string
(** The cache key for a scenario execution: id, campaign base seed and
    round budget ([0] when unbounded) — everything the verdict depends
    on — behind the entry format's version tag. *)

val find : t -> key:string -> entry option
(** Look up a key, counting a hit or a miss. Unparseable, wrong-format,
    corrupt or hash-colliding files are misses. *)

val store : t -> key:string -> entry -> unit
(** Persist an entry (atomically, via rename). IO errors are swallowed —
    the cache is an accelerator, never a correctness dependency. *)

val hits : t -> int
val misses : t -> int
val stores : t -> int
