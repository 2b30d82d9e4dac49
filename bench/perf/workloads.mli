(** The benchmark's workloads.

    A workload is a campaign grid built from the workload seed, executed
    in {e passes}: one pass is one [Runner.run_exn] at one domain followed
    by [Artifact.save] — exactly what [lbcast campaign] does. The seed
    derives every random choice; the program only ever sees the generated
    scenarios. *)

type kind =
  | Exact
      (** perfect synchrony, no latency model: Theorems 5.1/5.6 apply, so
          every verdict must be [ok] *)
  | Durable
      (** chaos and latency scenarios run through a journal and a fresh
          result cache (the cold pass); a warm pass over the filled cache
          must reproduce the cold artifact byte for byte *)

type t = {
  name : string;
  kind : kind;
  grid : seed:int -> Lbc_campaign.Grid.t;  (** the scenarios of one pass *)
  base_seed : seed:int -> pass:int -> int;  (** the runner's base seed *)
}

val fig1b_a2 : t
(** Algorithm 2 on Figure 1(b) at f = 2 under five strategies: many paths
    per node pair, so report floods, attribution and packing do the work. *)

val cycle_a2 : n:int -> t
(** Algorithm 2 on an [n]-cycle at f = 1 (3n + 1 rounds, long path
    annotations): the Theorem 5.6 scaling regime — flood, fault discovery
    and disjoint paths. Registered at [n = 64], where node ids pass one
    bitset word. *)

val cycle5_exhaustive : t
(** The E1 grid (3520 sub-millisecond scenarios a pass): per-scenario
    fixed costs dominate — graph build, obs recorder, engine dispatch,
    runner bookkeeping. *)

val durable_chaos : t
(** The edeg and e15 grids (chaos and latency profiles on cycle:7)
    through a journal and result cache: the only workload on the chaos,
    net and persistence paths. *)

val all : t list
(** [fig1b-a2], [cycle64-a2], [cycle5-exhaustive], [durable-chaos]. *)

val find : string -> t option
