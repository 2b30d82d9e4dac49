(** Order statistics and digests for benchmark samples. *)

val nearest_rank : float array -> p:float -> float
(** [nearest_rank xs ~p] is the nearest-rank [p]-quantile ([0 < p <= 1])
    of [xs]: the smallest sample with at least [p·N] samples at or below
    it. [nan] on an empty sample. [xs] need not be sorted. *)

val median : float list -> float
(** Middle value (mean of the two middle values for even sizes); [nan] on
    an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)] by the "exclusive" method of Python's
    [statistics.quantiles(xs, n=4)], so spreads computed here match those
    computed by external tooling. A single sample gives [(x, x, x)]; [nan]s
    on an empty list. *)

val fnv1a_hex : string -> string
(** 64-bit FNV-1a digest (truncated to OCaml's 63-bit int) as 16 hex
    digits. *)
