(** Orchestration: walk, lint, suppress, baseline, render, exit code.

    Exit-code contract (stable; ci.sh and the fixture tests rely on it):
    [0] clean, [1] actionable gating findings ([Rules.gating] — the
    advisory X1 never fails the gate), [2] configuration, parse or
    annotation-load error. *)

val default_roots : string list
(** [lib; bin; bench; test; examples] *)

type deep_stats = { units : int; cache_hits : int; cache_misses : int }

type outcome = {
  files : int;  (** number of files linted by the shallow pass *)
  actionable : Rules.finding list;
      (** survived suppression and baseline — the gating ones among
          these fail the gate *)
  suppressed : Rules.finding list;
  baselined : Rules.finding list;
  stale : (string * string * int) list;
      (** baseline entries with unmatched count: (rule id, file, n) *)
  errors : string list;  (** unreadable roots/files, cmt load failures *)
  deep : deep_stats option;  (** present when the deep pass ran *)
}

val analyze :
  ?baseline:Baseline.t ->
  ?deep:bool ->
  ?deep_build_dirs:string list ->
  ?deep_source_root:string ->
  ?deep_cache:string ->
  roots:string list ->
  unit ->
  outcome
(** Deterministic: files are discovered and reported in sorted order.
    Directories named [_build], [.git], [lint_fixtures] or
    [deep_fixtures] are skipped during recursion (explicit roots are
    always entered).

    With [~deep:true] the whole-program pass also runs over the
    [.cmt]/[.cmti] files under [deep_build_dirs] (default
    [["_build/default"]], i.e. lint from the repo root after a build);
    its findings are filtered to [roots] and merged before the baseline
    is applied. An empty [roots] list walks nothing and filters nothing
    — the deep fixture tests' hook. [deep_source_root] (default ["."])
    locates sources for the inline-directive scan. [deep_cache] names
    the incremental summary-cache directory ({!Inc_cache}). *)

val exit_code : outcome -> int

val render_json : Format.formatter -> outcome -> unit
(** Format ["lbclint/3"]: lbclint/2 plus a ["deep"] stats object
    ([units]/[cache_hits]/[cache_misses], [null] when the deep pass did
    not run). /2 documents are no longer emitted. *)

type config = {
  roots : string list;  (** empty means [default_roots] *)
  baseline : string option;
  write_baseline : bool;  (** regenerate [baseline] instead of gating *)
  update_baseline : bool;
      (** shrink [baseline] to the current run (drop stale counts,
          never add) and gate against the shrunk ledger *)
  json : bool;
  deep : bool;  (** also run the whole-program E1-E4/M1/X1 pass *)
  sarif : string option;  (** also write SARIF 2.1.0 to this path *)
  deep_cache : string option;  (** incremental summary-cache directory *)
}

val main : ?fmt:Format.formatter -> config -> int
(** Run end to end, print to [fmt] (default stdout), return the exit
    code (not calling [exit]). A missing baseline file is treated as
    empty so that [--write-baseline] can create it. *)
