(** SARIF 2.1.0 output ([--sarif FILE]).

    One run, the full rule registry as reportingDescriptors, one result
    per finding; suppressed/baselined findings are emitted with
    [suppressions] of kind [inSource]/[external] respectively. *)

val escape : string -> string
(** JSON string-literal escaping (quotes, backslashes, control
    characters), shared with the driver's [--json] report. *)

val render :
  actionable:Rules.finding list ->
  suppressed:Rules.finding list ->
  baselined:Rules.finding list ->
  string
(** The document text (trailing newline included). *)

val write :
  path:string ->
  actionable:Rules.finding list ->
  suppressed:Rules.finding list ->
  baselined:Rules.finding list ->
  unit
(** Atomic write via {!Lbc_store.Store.write_atomic}. *)
