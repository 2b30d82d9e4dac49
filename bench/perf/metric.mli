(** The benchmark's metric vocabulary: every metric it prints, with the
    unit and direction that [BENCHMARK.json] declares for it. *)

type better = Higher | Lower

type def = { name : string; unit_ : string; better : better }

val end_to_end : def list
(** Printed by [lbcbench run] (tracing off), in this order. *)

val per_layer : def list
(** Printed by [lbcbench trace], in this order. *)

type value = { def : def; value : float; n : int }
(** One measured metric; [n] is its sample count (scenarios, passes or
    repetitions — whatever the value summarises). *)

val result_json :
  correct:bool ->
  attempted:int ->
  failed:int ->
  value list ->
  Lbc_campaign.Jsonio.t
(** The one-line result object:
    [{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}]. *)

val print_table : value list -> unit
(** One line per metric: name, value, unit and sample count. *)
