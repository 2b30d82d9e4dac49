(** In-memory timing spans, written out at exit as Chrome Trace Event
    JSON (loadable in Perfetto or chrome://tracing).

    Spans are taken from outside the layers, around calls into their
    public functions; nothing inside [lib/] is instrumented. Timestamps
    come from the monotonic {!Lbc_campaign.Clock} and are relative to the
    recorder's creation. *)

type t

val create : unit -> t
(** A recorder that keeps spans. *)

val set_keep : t -> bool -> unit
(** Stop (or resume) keeping spans; {!time} still measures. Used so that
    only the first of several repeated measurement rounds lands in the
    trace file. *)

val time :
  t -> cat:string -> ?args:(string * float) list -> string -> (unit -> 'a) ->
  'a * float
(** [time t ~cat name f] runs [f], records a complete span named [name] in
    category [cat] (the layer), and returns [f]'s result with its
    duration in seconds. *)

val add :
  t -> cat:string -> ?args:(string * float) list -> string ->
  start_s:float -> dur_s:float -> unit
(** Record an already-measured span ([start_s] on the
    {!Lbc_campaign.Clock} timeline). *)

val length : t -> int

val write : t -> path:string -> unit
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}], events in start
    order, one thread and process. *)
