(** Streaming verdict journal — the crash-survivable campaign progress
    format.

    A journal file is one JSON header line (format tag
    ["lbc-campaign-journal/1"], campaign name, scenario count, base seed,
    round budget and grid fingerprint — the identity of the run) followed
    by binary-framed records, one per completed scenario:

    {v [4-byte BE length] [JSON payload] [4-byte BE CRC32(payload)] v}

    Appends are flushed individually, so a crash loses at most the record
    being written. Recovery validates the header (a mismatch means a
    different grid: the file is discarded whole), replays every intact
    record, stops at the first framing/CRC/parse violation and physically
    truncates the torn tail so the resumed writer re-frames cleanly. *)

type header = {
  campaign : string;
  count : int;  (** scenarios in the grid *)
  base_seed : int;
  budget : int;  (** round budget; [0] when unbounded *)
  fingerprint : string;  (** {!Grid.fingerprint} of the scenario ids *)
}

type record = {
  index : int;  (** scenario index within the grid *)
  wall_s : float;  (** execution wall time (non-deterministic) *)
  algo : string;  (** {!Scenario.algo_name}, keys the stats section *)
  counters : (string * int) list;  (** sorted observability counters *)
  verdict : Scenario.verdict;
}

type recovery = {
  recovered : int;  (** intact records adopted from the file *)
  dropped_bytes : int;  (** torn/corrupt tail bytes truncated away *)
  first_corrupt : int option;
      (** 1-based ordinal of the first corrupt record, when any *)
  stale : bool;  (** the file belonged to a different grid and was
                     discarded whole *)
}

val no_recovery : recovery
(** The zero report: fresh start, nothing recovered, nothing dropped. *)

exception Killed of { appended : int }
(** Raised by {!append} when the writer's kill point fires; [appended] is
    the number of records durably written before the simulated crash. *)

val recover : path:string -> header:header -> record list * recovery
(** Load every intact record and truncate any torn tail in place (also
    deleting the file entirely when it belongs to a different grid), so a
    writer subsequently opened on [path] appends at a record boundary.
    A missing file is a fresh start. Records are returned in file order;
    the caller deduplicates by index. *)

val read : path:string -> header:header -> record list * recovery
(** Like {!recover} but strictly read-only: no truncation, no deletion.
    For inspection and tests. *)

type kill = {
  after : int;  (** crash before appending record number [after] (0-based) *)
  torn : bool;  (** also write a half record first — a torn tail *)
}

type writer

val open_writer :
  path:string -> header:header -> ?kill:kill -> unit -> writer
(** Open [path] for appending, writing the header line first if the file
    is empty or absent. Recovery must run first — the writer does not
    validate existing content. [kill] arms the crash-injection shim used
    by the kill-point fuzzer and [--kill-after-verdicts]. *)

val append : writer -> record -> unit
(** Frame, write and flush one record. Raises {!Killed} (after optionally
    tearing the file) when the armed kill point is reached. *)

val close : writer -> unit

val remove : path:string -> unit
(** Delete the journal (after the artifact is safely written). Missing
    files are ignored. *)
