(** Content-addressed store of per-unit {!Callgraph.summary} values.

    Key = annotation-file digests + the digest of the sorted set of all
    unit names in the program (the call-graph-closure invalidation key:
    canonicalisation of references in ANY unit can change when the name
    set changes) + format salt + compiler version. A warm deep lint
    re-walks only the units whose key misses. Files live in a
    {!Lbc_store.Store}, whose digest check turns a corrupt file into a
    miss before any byte reaches [Marshal]. *)

type t

val create : dir:string -> t
(** Opens (creating if needed) the cache directory. *)

val hits : t -> int
val misses : t -> int

val names_digest : string list -> string
(** Digest of the sorted unit-name set. *)

val key : unit_name:string -> paths:string list -> names_digest:string -> string
(** Cache key for one unit's annotation file group. *)

val find : t -> key:string -> Callgraph.summary option option
(** [Some payload] on hit ([payload = None] is the tombstone for a
    group that loads to no unit); [None] on miss. *)

val store : t -> key:string -> Callgraph.summary option -> unit
