(** Content-addressed byte store: one file per key in a directory.

    The campaign result cache ({!Lbc_campaign.Cache}) and the deep
    lint's summary cache ({!Lbc_lint.Inc_cache}) keep only their payload
    codecs and store the encoded bytes here. A file is named by the
    key's {!fnv1a} hash and holds a format tag, the full key, the MD5 of
    the payload and the payload. {!find} returns the payload only when
    all three match, so a hash collision, another format, a torn write
    or flipped bytes are misses, never corrupt data for a decoder.

    Safe to share between worker domains and between processes: writes
    go through {!write_atomic}, and racing writers of one key write
    identical bytes. IO errors are misses or skipped stores; the store
    is an accelerator, never a correctness dependency. *)

type t

val create : dir:string -> t
(** Open a store directory, creating it if needed. A directory that
    cannot be created makes every lookup a miss. *)

val find : t -> key:string -> string option
(** The payload last stored under [key], counting a hit; [None] (a
    miss) for a missing, unreadable or mismatching file. Never
    raises. *)

val store : t -> key:string -> string -> unit
(** Persist a payload under [key] atomically, counting a store when
    the rename lands. IO errors are swallowed. *)

val hits : t -> int
val misses : t -> int
val stores : t -> int

val fnv1a : string -> int
(** FNV-1a over the bytes in OCaml's 63-bit [int] (the standard offset
    basis truncated to fit), masked non-negative with [max_int]: a
    deterministic, platform-stable hash, unlike [Hashtbl.hash]. It
    names store files and derives scenario seeds and grid
    fingerprints. *)

val write_atomic : path:string -> string -> unit
(** Write [path] through a uniquely named temp file in the same
    directory and a rename, so readers see the old content or the new
    one, never a torn file. A leftover temp file from a killed writer
    never blocks a later write. Raises [Sys_error] when the write
    fails, after removing the temp file. *)
