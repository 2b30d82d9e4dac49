(* Incremental analysis cache for the deep pass.

   The expensive part of a deep lint is deserialising and walking every
   [.cmt]/[.cmti]; the result of that work per unit — a
   {!Callgraph.summary} — is plain data, and what it depends on is
   fully explicit:

   - the unit's own annotation file contents (MD5 digests);
   - the set of compilation unit names in the program, because path
     canonicalisation folds [A.B.c] onto [A__B.c] only when [A__B] is a
     known unit — adding or removing ANY unit can change how references
     in an unchanged unit resolve. Digesting the sorted name set gives
     a whole-closure invalidation key: cheap, and conservatively
     correct (renames invalidate everything, edits invalidate only the
     edited unit);
   - the summary format itself ([salt], bumped on layout change) and
     the compiler version (Marshal is not stable across versions).

   Storage is Lbc_store.Store, shared with lib/campaign/cache.ml: it
   re-verifies the key and an MD5 of the payload before handing bytes
   back, so [Marshal.from_string] only ever sees bytes this codec wrote
   under the same key — never a corrupt or foreign file.

   The payload is a [summary option]: [None] is the tombstone for an
   annotation group that loads to nothing (dune's generated alias
   units), so warm runs skip even the "read it to learn it's skippable"
   step. *)

module Store = Lbc_store.Store

let format_tag = "lbclint-sum/2"

(* Bump when Callgraph.summary or the walk's semantics change. *)
let analyzer_salt = "3"

type t = Store.t

let create = Store.create
let hits = Store.hits
let misses = Store.misses

let digest_of path =
  match Digest.file path with
  | d -> Digest.to_hex d
  | exception Sys_error _ -> "unreadable"

(* [paths] are the unit's annotation files (its .cmt and .cmti);
   [names_digest] covers the whole closure. *)
let key ~unit_name ~paths ~names_digest =
  String.concat "|"
    ([ format_tag; analyzer_salt; Sys.ocaml_version; unit_name ]
    @ List.map
        (fun p -> Filename.basename p ^ "=" ^ digest_of p)
        (List.sort String.compare paths)
    @ [ "closure=" ^ names_digest ])

let names_digest names =
  Digest.to_hex
    (Digest.string (String.concat "," (List.sort String.compare names)))

let find t ~key : Callgraph.summary option option =
  Option.map
    (fun s -> (Marshal.from_string s 0 : Callgraph.summary option))
    (Store.find t ~key)

let store t ~key (payload : Callgraph.summary option) =
  Store.store t ~key (Marshal.to_string payload [])
