(** Discovery and loading of dune-produced [.cmt]/[.cmti] typed ASTs.

    The deep pass runs over binary annotations rather than re-typing
    sources: dune already emits them for every compilation unit (the
    [-bin-annot] flag is always on), so a plain [dune build] is the only
    prerequisite. *)

type unit_info = {
  unit_name : string;
      (** compilation unit name as dune mangles it, e.g.
          ["Lbc_campaign__Runner"], or ["Dune__exe__Lbcast"] for an
          executable *)
  impl_source : string option;
      (** source path relative to the build root, e.g.
          ["lib/campaign/runner.ml"] *)
  intf_source : string option;
  structure : Typedtree.structure option;  (** from the [.cmt] *)
  signature : Typedtree.signature option;  (** from the [.cmti] *)
}

val discover : string list -> string list * string list
(** The walk alone: sorted [.cmt]/[.cmti] paths under the given
    directories plus directory errors, nothing deserialised — the
    incremental cache digests files at this stage and only loads the
    groups it cannot serve from the store. *)

val predicted_unit_name : string -> string
(** Unit name recovered from an annotation file path (dune lowercases
    only the first letter of the file name): ["Lbc_campaign__Runner"]
    from [".../lbc_campaign__Runner.cmt"]. *)

val load_paths : string list -> unit_info list * string list
(** Load exactly the given annotation files, merging [.cmt]/[.cmti]
    pairs by unit name. Generated ([.ml-gen]) units are dropped; no
    [skip_components] filtering — the caller filters summaries. *)

val source_skipped : skip_components:string list -> string -> bool
(** Does this source path contain a skipped component? Exposed so the
    deep orchestrator can apply the filter to cached summaries. *)
