(* Discovery and loading of dune-produced binary annotation files.

   Dune writes one [.cmt] (typed implementation) and, when an interface
   exists, one [.cmti] per compilation unit under
   [_build/default/<dir>/.<lib>.objs/byte/]. The deep pass wants the
   whole program, so we walk the given directories recursively, read
   every annotation file, and keep those that correspond to a real
   source file of this repository — which drops dune's generated
   library-alias units ([.ml-gen] sources) and anything whose source
   lies in a skipped directory (the lint fixture trees, whose code is
   deliberately bad).

   The walk is deterministic: directory entries are sorted and the
   resulting unit list is sorted by (unit name, source path). A file
   that fails to load (truncated, produced by a different compiler
   version) contributes an error string rather than an exception: the
   driver maps loader errors onto exit code 2. *)

type unit_info = {
  unit_name : string;  (* e.g. "Lbc_campaign__Runner" *)
  impl_source : string option;  (* build-root-relative .ml path *)
  intf_source : string option;  (* build-root-relative .mli path *)
  structure : Typedtree.structure option;
  signature : Typedtree.signature option;
}

let is_annot name =
  Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"

let walk dirs =
  let rec dir acc path =
    match Sys.readdir path with
    | entries ->
        let entries = List.sort String.compare (Array.to_list entries) in
        List.fold_left
          (fun acc name ->
            let child = Filename.concat path name in
            if Sys.is_directory child then dir acc child
            else if is_annot name then child :: acc
            else acc)
          acc entries
    | exception Sys_error _ -> acc
  in
  let files, errs =
    List.fold_left
      (fun (acc, errs) root ->
        match Sys.is_directory root with
        | true -> (dir acc root, errs)
        | false -> (acc, (root ^ ": not a directory") :: errs)
        | exception Sys_error m -> (acc, m :: errs))
      ([], []) dirs
  in
  (List.sort String.compare files, List.rev errs)

(* Dune-generated alias modules carry a [.ml-gen] source; they contain
   nothing but module aliases and would only add noise to the graph. *)
let generated source =
  Filename.check_suffix source ".ml-gen"
  || Filename.check_suffix source ".mli-gen"

let skipped ~skip_components source =
  List.exists
    (fun c -> List.mem c skip_components)
    (String.split_on_char '/' source)

let discover dirs = walk dirs

(* Dune names an annotation file after its compilation unit with only
   the first letter lowercased ([lbc_campaign__Runner.cmt] for unit
   [Lbc_campaign__Runner], [dune__exe__Lbcast.cmt] for the executable
   wrapper), so the unit name is recoverable from the path alone —
   which is what lets the incremental cache group and key files without
   deserialising them. *)
let predicted_unit_name path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let load_paths paths =
  let tbl : (string, unit_info) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  let errs = ref [] in
  let note_error path msg = errs := (path ^ ": " ^ msg) :: !errs in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception Sys_error m -> note_error path m
      | exception Cmt_format.Error (Cmt_format.Not_a_typedtree m) ->
          note_error path ("not a typedtree: " ^ m)
      | exception _ -> note_error path "unreadable cmt file"
      | cmt -> (
          match cmt.Cmt_format.cmt_sourcefile with
          | None -> ()
          | Some source when generated source -> ()
          | Some source ->
              let name = cmt.Cmt_format.cmt_modname in
              let info =
                match Hashtbl.find_opt tbl name with
                | Some i -> i
                | None ->
                    order := name :: !order;
                    {
                      unit_name = name;
                      impl_source = None;
                      intf_source = None;
                      structure = None;
                      signature = None;
                    }
              in
              let info =
                match cmt.Cmt_format.cmt_annots with
                | Cmt_format.Implementation str ->
                    { info with impl_source = Some source;
                      structure = Some str }
                | Cmt_format.Interface sg ->
                    { info with intf_source = Some source;
                      signature = Some sg }
                | _ -> info
              in
              Hashtbl.replace tbl name info))
    (List.sort String.compare paths);
  let units =
    List.rev !order
    |> List.filter_map (Hashtbl.find_opt tbl)
    |> List.sort (fun a b -> String.compare a.unit_name b.unit_name)
  in
  (units, List.rev !errs)

let source_skipped = skipped
