(* Orchestration: walk the roots, lint every .ml/.mli, apply inline
   suppressions then the baseline, render human or JSON output, and map
   the result onto the stable exit-code contract:

     0  no actionable findings
     1  actionable findings remain
     2  configuration or parse error (unreadable root/baseline, syntax
        error in a linted file)

   The walk is deterministic: directory entries are sorted, and the
   final finding list is sorted by (file, line, col, rule). *)

let default_roots = [ "lib"; "bin"; "bench"; "test"; "examples" ]

(* [lint_fixtures] and [deep_fixtures] hold deliberately-bad snippets
   for the linter's own test suite; descending into them would fail the
   repo gate by design. *)
let skip_dirs = [ "_build"; ".git"; "lint_fixtures"; "deep_fixtures" ]

let is_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let walk roots =
  let rec dir acc path =
    let entries = List.sort String.compare (Array.to_list (Sys.readdir path)) in
    List.fold_left
      (fun acc name ->
        let child = Filename.concat path name in
        if Sys.is_directory child then
          if List.mem name skip_dirs then acc else dir acc child
        else if is_source name then child :: acc
        else acc)
      acc entries
  in
  let one (acc, errs) root =
    match Sys.is_directory root with
    | true -> (dir acc root, errs)
    | false -> ((if is_source root then root :: acc else acc), errs)
    | exception Sys_error m -> (acc, m :: errs)
  in
  let files, errs = List.fold_left one ([], []) roots in
  (List.sort String.compare files, List.rev errs)

type deep_stats = { units : int; cache_hits : int; cache_misses : int }

type outcome = {
  files : int;
  actionable : Rules.finding list;
  suppressed : Rules.finding list;
  baselined : Rules.finding list;
  stale : (string * string * int) list;
  errors : string list;
  deep : deep_stats option;  (* present when the deep pass ran *)
}

let lint_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> ([], [], Some m)
  | text ->
      let dirs, badsup = Suppress.scan ~path text in
      let raw = Check.file ~path text in
      let suppressed, kept =
        List.partition
          (fun (f : Rules.finding) ->
            (match f.Rules.rule with
            | Rules.Badsup | Rules.Parse -> false
            | _ -> true)
            && Suppress.covers dirs f.Rules.rule f.Rules.line)
          raw
      in
      (List.sort Rules.compare_finding (badsup @ kept), suppressed, None)

(* Deep findings carry build-root-relative paths; when linting from the
   repo root these coincide with the shallow walk's paths, so one root
   filter serves both. An empty [roots] list (only reachable by calling
   [analyze] directly — [main] substitutes the defaults first) means "no
   filter", which is the hook the fixture tests use. *)
let under_roots roots (f : Rules.finding) =
  roots = []
  || List.exists
       (fun r ->
         f.Rules.file = r
         || String.length f.Rules.file > String.length r
            && String.sub f.Rules.file 0 (String.length r + 1) = r ^ "/")
       roots

let analyze ?(baseline = Baseline.empty) ?(deep = false)
    ?(deep_build_dirs = [ "_build/default" ]) ?(deep_source_root = ".")
    ?deep_cache ~roots () =
  let files, errors = walk roots in
  let kept, suppressed, errors =
    List.fold_left
      (fun (kept, sup, errs) path ->
        let k, s, err = lint_file path in
        (k @ kept, s @ sup, match err with Some m -> m :: errs | None -> errs))
      ([], [], errors) files
  in
  let kept, suppressed, errors, deep_stats =
    if not deep then (kept, suppressed, errors, None)
    else begin
      let r =
        Deep.run
          ~skip_components:[ "lint_fixtures"; "deep_fixtures" ]
          ?cache_dir:deep_cache ~build_dirs:deep_build_dirs
          ~source_root:deep_source_root ()
      in
      ( List.filter (under_roots roots) r.Deep.kept @ kept,
        List.filter (under_roots roots) r.Deep.suppressed @ suppressed,
        errors @ r.Deep.errors,
        Some
          {
            units = r.Deep.units;
            cache_hits = r.Deep.cache_hits;
            cache_misses = r.Deep.cache_misses;
          } )
    end
  in
  let kept = List.sort Rules.compare_finding kept in
  let actionable, baselined, stale = Baseline.apply baseline kept in
  {
    files = List.length files;
    actionable;
    suppressed = List.sort Rules.compare_finding suppressed;
    baselined;
    stale;
    errors;
    deep = deep_stats;
  }

let has_parse_error o =
  List.exists (fun (f : Rules.finding) -> f.Rules.rule = Rules.Parse) o.actionable

let exit_code o =
  if o.errors <> [] || has_parse_error o then 2
  else if
    List.exists (fun (f : Rules.finding) -> Rules.gating f.Rules.rule) o.actionable
  then 1
  else 0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_finding fmt (f : Rules.finding) =
  Format.fprintf fmt "%s:%d:%d: %s %s: %s" f.Rules.file f.Rules.line
    f.Rules.col (Rules.id f.Rules.rule)
    (Rules.severity_string (Rules.severity f.Rules.rule))
    f.Rules.message

let render_human fmt o =
  List.iter (fun m -> Format.fprintf fmt "lbclint: error: %s@." m) o.errors;
  List.iter (fun f -> Format.fprintf fmt "%a@." pp_finding f) o.actionable;
  List.iter
    (fun (rid, file, n) ->
      Format.fprintf fmt
        "lbclint: note: stale baseline entry %s %s (%d unmatched); consider \
         --write-baseline@."
        rid file n)
    o.stale;
  let errs, warns =
    List.partition
      (fun (f : Rules.finding) -> Rules.severity f.Rules.rule = Rules.Error)
      o.actionable
  in
  Format.fprintf fmt
    "lbclint: %d finding%s (%d error%s, %d warning%s), %d suppressed, %d \
     baselined, %d file%s@."
    (List.length o.actionable)
    (if List.length o.actionable = 1 then "" else "s")
    (List.length errs)
    (if List.length errs = 1 then "" else "s")
    (List.length warns)
    (if List.length warns = 1 then "" else "s")
    (List.length o.suppressed) (List.length o.baselined) o.files
    (if o.files = 1 then "" else "s")

let render_json fmt o =
  let finding_json (f : Rules.finding) =
    Printf.sprintf
      "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
      (Rules.id f.Rules.rule)
      (Rules.severity_string (Rules.severity f.Rules.rule))
      (Sarif.escape f.Rules.file) f.Rules.line f.Rules.col
      (Sarif.escape f.Rules.message)
  in
  let stale_json (rid, file, n) =
    Printf.sprintf "{\"rule\":\"%s\",\"file\":\"%s\",\"unmatched\":%d}" rid
      (Sarif.escape file) n
  in
  (* lbclint/3: adds the "deep" stats object (null when the deep pass
     did not run). /2 documents are no longer emitted; consumers that
     pinned "lbclint/2" must update — the change is additive apart from
     the format tag. *)
  let deep_json =
    match o.deep with
    | None -> "null"
    | Some d ->
        Printf.sprintf
          "{\"units\":%d,\"cache_hits\":%d,\"cache_misses\":%d}" d.units
          d.cache_hits d.cache_misses
  in
  Format.fprintf fmt
    "{\"format\":\"lbclint/3\",\"files\":%d,\"findings\":[%s],\"suppressed\":%d,\"baselined\":%d,\"stale\":[%s],\"errors\":[%s],\"deep\":%s,\"exit\":%d}@."
    o.files
    (String.concat "," (List.map finding_json o.actionable))
    (List.length o.suppressed) (List.length o.baselined)
    (String.concat "," (List.map stale_json o.stale))
    (String.concat ","
       (List.map (fun m -> "\"" ^ Sarif.escape m ^ "\"") o.errors))
    deep_json (exit_code o)

(* ------------------------------------------------------------------ *)
(* Entry point of bin/lbclint                                         *)
(* ------------------------------------------------------------------ *)

type config = {
  roots : string list;
  baseline : string option;
  write_baseline : bool;
  update_baseline : bool;
  json : bool;
  deep : bool;
  sarif : string option;
  deep_cache : string option;
}

let emit_sarif config o =
  match config.sarif with
  | None -> ()
  | Some path ->
      Sarif.write ~path ~actionable:o.actionable ~suppressed:o.suppressed
        ~baselined:o.baselined

let main ?(fmt = Format.std_formatter) config =
  let roots = if config.roots = [] then default_roots else config.roots in
  let baseline_result =
    match config.baseline with
    | Some path when Sys.file_exists path -> Baseline.load ~path
    | Some _ | None -> Ok Baseline.empty
  in
  match baseline_result with
  | Error m ->
      Format.fprintf fmt "lbclint: error: %s@." m;
      2
  | Ok baseline ->
      if config.write_baseline && config.update_baseline then begin
        Format.fprintf fmt
          "lbclint: error: --write-baseline and --update-baseline are \
           mutually exclusive@.";
        2
      end
      else if config.write_baseline then begin
        let o =
          analyze ~deep:config.deep ?deep_cache:config.deep_cache ~roots ()
        in
        let entries, rejected = Baseline.of_findings o.actionable in
        match config.baseline with
        | None ->
            Format.fprintf fmt
              "lbclint: error: --write-baseline requires --baseline FILE@.";
            2
        | Some path ->
            Baseline.save ~path entries;
            Format.fprintf fmt
              "lbclint: wrote %d baseline entr%s to %s (%d finding%s not \
               baselinable)@."
              (List.length entries)
              (if List.length entries = 1 then "y" else "ies")
              path (List.length rejected)
              (if List.length rejected = 1 then "" else "s");
            List.iter (fun f -> Format.fprintf fmt "%a@." pp_finding f) rejected;
            if rejected <> [] || o.errors <> [] then 1 else 0
      end
      else if config.update_baseline then begin
        match config.baseline with
        | None ->
            Format.fprintf fmt
              "lbclint: error: --update-baseline requires --baseline FILE@.";
            2
        | Some path ->
            (* Analyze WITHOUT absorbing, shrink the ledger to what the
               run still produces, then gate against the shrunk ledger.
               Entries are never added: growing the debt stays a
               deliberate --write-baseline act. *)
            let raw =
              analyze ~deep:config.deep ?deep_cache:config.deep_cache ~roots ()
            in
            let updated, dropped = Baseline.update baseline raw.actionable in
            Baseline.save ~path updated;
            List.iter
              (fun (rid, file, n) ->
                Format.fprintf fmt
                  "lbclint: dropped stale baseline count %s %s (%d)@." rid
                  file n)
              dropped;
            Format.fprintf fmt
              "lbclint: updated %s: %d entr%s kept, %d shrunk or dropped@."
              path (List.length updated)
              (if List.length updated = 1 then "y" else "ies")
              (List.length dropped);
            let actionable, baselined, stale =
              Baseline.apply updated raw.actionable
            in
            let o = { raw with actionable; baselined; stale } in
            emit_sarif config o;
            if config.json then render_json fmt o else render_human fmt o;
            exit_code o
      end
      else begin
        let o =
          analyze ~baseline ~deep:config.deep ?deep_cache:config.deep_cache
            ~roots ()
        in
        emit_sarif config o;
        if config.json then render_json fmt o else render_human fmt o;
        exit_code o
      end
