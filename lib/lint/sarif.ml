(* SARIF 2.1.0 emitter.

   Minimal but valid static-analysis interchange: one run, the driver's
   rule registry as reportingDescriptors, one result per finding.
   Suppressed and baselined findings are included with a [suppressions]
   array ([inSource] for inline directives, [external] for baseline
   entries) so SARIF consumers show them as reviewed rather than
   dropping them; actionable findings carry an empty suppression list's
   absence, which is the spec's "not suppressed".

   Hand-rolled serialisation like the rest of the linter: the schema
   subset is small and flat enough that a JSON library would be all
   ceremony. Column convention: compiler locations are 0-based, SARIF
   is 1-based. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let level_of rule =
  match Rules.severity rule with
  | Rules.Error -> "error"
  | Rules.Warning -> "warning"

let rule_json rule =
  Printf.sprintf
    "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"defaultConfiguration\":{\"level\":\"%s\"}}"
    (Rules.id rule)
    (escape (Rules.describe rule))
    (level_of rule)

let all_rules = Rules.all @ Rules.deep @ [ Rules.Badsup; Rules.Parse ]

type suppression_kind = Not_suppressed | In_source | External

let result_json ~suppression (f : Rules.finding) =
  let suppressions =
    match suppression with
    | Not_suppressed -> ""
    | In_source -> ",\"suppressions\":[{\"kind\":\"inSource\"}]"
    | External -> ",\"suppressions\":[{\"kind\":\"external\"}]"
  in
  Printf.sprintf
    "{\"ruleId\":\"%s\",\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]%s}"
    (Rules.id f.Rules.rule)
    (level_of f.Rules.rule)
    (escape f.Rules.message)
    (escape f.Rules.file)
    f.Rules.line (f.Rules.col + 1) suppressions

let render ~actionable ~suppressed ~baselined =
  let results =
    List.map (result_json ~suppression:Not_suppressed) actionable
    @ List.map (result_json ~suppression:In_source) suppressed
    @ List.map (result_json ~suppression:External) baselined
  in
  Printf.sprintf
    "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"lbclint\",\"version\":\"3\",\"informationUri\":\"https://github.com/local/lbcast\",\"rules\":[%s]}},\"results\":[%s]}]}\n"
    (String.concat "," (List.map rule_json all_rules))
    (String.concat "," results)

let write ~path ~actionable ~suppressed ~baselined =
  Lbc_store.Store.write_atomic ~path (render ~actionable ~suppressed ~baselined)
