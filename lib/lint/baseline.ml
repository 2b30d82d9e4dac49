(* The checked-in grandfathering ledger. One entry per line:

     RULE  FILE  COUNT

   ('#' comments and blank lines allowed.) An entry absorbs up to COUNT
   findings of RULE in FILE, so entries survive line-number churn but a
   NEW finding of the same rule in the same file still fails the gate
   once the count is exceeded. D2/D4/D5 and the deep rules E1-E4/M1/X1
   are baselinable; D1/D3/D6 must be fixed or justified inline
   (Rules.baselinable). *)

type entry = { rule : Rules.rule; file : string; count : int }
type t = entry list

let empty = []

let parse_line ~lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | [ rid; file; count ] -> (
      match (Rules.of_id rid, int_of_string_opt count) with
      | Some rule, Some count when count > 0 ->
          if Rules.baselinable rule then Ok (Some { rule; file; count })
          else
            Error
              (Printf.sprintf
                 "line %d: rule %s is not baselinable (fix it or suppress \
                  inline with a reason)"
                 lineno rid)
      | None, _ -> Error (Printf.sprintf "line %d: unknown rule %s" lineno rid)
      | _, _ -> Error (Printf.sprintf "line %d: bad count %s" lineno count))
  | _ ->
      Error
        (Printf.sprintf "line %d: expected 'RULE FILE COUNT', got %S" lineno
           line)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno lines acc =
    match lines with
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match parse_line ~lineno l with
        | Ok None -> go (lineno + 1) rest acc
        | Ok (Some e) -> go (lineno + 1) rest (e :: acc)
        | Error m -> Error m)
  in
  go 1 lines []

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> (
      match of_string text with
      | Ok t -> Ok t
      | Error m -> Error (path ^ ": " ^ m))
  | exception Sys_error m -> Error m

(* Consume baseline entries against [findings]; returns the findings the
   baseline does NOT absorb, those it does, and the stale remainder of
   each entry (entries whose count exceeds the current finding count —
   a sign the baseline should be regenerated). *)
let apply t findings =
  let remaining =
    List.map (fun e -> (e, { contents = e.count })) t
  in
  let kept, absorbed =
    List.partition
      (fun (f : Rules.finding) ->
        match
          List.find_opt
            (fun (e, left) ->
              e.rule = f.Rules.rule && String.equal e.file f.Rules.file
              && !left > 0)
            remaining
        with
        | Some (_, left) ->
            left := !left - 1;
            false
        | None -> true)
      findings
  in
  let stale =
    List.filter_map
      (fun (e, left) ->
        if !left > 0 then Some (Rules.id e.rule, e.file, !left) else None)
      remaining
  in
  (kept, absorbed, stale)

let compare_entry a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c else String.compare (Rules.id a.rule) (Rules.id b.rule)

(* Group findings into baseline entries; findings of non-baselinable
   rules are returned separately (they cannot be grandfathered). *)
let of_findings findings =
  let ok, rejected =
    List.partition (fun (f : Rules.finding) -> Rules.baselinable f.Rules.rule)
      findings
  in
  let entries =
    List.fold_left
      (fun acc (f : Rules.finding) ->
        let rec bump = function
          | [] -> [ { rule = f.Rules.rule; file = f.Rules.file; count = 1 } ]
          | e :: rest when e.rule = f.Rules.rule && String.equal e.file f.Rules.file
            ->
              { e with count = e.count + 1 } :: rest
          | e :: rest -> e :: bump rest
        in
        bump acc)
      [] ok
  in
  (List.sort compare_entry entries, rejected)

(* --update-baseline: shrink entries to what the current run still
   needs. Counts only ever go DOWN (min of old and current) and no
   entry is ever added — growing the debt ledger stays a deliberate
   --write-baseline act. Entries that shrink to zero are dropped.
   Returns the new baseline plus the per-entry shrinkage
   [(rule_id, file, dropped)] for reporting. *)
let update t findings =
  let count_for e =
    List.length
      (List.filter
         (fun (f : Rules.finding) ->
           f.Rules.rule = e.rule && String.equal f.Rules.file e.file)
         findings)
  in
  let updated, dropped =
    List.fold_left
      (fun (kept, dropped) e ->
        let now = min e.count (count_for e) in
        let dropped =
          if now < e.count then (Rules.id e.rule, e.file, e.count - now) :: dropped
          else dropped
        in
        if now > 0 then ({ e with count = now } :: kept, dropped)
        else (kept, dropped))
      ([], []) t
  in
  (List.sort compare_entry updated, List.rev dropped)

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "# lbclint baseline: grandfathered findings, one 'RULE FILE COUNT' per \
     line.\n";
  Buffer.add_string b
    "# Baselinable: D2/D4/D5 and the deep rules (E1-E4, M1, X1). Regenerate \
     with: lbclint --write-baseline, prune with: lbclint --update-baseline\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s %s %d\n" (Rules.id e.rule) e.file e.count))
    (List.sort compare_entry t);
  Buffer.contents b

let save ~path t =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string t))
