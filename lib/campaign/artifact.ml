type cache_info = { hits : int; misses : int; stores : int }
type steal_info = { steals : int; retried : int }

type recovery_info = {
  recovered_records : int;
  dropped_bytes : int;
  first_corrupt_record : int option;
}

type run_info = {
  domains : int;
  wall_s : float;
  slowest : (int * float) list;
  resumed_scenarios : int;
  cache : cache_info;
  steal : steal_info;
  recovery : recovery_info;
}

type quarantined = { index : int; id : string; message : string }

let no_cache_info = { hits = 0; misses = 0; stores = 0 }
let no_steal_info = { steals = 0; retried = 0 }

let no_recovery_info =
  { recovered_records = 0; dropped_bytes = 0; first_corrupt_record = None }

type t = {
  campaign : string;
  count : int;
  base_seed : int;
  grid_fingerprint : string;
  verdicts : Scenario.verdict array;
  stats : Stats.t;
  quarantined : quarantined list;
  run : run_info;
}

(* /5: the runner moved from contiguous shards + shard checkpoints to
   scenario-granular work-stealing over a streaming journal. The grid
   section drops [shard_size] (scheduling no longer has a deterministic
   grain), quarantine records name the scenario (index + id) instead of
   a shard, and the non-deterministic [run] section carries the slowest
   scenarios plus cache/steal/recovery reports. /1 .. /4 artifacts are
   rejected by the format check in [of_string]. *)
let version = 5
let format_tag = Printf.sprintf "lbc-campaign/%d" version

type summary = {
  total : int;
  checked : int;
  ok : int;
  violations : int;
  agreement_failures : int;
  validity_failures : int;
  termination_failures : int;
  decision_mismatches : int;
  crashed : int;
  timeouts : int;
  quarantined : int;
  rounds_max : int;
  transmissions_total : int;
}

let summarize t =
  let s =
    ref
      {
        total = Array.length t.verdicts;
        checked = 0;
        ok = 0;
        violations = 0;
        agreement_failures = 0;
        validity_failures = 0;
        termination_failures = 0;
        decision_mismatches = 0;
        crashed = 0;
        timeouts = 0;
        quarantined = List.length t.quarantined;
        rounds_max = 0;
        transmissions_total = 0;
      }
  in
  Array.iter
    (fun (v : Scenario.verdict) ->
      let c = !s in
      s :=
        (match v.Scenario.status with
        | Scenario.Crashed _ -> { c with crashed = c.crashed + 1 }
        | Scenario.Timed_out _ -> { c with timeouts = c.timeouts + 1 }
        | Scenario.Checked ->
            (* Only checked executions speak to the paper's properties —
               a crashed or timed-out scenario is not an agreement
               failure, it is an unjudged one. *)
            {
              c with
              checked = c.checked + 1;
              ok = (c.ok + if v.Scenario.ok then 1 else 0);
              agreement_failures =
                (c.agreement_failures + if v.Scenario.agreement then 0 else 1);
              validity_failures =
                (c.validity_failures + if v.Scenario.validity then 0 else 1);
              termination_failures =
                (c.termination_failures
                + if v.Scenario.termination then 0 else 1);
              decision_mismatches =
                (c.decision_mismatches
                +
                match (v.Scenario.expected, v.Scenario.decision) with
                | Some e, Some d when not (Lbc_consensus.Bit.equal e d) -> 1
                | Some _, None -> 1
                | _ -> 0);
              rounds_max = max c.rounds_max v.Scenario.rounds;
              transmissions_total =
                c.transmissions_total + v.Scenario.transmissions;
            }))
    t.verdicts;
  { !s with violations = !s.checked - !s.ok }

let pp_summary fmt s =
  Format.fprintf fmt
    "%d scenarios, %d checked, %d ok, %d violations (agreement %d, validity \
     %d, termination %d, decision %d), %d crashed, %d timeouts, %d \
     quarantined; max rounds %d, %d transmissions"
    s.total s.checked s.ok s.violations s.agreement_failures
    s.validity_failures s.termination_failures s.decision_mismatches s.crashed
    s.timeouts s.quarantined s.rounds_max s.transmissions_total

(* ------------------------------------------------------------------ *)
(* Simulated-time aggregation                                          *)
(* ------------------------------------------------------------------ *)

type sim_entry = {
  family : string;
  scenarios : int;
  p50_ns : int;
  p99_ns : int;
  max_ns : int;
}

(* The scenario family: algorithm and graph segments of the id, plus the
   [net=] segment when present — "a1|cycle:7|net=wan". This groups a
   grid's cells by the axes that dominate simulated time while folding
   fault placements, strategies and inputs together. *)
let family_of_id id =
  let segs = String.split_on_char '|' id in
  let head =
    match segs with a :: g :: _ -> [ a; g ] | short -> short
  in
  let net =
    List.filter
      (fun s -> String.length s > 4 && String.sub s 0 4 = "net=")
      segs
  in
  String.concat "|" (head @ net)

(* Nearest-rank percentile over a sorted array: the smallest value with
   at least p% of the sample at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = (n * p) + 99 in
  let idx = (rank / 100) - 1 in
  sorted.(max 0 (min (n - 1) idx))

let sim_stats t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (v : Scenario.verdict) ->
      match v.Scenario.status with
      | Scenario.Checked ->
          let fam = family_of_id v.Scenario.id in
          let prev = try Hashtbl.find tbl fam with Not_found -> [] in
          Hashtbl.replace tbl fam (v.Scenario.sim_ns :: prev)
      | Scenario.Timed_out _ | Scenario.Crashed _ -> ())
    t.verdicts;
  List.sort
    (fun a b -> String.compare a.family b.family)
    (Hashtbl.fold
       (fun family samples acc ->
         let sorted = Array.of_list samples in
         Array.sort Int.compare sorted;
         let n = Array.length sorted in
         let max_ns = sorted.(n - 1) in
         (* Families that never accumulated simulated time are omitted:
            a no-net (or ideal-profile) campaign serializes "sim": [],
            keeping its bytes identical to the pre-net layout modulo the
            version tag. *)
         if max_ns = 0 then acc
         else
           {
             family;
             scenarios = n;
             p50_ns = percentile sorted 50;
             p99_ns = percentile sorted 99;
             max_ns;
           }
           :: acc)
       tbl [])

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let grid_fields t =
  [
    ("format", Jsonio.Str format_tag);
    ("campaign", Jsonio.Str t.campaign);
    ( "grid",
      Jsonio.Obj
        [
          ("count", Jsonio.Int t.count);
          ("base_seed", Jsonio.Int t.base_seed);
          ("fingerprint", Jsonio.Str t.grid_fingerprint);
        ] );
    ( "verdicts",
      Jsonio.List
        (Array.to_list (Array.map Scenario.verdict_to_json t.verdicts)) );
    ("stats", Stats.to_json t.stats);
    ( "quarantined",
      Jsonio.List
        (List.map
           (fun q ->
             Jsonio.Obj
               [
                 ("scenario", Jsonio.Int q.index);
                 ("id", Jsonio.Str q.id);
                 ("message", Jsonio.Str q.message);
               ])
           t.quarantined) );
    ( "sim",
      Jsonio.List
        (List.map
           (fun e ->
             Jsonio.Obj
               [
                 ("family", Jsonio.Str e.family);
                 ("scenarios", Jsonio.Int e.scenarios);
                 ("p50_ns", Jsonio.Int e.p50_ns);
                 ("p99_ns", Jsonio.Int e.p99_ns);
                 ("max_ns", Jsonio.Int e.max_ns);
               ])
           (sim_stats t)) );
    ( "summary",
      let s = summarize t in
      Jsonio.Obj
        [
          ("total", Jsonio.Int s.total);
          ("checked", Jsonio.Int s.checked);
          ("ok", Jsonio.Int s.ok);
          ("violations", Jsonio.Int s.violations);
          ("agreement_failures", Jsonio.Int s.agreement_failures);
          ("validity_failures", Jsonio.Int s.validity_failures);
          ("termination_failures", Jsonio.Int s.termination_failures);
          ("decision_mismatches", Jsonio.Int s.decision_mismatches);
          ("crashed", Jsonio.Int s.crashed);
          ("timeouts", Jsonio.Int s.timeouts);
          ("quarantined", Jsonio.Int s.quarantined);
          ("rounds_max", Jsonio.Int s.rounds_max);
          ("transmissions_total", Jsonio.Int s.transmissions_total);
        ] );
  ]

let run_field t =
  ( "run",
    Jsonio.Obj
      [
        ("domains", Jsonio.Int t.run.domains);
        ("wall_s", Jsonio.Float t.run.wall_s);
        ( "slowest",
          Jsonio.List
            (List.map
               (fun (i, w) ->
                 Jsonio.Obj
                   [ ("scenario", Jsonio.Int i); ("s", Jsonio.Float w) ])
               t.run.slowest) );
        ("resumed_scenarios", Jsonio.Int t.run.resumed_scenarios);
        ( "cache",
          Jsonio.Obj
            [
              ("hits", Jsonio.Int t.run.cache.hits);
              ("misses", Jsonio.Int t.run.cache.misses);
              ("stores", Jsonio.Int t.run.cache.stores);
            ] );
        ( "steal",
          Jsonio.Obj
            [
              ("steals", Jsonio.Int t.run.steal.steals);
              ("retried", Jsonio.Int t.run.steal.retried);
            ] );
        ( "recovery",
          Jsonio.Obj
            [
              ("recovered_records", Jsonio.Int t.run.recovery.recovered_records);
              ("dropped_bytes", Jsonio.Int t.run.recovery.dropped_bytes);
              ( "first_corrupt_record",
                match t.run.recovery.first_corrupt_record with
                | None -> Jsonio.Null
                | Some n -> Jsonio.Int n );
            ] );
      ] )

let to_string t = Jsonio.to_string (Jsonio.Obj (grid_fields t @ [ run_field t ]))
let deterministic_string t = Jsonio.to_string (Jsonio.Obj (grid_fields t))

let of_string s =
  let ( let* ) = Result.bind in
  let* j = Jsonio.of_string s in
  let req name conv =
    match Option.bind (Jsonio.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "artifact: missing or malformed %S" name)
  in
  let* fmt = req "format" Jsonio.to_str in
  if fmt <> format_tag then
    Error (Printf.sprintf "artifact: format %S, expected %S" fmt format_tag)
  else
    let* campaign = req "campaign" Jsonio.to_str in
    let* grid =
      match Jsonio.member "grid" j with
      | Some g -> Ok g
      | None -> Error "artifact: missing grid"
    in
    let gfield name conv =
      match Option.bind (Jsonio.member name grid) conv with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "artifact: missing grid.%s" name)
    in
    let* count = gfield "count" Jsonio.to_int in
    let* base_seed = gfield "base_seed" Jsonio.to_int in
    let* grid_fingerprint = gfield "fingerprint" Jsonio.to_str in
    let* vjs = req "verdicts" Jsonio.to_list in
    let* verdicts =
      List.fold_left
        (fun acc vj ->
          let* acc = acc in
          let* v = Scenario.verdict_of_json vj in
          Ok (v :: acc))
        (Ok []) vjs
    in
    let verdicts = Array.of_list (List.rev verdicts) in
    let* stats =
      match Jsonio.member "stats" j with
      | None -> Ok Stats.empty
      | Some sj -> Stats.of_json sj
    in
    let quarantined =
      match Option.bind (Jsonio.member "quarantined" j) Jsonio.to_list with
      | None -> []
      | Some qs ->
          List.filter_map
            (fun q ->
              match
                ( Option.bind (Jsonio.member "scenario" q) Jsonio.to_int,
                  Option.bind (Jsonio.member "id" q) Jsonio.to_str,
                  Option.bind (Jsonio.member "message" q) Jsonio.to_str )
              with
              | Some index, Some id, Some message -> Some { index; id; message }
              | _ -> None)
            qs
    in
    let run =
      match Jsonio.member "run" j with
      | None ->
          {
            domains = 0;
            wall_s = 0.0;
            slowest = [];
            resumed_scenarios = 0;
            cache = no_cache_info;
            steal = no_steal_info;
            recovery = no_recovery_info;
          }
      | Some r ->
          let geti ?obj name =
            let src = Option.value ~default:r obj in
            Option.value ~default:0
              (Option.bind (Jsonio.member name src) Jsonio.to_int)
          in
          let getf name =
            Option.value ~default:0.0
              (Option.bind (Jsonio.member name r) Jsonio.to_float)
          in
          {
            domains = geti "domains";
            (* Clamp: a clock that stepped backwards, or a hand-edited
               artifact, must never surface as negative wall time. *)
            wall_s = Float.max 0.0 (getf "wall_s");
            resumed_scenarios = geti "resumed_scenarios";
            slowest =
              (match Option.bind (Jsonio.member "slowest" r) Jsonio.to_list with
              | None -> []
              | Some entries ->
                  List.filter_map
                    (fun e ->
                      match
                        ( Option.bind (Jsonio.member "scenario" e) Jsonio.to_int,
                          Option.bind (Jsonio.member "s" e) Jsonio.to_float )
                      with
                      | Some i, Some w -> Some (i, Float.max 0.0 w)
                      | _ -> None)
                    entries);
            cache =
              (match Jsonio.member "cache" r with
              | None -> no_cache_info
              | Some c ->
                  {
                    hits = geti ~obj:c "hits";
                    misses = geti ~obj:c "misses";
                    stores = geti ~obj:c "stores";
                  });
            steal =
              (match Jsonio.member "steal" r with
              | None -> no_steal_info
              | Some st ->
                  {
                    steals = geti ~obj:st "steals";
                    retried = geti ~obj:st "retried";
                  });
            recovery =
              (match Jsonio.member "recovery" r with
              | None -> no_recovery_info
              | Some rc ->
                  {
                    recovered_records = geti ~obj:rc "recovered_records";
                    dropped_bytes = geti ~obj:rc "dropped_bytes";
                    first_corrupt_record =
                      Option.bind
                        (Jsonio.member "first_corrupt_record" rc)
                        Jsonio.to_int;
                  });
          }
    in
    Ok
      {
        campaign;
        count;
        base_seed;
        grid_fingerprint;
        verdicts;
        stats;
        quarantined;
        run;
      }

let save ~path t =
  let oc = open_out path in
  output_string oc (to_string t);
  output_char oc '\n';
  close_out oc

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error msg -> Error msg
