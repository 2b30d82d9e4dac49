module J = Lbc_campaign.Jsonio

let format = "lbcbench-run/1"

let to_json (r : E2e.result) =
  J.Obj
    [
      ("format", J.Str format);
      ("workload", J.Str r.E2e.workload);
      ("seed", J.Int r.E2e.seed);
      ("seconds", J.Float r.E2e.seconds);
      ("passes", J.Int r.E2e.passes);
      ( "host",
        J.Obj
          [
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("ocaml", J.Str Sys.ocaml_version);
            ("domains", J.Int 1);
            ("tmpdir", J.Str (Filename.get_temp_dir_name ()));
          ] );
      ("attempted", J.Int r.E2e.attempted);
      ("failed", J.Int (List.length r.E2e.problems));
      ("problems", J.List (List.map (fun p -> J.Str p) r.E2e.problems));
      ( "metrics",
        J.List
          (List.map
             (fun (v : Metric.value) ->
               J.Obj
                 [
                   ("name", J.Str v.Metric.def.Metric.name);
                   ("unit", J.Str v.Metric.def.Metric.unit_);
                   ("value", J.Float v.Metric.value);
                   ("n", J.Int v.Metric.n);
                 ])
             r.E2e.values) );
      ("verdict_digest", J.Str r.E2e.digest);
      ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.E2e.counters));
      ("service_ms", J.List (List.map (fun s -> J.Float s) r.E2e.service_ms));
    ]

let write ~path r =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string (to_json r));
      output_char oc '\n')

type loaded = {
  workload : string;
  seed : int;
  metrics : (string * float) list;
  digest : string;
  counters : string;  (** canonical rendering, compared for equality *)
}

let ( let* ) r f = Result.bind r f

let field name conv j =
  Option.to_result ~none:("missing or malformed " ^ name)
    (Option.bind (J.member name j) conv)

let load path =
  let* text =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error e -> Error e
  in
  let* j = J.of_string text in
  let* fmt = field "format" J.to_str j in
  let* () =
    if String.equal fmt format then Ok ()
    else Error (Printf.sprintf "format %s, expected %s" fmt format)
  in
  let* workload = field "workload" J.to_str j in
  let* seed = field "seed" J.to_int j in
  let* digest = field "verdict_digest" J.to_str j in
  let* metrics = field "metrics" J.to_list j in
  let* metrics =
    List.fold_right
      (fun m acc ->
        let* acc = acc in
        let* name = field "name" J.to_str m in
        let* value = field "value" J.to_float m in
        Ok ((name, value) :: acc))
      metrics (Ok [])
  in
  let counters =
    Option.fold ~none:"" ~some:J.to_string (J.member "counters" j)
  in
  Ok { workload; seed; metrics; digest; counters }

let load_all paths =
  List.fold_right
    (fun path acc ->
      let* acc = acc in
      match load path with
      | Ok r -> Ok (r :: acc)
      | Error e -> Error (path ^ ": " ^ e))
    paths (Ok [])

let bounds benchmark =
  let* text =
    match In_channel.with_open_text benchmark In_channel.input_all with
    | text -> Ok text
    | exception Sys_error e -> Error e
  in
  let* j = J.of_string text in
  let* e2e = field "end_to_end" J.to_list j in
  Ok
    (List.filter_map
       (fun m ->
         match
           ( Option.bind (J.member "name" m) J.to_str,
             Option.bind (J.member "bound" m) J.to_float )
         with
         | Some name, Some bound -> Some (name, bound)
         | _ -> None)
       e2e)

let spread (q1, med, q3) = if med = 0. then Float.infinity else (q3 -. q1) /. Float.abs med

let compare_workload ~bounds ~base ~next workload =
  let of_workload = List.filter (fun r -> String.equal r.workload workload) in
  let base = of_workload base and next = of_workload next in
  Printf.printf "workload %s: %d base record(s), %d new record(s)\n" workload
    (List.length base) (List.length next);
  Printf.printf "  %-18s %-30s %-30s %8s %6s  %s\n" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "worse by" "bound" "verdict";
  let regressions =
    List.filter
      (fun (d : Metric.def) ->
        let values rs =
          List.filter_map (fun r -> List.assoc_opt d.Metric.name r.metrics) rs
        in
        let bv = values base and nv = values next in
        match (bv, nv, List.assoc_opt d.Metric.name bounds) with
        | [], _, _ | _, [], _ | _, _, None -> false
        | _, _, Some bound ->
            let ((_, bm, _) as bq) = Quant.quartiles bv in
            let ((_, nm, _) as nq) = Quant.quartiles nv in
            let worse =
              match d.Metric.better with
              | Metric.Lower -> (nm -. bm) /. bm
              | Metric.Higher -> (bm -. nm) /. bm
            in
            let show (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
            let verdict =
              if spread bq > bound || spread nq > bound then "unresolved"
              else if worse > bound then "REGRESSION"
              else "ok"
            in
            Printf.printf "  %-18s %-30s %-30s %7.2f%% %5.1f%%  %s\n" d.Metric.name
              (show bq) (show nq) (100. *. worse) (100. *. bound) verdict;
            String.equal verdict "REGRESSION")
      Metric.end_to_end
  in
  let records = base @ next in
  let seeds = List.sort_uniq Int.compare (List.map (fun r -> r.seed) records) in
  let mismatched =
    List.filter
      (fun seed ->
        match List.filter (fun r -> r.seed = seed) records with
        | [] -> false
        | r0 :: rest ->
            List.exists
              (fun r ->
                not
                  (String.equal r.digest r0.digest
                  && String.equal r.counters r0.counters))
              rest)
      seeds
  in
  List.iter
    (fun seed ->
      Printf.printf "  seed %d: %s\n" seed
        (if List.mem seed mismatched then
           "verdict_digest or counters DIFFER between records"
         else "verdict_digest and counters identical"))
    seeds;
  regressions = [] && mismatched = []

let compare ~benchmark ~base ~next =
  match (bounds benchmark, load_all base, load_all next) with
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline ("lbcbench compare: " ^ e);
      2
  | Ok bounds, Ok base, Ok next ->
      let workloads =
        List.sort_uniq String.compare (List.map (fun r -> r.workload) (base @ next))
      in
      let ok = List.map (compare_workload ~bounds ~base ~next) workloads in
      if List.for_all Fun.id ok then 0 else 1
