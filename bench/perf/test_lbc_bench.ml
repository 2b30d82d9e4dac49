(* lbcbench through its library entry points, on the first two scenarios
   of every workload (cycle64-a2 at 12 nodes, so the suite stays fast):
   the metric names it prints must be exactly those BENCHMARK.json
   declares, every run must pass its output checks, and the checks must
   catch a tampered verdict. *)

open Lbc_bench
module C = Lbc_campaign
module J = C.Jsonio

let benchmark =
  lazy
    (match
       J.of_string (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
     with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e))

let entries key =
  match Option.bind (J.member key (Lazy.force benchmark)) J.to_list with
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
  | Some ms -> ms

let field name m =
  Option.value ~default:"?" (Option.bind (J.member name m) J.to_str)

let declared key = List.map (field "name") (entries key)

let strings = Alcotest.(list string)

(* Names, units and directions in the code match BENCHMARK.json. *)
let test_vocabulary () =
  let spell (d : Metric.def) =
    String.concat " "
      [
        d.Metric.name;
        d.Metric.unit_;
        (match d.Metric.better with Metric.Higher -> "higher" | Metric.Lower -> "lower");
      ]
  in
  let declared_defs key =
    List.map
      (fun m -> String.concat " " (List.map (fun f -> field f m) [ "name"; "unit"; "better" ]))
      (entries key)
  in
  Alcotest.check strings "end_to_end" (declared_defs "end_to_end")
    (List.map spell Metric.end_to_end);
  Alcotest.check strings "per_layer" (declared_defs "per_layer")
    (List.map spell Metric.per_layer);
  Alcotest.check strings "workloads" (declared "workloads")
    (List.map (fun w -> w.Workloads.name) Workloads.all)

let printed values =
  match
    J.member "metrics" (Metric.result_json ~correct:true ~attempted:1 ~failed:0 values)
  with
  | Some (J.Obj fields) -> List.map fst fields
  | _ -> Alcotest.fail "result line has no metrics object"

let workloads =
  [
    Workloads.fig1b_a2;
    Workloads.cycle_a2 ~n:12;
    Workloads.cycle5_exhaustive;
    Workloads.durable_chaos;
  ]

let test_run (w : Workloads.t) () =
  let r = E2e.run ~limit:2 w ~seed:1 ~seconds:0. in
  Alcotest.(check strings) "problems" [] r.E2e.problems;
  Alcotest.(check strings) "end_to_end names" (declared "end_to_end") (printed r.E2e.values);
  List.iter
    (fun (v : Metric.value) ->
      if not (v.Metric.value > 0.) then
        Alcotest.failf "%s = %g, expected > 0" v.Metric.def.Metric.name v.Metric.value)
    r.E2e.values;
  Alcotest.(check bool) "digest" true (String.length r.E2e.digest = 16)

let test_trace (w : Workloads.t) () =
  let r = Layers.trace ~limit:2 w ~seed:1 ~seconds:0. ~spans:(Spans.create ()) in
  Alcotest.(check strings) "problems" [] r.Layers.problems;
  Alcotest.(check strings) "per_layer names" (declared "per_layer")
    (printed r.Layers.values)

let artifact (w : Workloads.t) ~cache =
  let grid, _ = E2e.sample ~limit:2 w ~seed:1 in
  C.Runner.run_exn ~config:{ C.Runner.default with C.Runner.cache } grid

let tamper (a : C.Artifact.t) =
  let verdicts = Array.copy a.C.Artifact.verdicts in
  verdicts.(0) <- { (verdicts.(0)) with C.Scenario.ok = false };
  { a with C.Artifact.verdicts }

let test_tampered_exact () =
  let w = Workloads.fig1b_a2 in
  let a = artifact w ~cache:None in
  Alcotest.(check int) "untouched" 0 (List.length (E2e.check w ~cold:a ()));
  Alcotest.(check int) "tampered" 1 (List.length (E2e.check w ~cold:(tamper a) ()))

let test_tampered_durable () =
  let w = Workloads.durable_chaos in
  let dir = E2e.temp_dir () in
  Fun.protect ~finally:(fun () -> E2e.remove_tree dir) @@ fun () ->
  let cache = Some (Filename.concat dir "cache") in
  let cold = artifact w ~cache in
  let warm = artifact w ~cache in
  Alcotest.(check strings) "warm matches cold" [] (E2e.check w ~cold ~warm ());
  Alcotest.(check strings) "tampered warm pass" [ "warm pass differs from the cold pass" ]
    (E2e.check w ~cold ~warm:(tamper warm) ());
  Alcotest.(check strings) "no warm pass" [ "no warm pass" ] (E2e.check w ~cold ())

let () =
  Alcotest.run "lbcbench"
    [
      ( "run",
        List.map (fun w -> Alcotest.test_case w.Workloads.name `Quick (test_run w)) workloads
      );
      ( "trace",
        List.map
          (fun w -> Alcotest.test_case w.Workloads.name `Quick (test_trace w))
          workloads );
      ( "checks",
        [
          Alcotest.test_case "BENCHMARK.json vocabulary" `Quick test_vocabulary;
          Alcotest.test_case "tampered exact verdict" `Quick test_tampered_exact;
          Alcotest.test_case "tampered warm pass" `Quick test_tampered_durable;
        ] );
    ]
