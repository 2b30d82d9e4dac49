(* Tests for the randomised falsification grid ([Grids.fuzz]) run
   through the campaign runner: clean campaigns on condition-satisfying
   graphs, the E13 grids' pinned fingerprints, and determinism across
   domain counts. *)

module C = Lbc_campaign
module Grids = C.Grids
module Scenario = C.Scenario

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let campaign ?(domains = 1) ?(seed = 0) ?max_faults gname ~f ~algo ~runs =
  C.Runner.run_exn
    ~config:{ C.Runner.default with domains; base_seed = seed }
    (Grids.fuzz ~gname ~f ~algo ~runs ~seed ?max_faults ())

let clean name ?max_faults gname ~f ~algo ~runs () =
  let a = campaign ?max_faults gname ~f ~algo ~runs in
  check_int (name ^ ": runs") runs (Array.length a.C.Artifact.verdicts);
  Array.iter
    (fun (v : Scenario.verdict) ->
      if not v.Scenario.ok then
        Alcotest.failf "%s: %s" name
          (Format.asprintf "%a" Scenario.pp_verdict v))
    a.C.Artifact.verdicts

let test_a2_cycle_clean =
  clean "a2 cycle" "fig1a" ~f:1 ~algo:Scenario.A2 ~runs:120

let test_a2_c7_clean = clean "a2 c7" "cycle:7" ~f:1 ~algo:Scenario.A2 ~runs:60

let test_a1_cycle_clean =
  clean "a1 cycle" "fig1a" ~f:1 ~algo:Scenario.A1 ~runs:40

let test_a3_k4_clean =
  clean "a3 k4" "complete:4" ~f:1 ~algo:(Scenario.A3 1) ~runs:30

let test_relay_wheel_clean =
  clean "relay wheel" "wheel:7" ~f:1 ~algo:Scenario.Relay ~runs:30

let test_a2_fig1b_f2_clean =
  clean "a2 fig1b f=2" "fig1b" ~f:2 ~algo:Scenario.A2 ~runs:60

(* The same grid and seed give the same deterministic artifact bytes,
   whatever the domain count. *)
let test_determinism () =
  let run domains =
    C.Artifact.deterministic_string
      (campaign ~domains ~seed:9 "fig1a" ~f:1 ~algo:Scenario.A2 ~runs:25)
  in
  check "1 and 3 domains agree" true (String.equal (run 1) (run 3))

(* With max_faults = 0 every case is fault-free: must be clean on any
   connected graph. *)
let test_max_faults_zero =
  clean "fault-free" ~max_faults:0 "petersen" ~f:1 ~algo:Scenario.A2 ~runs:10

(* The grids draw exactly the cases the former loop over
   [Random.State.make [|0xFACE; seed + k|]] drew: these digests were
   computed from that loop's cases rendered as scenario ids. *)
let test_e13_fingerprints () =
  let pins quick expected =
    List.iter2
      (fun (label, grid) want ->
        Alcotest.(check string)
          (Printf.sprintf "%s (quick=%b)" label quick)
          want
          (C.Grid.fingerprint (C.Grid.to_array grid)))
      (Grids.e13 ~quick ()) expected
  in
  pins true
    [
      "11870177ae756503"; "049f29476e41e485"; "296da7e38b10bf0a";
      "35bf15b2b55a0533"; "189d915db2ad2f99";
    ];
  pins false
    [
      "05b8922d316f4c8a"; "3cad5f50cb9f256b"; "034d8fa77eb5050c";
      "1adb98cbdc1237ca"; "0a0198cb884357ef";
    ]

(* Past the condition (f = 2 on a 6-cycle) the grid finds violations,
   and each carries the [lbcast run] line that replays it. *)
let test_violations_carry_repro () =
  let a = campaign "cycle:6" ~f:2 ~algo:Scenario.A2 ~runs:30 in
  let bad =
    List.filter
      (fun (v : Scenario.verdict) -> not v.Scenario.ok)
      (Array.to_list a.C.Artifact.verdicts)
  in
  check "violations found" true (bad <> []);
  List.iter
    (fun (v : Scenario.verdict) ->
      match v.Scenario.counterexample with
      | Some c when contains c "reproduce: lbcast run " -> ()
      | _ -> Alcotest.failf "%s: no repro line" v.Scenario.id)
    bad

let () =
  Alcotest.run "fuzz"
    [
      ( "campaigns",
        [
          Alcotest.test_case "a2 cycle" `Quick test_a2_cycle_clean;
          Alcotest.test_case "a2 c7" `Quick test_a2_c7_clean;
          Alcotest.test_case "a1 cycle" `Slow test_a1_cycle_clean;
          Alcotest.test_case "a3 k4" `Slow test_a3_k4_clean;
          Alcotest.test_case "relay wheel" `Quick test_relay_wheel_clean;
          Alcotest.test_case "a2 fig1b f=2" `Slow test_a2_fig1b_f2_clean;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "fault-free" `Quick test_max_faults_zero;
          Alcotest.test_case "e13 fingerprints" `Quick test_e13_fingerprints;
          Alcotest.test_case "violations carry repro" `Quick
            test_violations_carry_repro;
        ] );
    ]
