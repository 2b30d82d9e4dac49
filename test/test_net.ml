(* Tests for lib/net: profile parsing, the latency oracle's determinism,
   the ideal-profile equivalence (an ideal network is observationally
   identical to no network layer at all — the analogue of perturb's
   zero-rate equivalence, checked down to campaign artifact bytes), the
   reproducibility of non-ideal profiles, and a 70+-node flood run under
   delay chaos guarding the multi-word-bitset path. *)

module Net = Lbc_net.Net
module P = Lbc_sim.Perturb
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module Obs = Lbc_obs.Obs
module Campaign = Lbc_campaign

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* parse / name                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_named () =
  List.iter
    (fun name ->
      match Net.parse name with
      | Error e -> Alcotest.failf "parse %S: %s" name e
      | Ok p ->
          check_str ("canonical name of " ^ name) name (Net.name p);
          check ("re-parse " ^ name) true (Net.parse (Net.name p) = Ok p))
    Net.names;
  check "empty is ideal" true (Net.parse "" = Ok Net.ideal);
  check "none is ideal" true (Net.parse "none" = Ok Net.ideal);
  check "underscore spelling accepted" true
    (Net.parse "heavy_tail" = Ok Net.heavy_tail)

let test_parse_const () =
  (match Net.parse "const:1000" with
  | Error e -> Alcotest.failf "const:1000: %s" e
  | Ok p ->
      check_str "const name" "const:1000" (Net.name p);
      check "const not ideal" false (Net.is_ideal p);
      let ctx = Net.make p ~seed:0 in
      check_int "constant latency" 1000
        (Net.link_latency_ns ctx ~round:3 ~sender:1 ~receiver:2));
  match Net.parse "const:0" with
  | Error e -> Alcotest.failf "const:0: %s" e
  | Ok p -> check "const:0 is ideal" true (Net.is_ideal p)

let test_parse_errors () =
  List.iter
    (fun input ->
      check ("reject " ^ input) true (Result.is_error (Net.parse input)))
    [ "bogus"; "const:"; "const:abc"; "const:-5"; "lan:extra" ]

let test_is_ideal () =
  check "ideal is ideal" true (Net.is_ideal Net.ideal);
  List.iter
    (fun p -> check ("not ideal: " ^ Net.name p) false (Net.is_ideal p))
    [ Net.lan; Net.wan; Net.satellite; Net.heavy_tail ]

(* ------------------------------------------------------------------ *)
(* Latency oracle                                                      *)
(* ------------------------------------------------------------------ *)

let sample_coords = List.init 60 (fun i -> (i mod 9, i mod 7, (i * 3) mod 7))

let test_latency_deterministic () =
  List.iter
    (fun p ->
      let ctx = Net.make p ~seed:42 in
      List.iter
        (fun (round, sender, receiver) ->
          check_int
            ("same coordinates, same latency (" ^ Net.name p ^ ")")
            (Net.link_latency_ns ctx ~round ~sender ~receiver)
            (Net.link_latency_ns ctx ~round ~sender ~receiver))
        sample_coords)
    [ Net.lan; Net.wan; Net.satellite; Net.heavy_tail ]

let test_latency_semantics () =
  let ideal_ctx = Net.make Net.ideal ~seed:1 in
  check "ideal: zero latency everywhere" true
    (List.for_all
       (fun (round, sender, receiver) ->
         Net.link_latency_ns ideal_ctx ~round ~sender ~receiver = 0)
       sample_coords);
  List.iter
    (fun p ->
      let ctx = Net.make p ~seed:1 in
      check ("positive latency: " ^ Net.name p) true
        (List.for_all
           (fun (round, sender, receiver) ->
             Net.link_latency_ns ctx ~round ~sender ~receiver > 0)
           sample_coords))
    [ Net.lan; Net.wan; Net.satellite; Net.heavy_tail ]

let test_seed_changes_latencies () =
  let a = Net.make Net.wan ~seed:1 and b = Net.make Net.wan ~seed:2 in
  check "different seeds disagree somewhere" true
    (List.exists
       (fun (round, sender, receiver) ->
         Net.link_latency_ns a ~round ~sender ~receiver
         <> Net.link_latency_ns b ~round ~sender ~receiver)
       sample_coords)

let test_with_net_scoping () =
  check "no ambient context by default" true (Net.current () = None);
  let (), sim =
    Net.with_net Net.wan ~seed:9 (fun () ->
        match Net.current () with
        | None -> Alcotest.fail "context not installed"
        | Some ctx ->
            check "profile visible" true (Net.profile ctx = Net.wan);
            check_int "seed visible" 9 (Net.seed ctx))
  in
  check_int "no engine run, no simulated time" 0 sim;
  check "context restored" true (Net.current () = None);
  (match Net.with_net Net.wan ~seed:9 (fun () -> failwith "escape") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  check "context restored on exception" true (Net.current () = None)

(* ------------------------------------------------------------------ *)
(* Engine-level equivalence and reproducibility                        *)
(* ------------------------------------------------------------------ *)

let observed_run ?net ?chaos ~algo ~n ~seed () =
  let g = B.cycle n in
  let faulty = Nodeset.singleton (n / 2) in
  let inputs =
    Array.init n (fun v -> if Nodeset.mem v faulty then Bit.Zero else Bit.One)
  in
  let strategy _ = Lbc_adversary.Strategy.Flip_forwards in
  let go () =
    match algo with
    | `A1 ->
        Lbc_consensus.Algorithm1.run ~g ~f:1 ~inputs ~faulty ~strategy ~seed ()
    | `A2 ->
        Lbc_consensus.Algorithm2.run ~g ~f:1 ~inputs ~faulty ~strategy ~seed ()
  in
  Obs.record (fun () ->
      let perturbed () =
        match chaos with
        | None -> go ()
        | Some (spec, cseed) -> P.with_chaos spec ~seed:cseed go
      in
      match net with
      | None -> (perturbed (), 0)
      | Some p -> Net.with_net p ~seed:(seed + 1000) perturbed)

(* Satellite property: the ideal profile is indistinguishable from no
   network layer — same outputs, same cost accounting, zero simulated
   time, and the very same observability counters and histograms (no
   net.* entries appear, because ideal runs record nothing). *)
let prop_ideal_identical =
  QCheck.Test.make ~name:"ideal net = no net layer" ~count:20
    QCheck.(triple (int_range 4 9) bool (int_range 0 1000))
    (fun (n, use_a2, seed) ->
      let algo = if use_a2 then `A2 else `A1 in
      let (plain_o, _), plain_r = observed_run ~algo ~n ~seed () in
      let (ideal_o, ideal_sim), ideal_r =
        observed_run ~net:Net.ideal ~algo ~n ~seed ()
      in
      ideal_sim = 0
      && plain_o.Spec.outputs = ideal_o.Spec.outputs
      && plain_o.Spec.rounds = ideal_o.Spec.rounds
      && plain_o.Spec.phases = ideal_o.Spec.phases
      && plain_o.Spec.transmissions = ideal_o.Spec.transmissions
      && plain_o.Spec.deliveries = ideal_o.Spec.deliveries
      && plain_r.Obs.counters = ideal_r.Obs.counters
      && plain_r.Obs.stats = ideal_r.Obs.stats)

let test_profiled_run_reproducible () =
  let (o1, sim1), r1 = observed_run ~net:Net.wan ~algo:`A2 ~n:7 ~seed:0 () in
  let (o2, sim2), r2 = observed_run ~net:Net.wan ~algo:`A2 ~n:7 ~seed:0 () in
  check "outputs reproduce" true (o1.Spec.outputs = o2.Spec.outputs);
  check_int "simulated time reproduces" sim1 sim2;
  check "simulated time positive" true (sim1 > 0);
  check "counters reproduce" true (r1.Obs.counters = r2.Obs.counters);
  check "stats reproduce" true (r1.Obs.stats = r2.Obs.stats);
  check "link histogram recorded" true
    (List.mem_assoc "net.link_ns" r1.Obs.stats);
  check "round histogram recorded" true
    (List.mem_assoc "net.round_ns" r1.Obs.stats);
  (* the sum of round durations is the accumulated simulated time *)
  check_int "round_ns sums to sim_ns"
    (List.assoc "net.round_ns" r1.Obs.stats).Obs.sum sim1

let test_profiled_run_composes_with_chaos () =
  let chaos =
    ({ P.zero with P.drop = 0.2; delay = 2; delay_p = 0.3 }, 77)
  in
  let (o1, sim1), r1 =
    observed_run ~net:Net.wan ~chaos ~algo:`A2 ~n:7 ~seed:0 ()
  in
  let (o2, sim2), r2 =
    observed_run ~net:Net.wan ~chaos ~algo:`A2 ~n:7 ~seed:0 ()
  in
  check "outputs reproduce under net+chaos" true
    (o1.Spec.outputs = o2.Spec.outputs);
  check_int "sim time reproduces under net+chaos" sim1 sim2;
  check "sim time positive under net+chaos" true (sim1 > 0);
  check "counters reproduce under net+chaos" true
    (r1.Obs.counters = r2.Obs.counters);
  check "perturbation observed" true
    (match List.assoc_opt "perturb.dropped" r1.Obs.counters with
    | Some v -> v > 0
    | None -> false);
  (* a dropped copy is never charged a latency: fewer link samples than
     an unperturbed run of the same shape *)
  let (_, _), r0 = observed_run ~net:Net.wan ~algo:`A2 ~n:7 ~seed:0 () in
  let links r = (List.assoc "net.link_ns" r.Obs.stats).Obs.count in
  check "drops shed link samples" true (links r1 < links r0)

(* ------------------------------------------------------------------ *)
(* Campaign-level equivalence                                          *)
(* ------------------------------------------------------------------ *)

let small_grid ?net () =
  let net = match net with None -> [ None ] | Some p -> [ Some p ] in
  Campaign.Grid.product ~name:"net-test" ~net
    ~graphs:[ ("cycle:5", 1) ]
    ~algos:[ Campaign.Scenario.A1; Campaign.Scenario.A2 ]
    ~placements:(fun _ ~f:_ -> [ Nodeset.singleton 2 ])
    ~strategies:[ Lbc_adversary.Strategy.Flip_forwards ]
    ~inputs:Campaign.Grid.unanimous_inputs ()

let run_grid grid =
  let config = { Campaign.Runner.default with domains = 1 } in
  Campaign.Runner.run_exn ~config grid

let test_campaign_ideal_bytes_identical () =
  let a = run_grid (small_grid ()) in
  let b = run_grid (small_grid ~net:Net.ideal ()) in
  check_str "deterministic portions byte-identical"
    (Campaign.Artifact.deterministic_string a)
    (Campaign.Artifact.deterministic_string b);
  check "no sim entries without latency" true
    (Campaign.Artifact.sim_stats a = [])

let test_campaign_profiled_deterministic () =
  let a = run_grid (small_grid ~net:Net.wan ()) in
  let b = run_grid (small_grid ~net:Net.wan ()) in
  check_str "profiled campaign reproduces byte-for-byte"
    (Campaign.Artifact.deterministic_string a)
    (Campaign.Artifact.deterministic_string b);
  let entries = Campaign.Artifact.sim_stats a in
  check "sim entries present" true (entries <> []);
  List.iter
    (fun (e : Campaign.Artifact.sim_entry) ->
      check "family carries the net segment" true
        (String.length e.Campaign.Artifact.family >= 7
        && String.sub e.Campaign.Artifact.family
             (String.length e.Campaign.Artifact.family - 7)
             7
           = "net=wan");
      check "percentiles ordered" true
        (e.Campaign.Artifact.p50_ns <= e.Campaign.Artifact.p99_ns
        && e.Campaign.Artifact.p99_ns <= e.Campaign.Artifact.max_ns);
      check "positive sim time" true (e.Campaign.Artifact.p50_ns > 0))
    entries;
  (* verdicts round-trip through JSON with their sim_ns intact *)
  match
    Campaign.Artifact.of_string (Campaign.Artifact.to_string a)
  with
  | Error e -> Alcotest.failf "artifact round-trip: %s" e
  | Ok a' ->
      Array.iteri
        (fun i (v : Campaign.Scenario.verdict) ->
          check_int "sim_ns round-trips" v.Campaign.Scenario.sim_ns
            a'.Campaign.Artifact.verdicts.(i).Campaign.Scenario.sim_ns;
          check "sim_ns positive" true (v.Campaign.Scenario.sim_ns > 0))
        a.Campaign.Artifact.verdicts

let test_scenario_id_and_repro () =
  let scenarios = Campaign.Grid.to_array (small_grid ~net:Net.wan ()) in
  let s = scenarios.(0) in
  let id = Campaign.Scenario.id s in
  let has_suffix suffix str =
    String.length str >= String.length suffix
    && String.sub str (String.length str - String.length suffix)
         (String.length suffix)
       = suffix
  in
  check "id carries |net=wan" true (has_suffix "|net=wan" id);
  let repro = Campaign.Scenario.repro_command s ~seed:7 in
  check "repro carries --net wan" true
    (has_suffix "--net wan --seed 7" repro);
  (* the ideal profile keeps the historical spelling on both *)
  let ideal = Campaign.Grid.to_array (small_grid ~net:Net.ideal ()) in
  let none = Campaign.Grid.to_array (small_grid ()) in
  check_str "ideal id = no-net id"
    (Campaign.Scenario.id none.(0))
    (Campaign.Scenario.id ideal.(0))

(* ------------------------------------------------------------------ *)
(* 70+-node flood under delay: multi-word bitset regression            *)
(* ------------------------------------------------------------------ *)

(* Node ids beyond 62 span two Nodeset bitset words; flooding under a
   latency profile plus delay chaos exercises disjoint-path queries over
   records whose paths cross the word boundary. The flood discipline
   discards copies that arrive outside their synchronous round, so under
   delay chaos only on-time copies are recorded — the assertions ask for
   determinism and a consistent store, not full delivery. *)
let flood_under_delay () =
  let n = 72 in
  let g = B.cycle n in
  let topo = Lbc_sim.Engine.topology_of_graph g in
  let chaos = { P.zero with P.delay = 2; delay_p = 0.2 } in
  let run () =
    let roles =
      Array.init n (fun v ->
          Lbc_sim.Engine.Honest
            (Lbc_flood.Flood.proc
               (Lbc_flood.Flood.create g ~me:v ~vcompare:Bit.compare
                  ?initiate:(if v = 0 then Some Bit.One else None)
                  ())))
    in
    Net.with_net Net.wan ~seed:5 (fun () ->
        P.with_chaos chaos ~seed:11 (fun () ->
            Lbc_sim.Engine.run topo ~model:Lbc_sim.Engine.Local_broadcast
              ~rounds:(Lbc_flood.Flood.rounds_needed g + 2)
              ~roles))
  in
  let r1, sim1 = run () in
  let r2, sim2 = run () in
  check "sim time positive on the 72-cycle" true (sim1 > 0);
  check_int "sim time deterministic" sim1 sim2;
  let store outputs v =
    match outputs.(v) with
    | Some s -> s
    | None -> Alcotest.failf "node %d produced no store" v
  in
  (* every node's record store is reproduced exactly *)
  for v = 0 to n - 1 do
    check "records deterministic" true
      (Lbc_flood.Flood.records (store r1.Lbc_sim.Engine.outputs v)
      = Lbc_flood.Flood.records (store r2.Lbc_sim.Engine.outputs v))
  done;
  (* node 63 sits just past the 62-bit word boundary of Nodeset and is
     reached from the origin over the backward arc; with this seed its
     on-time copies survive the delay chaos, so its store must assemble
     at least one disjoint path for the origin's value *)
  let boundary = store r1.Lbc_sim.Engine.outputs 63 in
  check "origin value crosses the word boundary on >= 1 disjoint path" true
    (Lbc_flood.Flood.disjoint_count boundary ~origin:0 ~value:Bit.One () >= 1);
  let high = store r1.Lbc_sim.Engine.outputs 70 in
  check "high-id node records the origin value" true
    (List.exists
       (fun (origin, _, value) -> origin = 0 && Bit.equal value Bit.One)
       (Lbc_flood.Flood.records high))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [
      ( "profile",
        [
          Alcotest.test_case "named profiles" `Quick test_parse_named;
          Alcotest.test_case "const profiles" `Quick test_parse_const;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "is_ideal" `Quick test_is_ideal;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "latency deterministic" `Quick
            test_latency_deterministic;
          Alcotest.test_case "latency semantics" `Quick test_latency_semantics;
          Alcotest.test_case "seed sensitivity" `Quick
            test_seed_changes_latencies;
          Alcotest.test_case "with_net scoping" `Quick test_with_net_scoping;
        ] );
      ( "engine",
        Alcotest.test_case "profiled run reproducible" `Quick
          test_profiled_run_reproducible
        :: Alcotest.test_case "composes with chaos" `Quick
             test_profiled_run_composes_with_chaos
        :: qt [ prop_ideal_identical ] );
      ( "campaign",
        [
          Alcotest.test_case "ideal artifact bytes identical" `Quick
            test_campaign_ideal_bytes_identical;
          Alcotest.test_case "profiled campaign deterministic" `Quick
            test_campaign_profiled_deterministic;
          Alcotest.test_case "id and repro spelling" `Quick
            test_scenario_id_and_repro;
        ] );
      ( "flood",
        [
          Alcotest.test_case "72-cycle flood under delay" `Quick
            flood_under_delay;
        ] );
    ]
