(* Tests for the Solve front door: feasibility gating and algorithm
   dispatch along the paper's efficiency frontier. *)

module Solve = Lbc_consensus.Solve
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module Cond = Lbc_graph.Conditions
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module S = Lbc_adversary.Strategy

let check = Alcotest.(check bool)

let test_dispatch () =
  (* f = 1, 2: the tight condition already implies 2f-connectivity, so the
     efficient algorithm is always chosen (the paper's observation in
     §5.3). *)
  check "cycle f=1 efficient" true
    (Solve.choose ~g:(B.fig1a ()) ~f:1 = Ok Solve.Efficient);
  check "fig1b f=2 efficient" true
    (Solve.choose ~g:(B.fig1b ()) ~f:2 = Ok Solve.Efficient);
  (* f = 3: tight f=3 has connectivity 5 < 2f = 6: exponential only. *)
  check "tight f=3 exponential" true
    (Solve.choose ~g:(B.tight 3) ~f:3 = Ok Solve.Exponential);
  (* K7 at f=3 is 6-connected: efficient. *)
  check "K7 f=3 efficient" true
    (Solve.choose ~g:(B.complete 7) ~f:3 = Ok Solve.Efficient)

let test_refusal () =
  (match Solve.choose ~g:(B.fig1a ()) ~f:2 with
  | Error (Cond.Low_degree _) -> ()
  | _ -> Alcotest.fail "expected Low_degree refusal");
  (* two triangles joined by one cut node: min degree 2 is fine for f=1,
     the 1-cut is the (only) violation *)
  match Solve.choose ~g:(B.two_cliques_with_cut ~a:2 ~b:2 ~c:1) ~f:1 with
  | Error (Cond.Small_cut _) -> ()
  | _ -> Alcotest.fail "expected Small_cut refusal"

(* The CLI's [--algo auto]: choose, then run the choice as a scenario. *)
let test_run_roundtrip () =
  let module Scenario = Lbc_campaign.Scenario in
  let g = B.fig1a () in
  let inputs = Array.make 5 Bit.One in
  inputs.(2) <- Bit.Zero;
  (match Solve.choose ~g ~f:1 with
  | Ok Solve.Efficient ->
      let s =
        Scenario.make ~gname:"fig1a" ~build:B.fig1a ~algo:Scenario.A2 ~f:1
          ~faulty:(Nodeset.singleton 2) ~strategy:S.Flip_forwards ~inputs ()
      in
      let o, _ = Scenario.run s ~seed:0 in
      check "consensus" true
        (Spec.agreement o && Spec.decision o = Some Bit.One)
  | Ok Solve.Exponential -> Alcotest.fail "expected efficient"
  | Error _ -> Alcotest.fail "expected feasible");
  match Solve.choose ~g ~f:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected refusal at f=2"

let test_exponential_frontier () =
  (* The exponential branch exists exactly when the tight condition holds
     but 2f-connectivity does not — possible only for f >= 3 (for f = 1, 2
     the two coincide, the paper's §5.3 observation). Running tight-f=3
     end to end costs ~10 minutes of dense flooding, and Algorithm 1
     itself is exercised directly in test_algorithm1.ml, so here we pin
     the dispatch decision and the frontier's characterisation. *)
  let g = B.tight 3 in
  check "feasible" true (Cond.lbc_feasible g ~f:3);
  check "not 2f-connected" false
    (Lbc_graph.Disjoint.connectivity_at_least g 6);
  check "dispatches exponential" true
    (Solve.choose ~g ~f:3 = Ok Solve.Exponential);
  (* for f = 1 and 2 the frontier is empty: feasible => efficient *)
  List.iter
    (fun (g, f) ->
      match Solve.choose ~g ~f with
      | Ok Solve.Efficient -> ()
      | Ok Solve.Exponential -> Alcotest.fail "frontier must be empty at f<=2"
      | Error _ -> ())
    [ (B.tight 1, 1); (B.tight 2, 2); (B.fig1a (), 1); (B.fig1b (), 2) ]

let () =
  Alcotest.run "solve"
    [
      ( "dispatch",
        [
          Alcotest.test_case "frontier" `Quick test_dispatch;
          Alcotest.test_case "refusal" `Quick test_refusal;
          Alcotest.test_case "run roundtrip" `Quick test_run_roundtrip;
          Alcotest.test_case "exponential frontier" `Quick
            test_exponential_frontier;
        ] );
    ]
