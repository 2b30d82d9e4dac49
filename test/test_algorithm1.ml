(* End-to-end tests for Algorithm 1: agreement + validity on condition-
   satisfying graphs under exhaustive fault placements and adversarial
   strategies (Theorem 5.1), plus phase accounting and the reactive-proc
   equivalence. *)

module A1 = Lbc_consensus.Algorithm1
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_decides uni o =
  Spec.agreement o && Spec.validity o && Spec.decision o = Some uni

let test_no_faults_unanimous () =
  let g = B.fig1a () in
  List.iter
    (fun uni ->
      let o =
        A1.run ~g ~f:1 ~inputs:(Array.make 5 uni) ~faulty:Nodeset.empty ()
      in
      check "decides unanimous" true (ok_decides uni o))
    [ Bit.Zero; Bit.One ]

let test_no_faults_mixed () =
  let g = B.fig1a () in
  let o =
    A1.run ~g ~f:1
      ~inputs:[| Bit.Zero; Bit.One; Bit.Zero; Bit.One; Bit.One |]
      ~faulty:Nodeset.empty ()
  in
  check "consensus" true (Spec.consensus_ok o)

let test_cycle_f1_exhaustive () =
  (* Figure 1(a): every fault placement, every broadcast-bound strategy,
     unanimous honest inputs — the decision must be the unanimous value. *)
  let g = B.fig1a () in
  List.iter
    (fun uni ->
      List.iter
        (fun kind ->
          List.iter
            (fun bad ->
              let inputs = Array.make 5 uni in
              inputs.(bad) <- Bit.flip uni;
              let o =
                A1.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
                  ~strategy:(fun _ -> kind) ()
              in
              check
                (Format.asprintf "uni=%a bad=%d %a" Bit.pp uni bad S.pp_kind
                   kind)
                true (ok_decides uni o))
            [ 0; 1; 2; 3; 4 ])
        S.kinds_lbc)
    [ Bit.Zero; Bit.One ]

let test_cycle_f1_mixed_inputs () =
  let g = B.fig1a () in
  List.iter
    (fun bad ->
      List.iter
        (fun seed ->
          let st = Random.State.make [| seed |] in
          let inputs =
            Array.init 5 (fun _ -> Bit.of_bool (Random.State.bool st))
          in
          let o =
            A1.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
              ~strategy:(fun _ -> S.Flip_forwards) ~seed ()
          in
          check "consensus" true (Spec.consensus_ok o))
        [ 0; 1; 2 ])
    [ 0; 3 ]

let test_fig1b_f2 () =
  (* Figure 1(b): f = 2. A slower sweep over fault pairs and two strategy
     mixes. *)
  let g = B.fig1b () in
  List.iter
    (fun (i, j) ->
      List.iter
        (fun uni ->
          List.iter
            (fun (k1, k2) ->
              let inputs = Array.make 8 uni in
              inputs.(i) <- Bit.flip uni;
              inputs.(j) <- Bit.flip uni;
              let o =
                A1.run ~g ~f:2 ~inputs ~faulty:(Nodeset.of_list [ i; j ])
                  ~strategy:(fun v -> if v = i then k1 else k2) ()
              in
              check
                (Printf.sprintf "pair (%d,%d)" i j)
                true (ok_decides uni o))
            [ (S.Flip_forwards, S.Lie); (S.Silent, S.Spurious 2) ])
        [ Bit.Zero; Bit.One ])
    [ (0, 1); (0, 4); (2, 6) ]

let test_single_fault_under_budget_f2 () =
  (* Fewer actual faults than the budget must also work. *)
  let g = B.fig1b () in
  let inputs = Array.make 8 Bit.Zero in
  inputs.(3) <- Bit.One;
  let o =
    A1.run ~g ~f:2 ~inputs ~faulty:(Nodeset.singleton 3)
      ~strategy:(fun _ -> S.Flip_forwards) ()
  in
  check "consensus" true (ok_decides Bit.Zero o)

let test_tight_graph_f1 () =
  (* The minimal condition-tight graph for f = 1 (4 nodes). *)
  let g = B.tight 1 in
  List.iter
    (fun bad ->
      let inputs = Array.make (G.size g) Bit.One in
      inputs.(bad) <- Bit.Zero;
      let o =
        A1.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
          ~strategy:(fun _ -> S.Flip_forwards) ()
      in
      check "consensus on tight graph" true (ok_decides Bit.One o))
    (G.nodes g)

let test_complete_2fp1 () =
  (* K_{2f+1} satisfies the condition for any f (here f = 1, K3). *)
  let g = B.complete 3 in
  let inputs = [| Bit.Zero; Bit.Zero; Bit.One |] in
  let o =
    A1.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton 2)
      ~strategy:(fun _ -> S.Lie) ()
  in
  check "K3 f=1" true (ok_decides Bit.Zero o)

let test_phase_accounting () =
  let g = B.fig1a () in
  check_int "phases n=5 f=1" 6 (A1.phases ~g ~f:1);
  check_int "rounds" 30 (A1.rounds ~g ~f:1);
  let o =
    A1.run ~g ~f:1 ~inputs:(Array.make 5 Bit.One) ~faulty:Nodeset.empty ()
  in
  check_int "outcome phases" 6 o.Spec.phases;
  check_int "outcome rounds" 30 o.Spec.rounds

let test_proc_equivalent_to_run () =
  (* Running the reactive procs on the plain engine must reproduce the
     driver's outputs. *)
  let g = B.fig1a () in
  let inputs = [| Bit.Zero; Bit.One; Bit.One; Bit.Zero; Bit.One |] in
  let o = A1.run ~g ~f:1 ~inputs ~faulty:Nodeset.empty () in
  let topo = Engine.topology_of_graph g in
  let paths = Lbc_flood.Path_intern.create g in
  let roles =
    Array.init 5 (fun v ->
        Engine.Honest (A1.proc ~g ~f:1 ~paths ~me:v ~input:inputs.(v)))
  in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds:(A1.rounds ~g ~f:1)
      ~roles
  in
  Array.iteri
    (fun v out ->
      check
        (Printf.sprintf "node %d equal" v)
        true
        (Some out = o.Spec.outputs.(v) || out = Option.get o.Spec.outputs.(v)))
    (Array.map Option.get r.Engine.outputs)

let test_bad_args () =
  let g = B.fig1a () in
  check "short inputs" true
    (match A1.run ~g ~f:1 ~inputs:[| Bit.One |] ~faulty:Nodeset.empty () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "negative f" true
    (match
       A1.run ~g ~f:(-1) ~inputs:(Array.make 5 Bit.One) ~faulty:Nodeset.empty ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Property: random feasible graph, random fault, random strategy ->
   consensus. Kept small: f = 1 on random 2-connected graphs. *)
let prop_random_f1 =
  QCheck.Test.make ~name:"random feasible graphs reach consensus (f=1)"
    ~count:12
    QCheck.(triple (int_range 5 7) (int_range 0 999) (int_range 0 5))
    (fun (n, seed, kind_idx) ->
      if n < 5 || n > 7 || seed < 0 then true (* shrink guard *)
      else
      let g = B.random_augmented_circulant ~seed ~n ~k:2 ~extra:0.2 in
      if not (Lbc_graph.Conditions.lbc_feasible g ~f:1) then true
      else begin
        let st = Random.State.make [| seed; 7 |] in
        let inputs = Array.init n (fun _ -> Bit.of_bool (Random.State.bool st)) in
        let bad = Random.State.int st n in
        let kind = List.nth S.kinds_lbc (kind_idx mod List.length S.kinds_lbc) in
        let o =
          A1.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
            ~strategy:(fun _ -> kind) ~seed ()
        in
        Spec.consensus_ok o
      end)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "algorithm1"
    [
      ( "basic",
        [
          Alcotest.test_case "no faults unanimous" `Quick
            test_no_faults_unanimous;
          Alcotest.test_case "no faults mixed" `Quick test_no_faults_mixed;
          Alcotest.test_case "phase accounting" `Quick test_phase_accounting;
          Alcotest.test_case "bad args" `Quick test_bad_args;
          Alcotest.test_case "complete 2f+1" `Quick test_complete_2fp1;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "cycle f=1 exhaustive" `Slow
            test_cycle_f1_exhaustive;
          Alcotest.test_case "cycle f=1 mixed" `Quick test_cycle_f1_mixed_inputs;
          Alcotest.test_case "fig1b f=2" `Slow test_fig1b_f2;
          Alcotest.test_case "under budget f=2" `Slow
            test_single_fault_under_budget_f2;
          Alcotest.test_case "tight graph" `Quick test_tight_graph_f1;
        ] );
      ( "reactive",
        [ Alcotest.test_case "proc = run" `Quick test_proc_equivalent_to_run ] );
      ("properties", qt [ prop_random_f1 ]);
    ]
