(* Tests for the necessity gadgets (Appendix A): the doubled network must
   satisfy both validity groups when the protocol is run on it, and the
   replayed execution E2 must violate agreement on the original graph. *)

module Gadget = Lbc_lowerbound.Gadget
module A1 = Lbc_consensus.Algorithm1
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)

(* [proc] with every inbox watched: the returned counter tallies the
   received wires whose table is not the [paths] the gadget handed to
   the receiving process. A gadget shares one table across execution E
   and its replay, so the count stays 0. *)
let counting_foreign (proc : Gadget.proc_family) =
  let foreign = ref 0 in
  let family ~paths ~me ~input =
    let inner = proc ~paths ~me ~input in
    {
      inner with
      Lbc_sim.Engine.step =
        (fun ~round ~inbox ->
          List.iter
            (fun (_, (m : Bit.t Lbc_flood.Flood.wire)) ->
              if m.Lbc_flood.Flood.home != paths then incr foreign)
            inbox;
          inner.Lbc_sim.Engine.step ~round ~inbox);
    }
  in
  (family, foreign)

(* Run the gadget and the E2 replay through [counting_foreign], checking
   after each that no process received a wire of another table. *)
let run_and_replay name gadget ~proc ~rounds =
  let proc, foreign = counting_foreign proc in
  let v = Gadget.run gadget ~proc ~rounds in
  Alcotest.(check int) (name ^ ": E reads one table") 0 !foreign;
  let o = Gadget.replay_e2 gadget ~proc ~rounds in
  Alcotest.(check int) (name ^ ": E2 reads one table") 0 !foreign;
  (v, o)

let attack name gadget g f =
  let v, o =
    run_and_replay name gadget ~proc:(A1.proc ~g ~f) ~rounds:(A1.rounds ~g ~f)
  in
  check (name ^ ": zero group") true v.Gadget.group_zero_ok;
  check (name ^ ": one group") true v.Gadget.group_one_ok;
  check (name ^ ": split") true v.Gadget.split;
  check (name ^ ": E2 violates agreement") false (Spec.agreement o);
  (* the violation splits along the advertised sides *)
  let side_a, side_b = Gadget.e2_sides gadget in
  let all_same side =
    let outs =
      List.filter_map (fun u -> o.Spec.outputs.(u)) (Nodeset.elements side)
    in
    match outs with
    | [] -> None
    | b :: rest -> if List.for_all (Bit.equal b) rest then Some b else None
  in
  match (all_same side_a, all_same side_b) with
  | Some a, Some b ->
      check (name ^ ": sides disagree") true (not (Bit.equal a b))
  | _ -> Alcotest.fail (name ^ ": sides are not internally unanimous")

let test_degree_pendant () =
  (* f=1, a node of degree 1 < 2 hanging off a 4-cycle. *)
  let g = G.of_edges 5 [ (1, 2); (2, 3); (3, 4); (4, 1); (0, 1) ] in
  attack "degree pendant" (Gadget.degree_gadget g ~f:1 ()) g 1

let test_degree_explicit_z () =
  let g = G.of_edges 5 [ (1, 2); (2, 3); (3, 4); (4, 1); (0, 1) ] in
  let gadget = Gadget.degree_gadget g ~f:1 ~z:0 () in
  attack "degree explicit z" gadget g 1

let test_degree_rejects_good_node () =
  (* In the 5-cycle every node has degree 2 = 2f: no gadget possible. *)
  let g = B.fig1a () in
  check "rejects" true
    (match Gadget.degree_gadget g ~f:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_connectivity_cut1 () =
  (* f=1, cut of size 1 = floor(3/2): two triangles sharing a cut node. *)
  let g = B.two_cliques_with_cut ~a:2 ~b:2 ~c:1 in
  attack "connectivity cut1" (Gadget.connectivity_gadget g ~f:1 ()) g 1

let test_connectivity_path () =
  (* The path graph is 1-connected: also a valid f=1 counterexample
     (its middle node is a cut). *)
  let g = B.path_graph 5 in
  attack "connectivity path" (Gadget.connectivity_gadget g ~f:1 ()) g 1

let test_connectivity_rejects_well_connected () =
  let g = B.complete 5 in
  check "rejects complete" true
    (match Gadget.connectivity_gadget g ~f:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* fig1b is 4-connected: the minimum cut (4) exceeds floor(3/2) = 1. *)
  let g2 = B.fig1b () in
  check "rejects 4-connected for f=1" true
    (match Gadget.connectivity_gadget g2 ~f:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_degree_f2_sparse () =
  (* f=2: remove one edge of the 4-regular circulant so node 0 has degree
     3 < 4. Slow: 37 phases on 12 gadget nodes. *)
  let g = B.fig1b () in
  G.remove_edge g 0 1;
  attack "degree f2" (Gadget.degree_gadget g ~f:2 ~z:0 ()) g 2

(* ------------------------------------------------------------------ *)
(* Hybrid gadgets (Lemmas D.1 and D.2)                                  *)
(* ------------------------------------------------------------------ *)

let attack_hybrid name gadget g f t =
  let module A3 = Lbc_consensus.Algorithm3 in
  let v, o =
    run_and_replay name gadget ~proc:(A3.proc ~g ~f ~t)
      ~rounds:(A3.phases ~g ~f ~t * G.size g)
  in
  check (name ^ ": split") true v.Gadget.split;
  check (name ^ ": E2 violates agreement") false (Spec.agreement o);
  check
    (name ^ ": fault budget")
    true
    (Nodeset.cardinal (Gadget.e2_faulty gadget) <= f)

let test_hybrid_neighborhood () =
  (* f = t = 1: node 0 has 2 <= 2f neighbours; the rest is K4. *)
  let g =
    G.of_edges 5
      [ (0, 1); (0, 2); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ]
  in
  attack_hybrid "D.1"
    (Gadget.hybrid_neighborhood_gadget g ~f:1 ~t:1 ~s:(Nodeset.singleton 0) ())
    g 1 1

let test_hybrid_neighborhood_auto_s () =
  let g =
    G.of_edges 5
      [ (0, 1); (0, 2); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ]
  in
  let gadget = Gadget.hybrid_neighborhood_gadget g ~f:1 ~t:1 () in
  attack_hybrid "D.1 auto" gadget g 1 1

let test_hybrid_connectivity () =
  (* f = t = 1: a 2-cut {2,5} between two triangles. Note this graph IS
     feasible under pure local broadcast for f = 1 — only the
     equivocation capability breaks it, which is exactly the hybrid
     trade-off. *)
  let g =
    G.of_edges 6
      [
        (0, 1); (0, 2); (0, 5); (1, 2); (1, 5); (3, 4); (3, 2); (3, 5);
        (4, 2); (4, 5); (2, 5);
      ]
  in
  check "LBC-feasible at f=1" true (Lbc_graph.Conditions.lbc_feasible g ~f:1);
  check "hybrid-infeasible at f=t=1" false
    (Lbc_graph.Conditions.hybrid_feasible g ~f:1 ~t:1);
  attack_hybrid "D.2" (Gadget.hybrid_connectivity_gadget g ~f:1 ~t:1 ()) g 1 1

let test_hybrid_rejects () =
  check "D.1 rejects rich neighbourhoods" true
    (match Gadget.hybrid_neighborhood_gadget (B.complete 6) ~f:1 ~t:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check "D.2 rejects big cuts" true
    (match Gadget.hybrid_connectivity_gadget (B.fig1b ()) ~f:1 ~t:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_e2_fault_budget () =
  (* The replayed execution uses at most f faulty nodes. *)
  let g = B.two_cliques_with_cut ~a:2 ~b:2 ~c:1 in
  let gadget = Gadget.connectivity_gadget g ~f:1 () in
  check "budget" true (Nodeset.cardinal (Gadget.e2_faulty gadget) <= 1);
  let g2 = G.of_edges 5 [ (1, 2); (2, 3); (3, 4); (4, 1); (0, 1) ] in
  let gadget2 = Gadget.degree_gadget g2 ~f:1 () in
  check "budget degree" true (Nodeset.cardinal (Gadget.e2_faulty gadget2) <= 1)

(* Property: on random small infeasible graphs, the certificate picks the
   matching gadget and the attack succeeds end to end. *)
let prop_random_gadgets =
  QCheck.Test.make ~name:"random infeasible graphs are attackable" ~count:6
    QCheck.(pair (int_range 5 6) (int_range 0 200))
    (fun (n, seed) ->
      let g = B.random_gnp ~seed n 0.45 in
      if not (Lbc_graph.Traversal.is_connected g) then true
      else begin
        let f = 1 in
        match Lbc_graph.Conditions.lbc_explain g ~f with
        | Lbc_graph.Conditions.Feasible -> true
        | Lbc_graph.Conditions.Low_degree z ->
            let gadget = Gadget.degree_gadget g ~f ~z () in
            let proc = A1.proc ~g ~f in
            let rounds = A1.rounds ~g ~f in
            let v = Gadget.run gadget ~proc ~rounds in
            let o = Gadget.replay_e2 gadget ~proc ~rounds in
            v.Gadget.split && not (Spec.agreement o)
        | Lbc_graph.Conditions.Small_cut cut ->
            let gadget = Gadget.connectivity_gadget g ~f ~cut () in
            let proc = A1.proc ~g ~f in
            let rounds = A1.rounds ~g ~f in
            let v = Gadget.run gadget ~proc ~rounds in
            let o = Gadget.replay_e2 gadget ~proc ~rounds in
            v.Gadget.split && not (Spec.agreement o)
        | Lbc_graph.Conditions.Too_few_nodes
        | Lbc_graph.Conditions.Starved_set _ ->
            true
      end)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "lowerbound"
    [
      ( "degree (Lemma A.1)",
        [
          Alcotest.test_case "pendant f=1" `Quick test_degree_pendant;
          Alcotest.test_case "explicit z" `Quick test_degree_explicit_z;
          Alcotest.test_case "rejects good graphs" `Quick
            test_degree_rejects_good_node;
          Alcotest.test_case "sparse f=2" `Slow test_degree_f2_sparse;
        ] );
      ( "connectivity (Lemma A.2)",
        [
          Alcotest.test_case "cut of size 1" `Quick test_connectivity_cut1;
          Alcotest.test_case "path graph" `Quick test_connectivity_path;
          Alcotest.test_case "rejects good graphs" `Quick
            test_connectivity_rejects_well_connected;
        ] );
      ( "hybrid (Lemmas D.1/D.2)",
        [
          Alcotest.test_case "neighbourhood" `Slow test_hybrid_neighborhood;
          Alcotest.test_case "neighbourhood auto S" `Slow
            test_hybrid_neighborhood_auto_s;
          Alcotest.test_case "connectivity" `Slow test_hybrid_connectivity;
          Alcotest.test_case "rejections" `Quick test_hybrid_rejects;
        ] );
      ( "budget",
        [ Alcotest.test_case "E2 fault budget" `Quick test_e2_fault_budget ] );
      ("properties", qt [ prop_random_gadgets ]);
    ]
