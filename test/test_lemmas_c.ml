(* White-box tests of Appendix C's proof obligations, checked on live
   Algorithm 2 executions via the traced runner:

   - Lemma C.2: every message transmitted by a *faulty* node in phase 1
     is reliably attributed to it by every honest node.
   - Lemma C.3 (repaired): whenever an honest node reliably received a
     value that another honest node did not, the first one identified all
     the faults (became type A).
   - Lemma C.4: all type-B nodes reliably receive the same (origin,
     value) set in phase 1.
   - Lemma C.5: every honest node reliably receives input values from at
     least 2f other nodes.
   - Detection soundness: no honest node is ever accused. *)

module A2 = Lbc_consensus.Algorithm2
module Bit = Lbc_consensus.Bit
module Flood = Lbc_flood.Flood
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine

let check = Alcotest.(check bool)

type ctx = { g : G.t; f : int; faulty : Nodeset.t; t : A2.traced }

let mk ~g ~f ~faulty ~inputs ~strategy ~seed =
  { g; f; faulty; t = A2.run_traced ~g ~f ~inputs ~faulty ~strategy ~seed () }

let honest ctx v = not (Nodeset.mem v ctx.faulty)
let honest_nodes ctx = List.filter (honest ctx) (G.nodes ctx.g)

let reliable_set ctx v =
  match ctx.t.A2.store1.(v) with
  | None -> []
  | Some store ->
      List.concat_map
        (fun w ->
          List.map
            (fun b -> (w, b))
            (Flood.reliable_values ~f:ctx.f store ~origin:w))
        (G.nodes ctx.g)

(* Lemma C.2: faulty transmissions are reliably attributed everywhere.
   We reconstruct what each faulty node transmitted from the honest
   neighbours' heard logs (under local broadcast every neighbour hears
   the same sequence). *)
let check_lemma_c2 ctx =
  Nodeset.iter
    (fun z ->
      (* what z transmitted, per an arbitrary honest neighbour's log *)
      let witness =
        List.find_opt (fun y -> honest ctx y) (G.neighbor_list ctx.g z)
      in
      match witness with
      | None -> ()
      | Some y ->
          let sent =
            List.filter_map
              (fun (s, m) -> if s = z then Some m else None)
              ctx.t.A2.heard.(y)
          in
          List.iter
            (fun v ->
              if honest ctx v then begin
                match (ctx.t.A2.store2.(v), ctx.t.A2.store1.(v)) with
                | Some store2, Some _ ->
                    let learns =
                      A2.attribution_index ctx.g ~me:v
                        ~heard:ctx.t.A2.heard.(v) ~store2
                    in
                    List.iter
                      (fun m ->
                        check
                          (Printf.sprintf "C.2: %d knows %d sent" v z)
                          true
                          (A2.sent learns ~f:ctx.f ~z ~m))
                      sent
                | _ -> ()
              end)
            (honest_nodes ctx))
    ctx.faulty

(* Lemma C.3 (repaired) + C.4 *)
let check_lemma_c3_c4 ctx =
  let type_b =
    List.filter
      (fun v ->
        match ctx.t.A2.node_reports.(v) with
        | Some r -> not r.A2.type_a
        | None -> false)
      (G.nodes ctx.g)
  in
  (* C.4: all type-B nodes share one reliable set *)
  (match type_b with
  | [] -> ()
  | v0 :: rest ->
      let s0 = List.sort compare (reliable_set ctx v0) in
      List.iter
        (fun v ->
          check "C.4: same reliable sets" true
            (List.sort compare (reliable_set ctx v) = s0))
        rest);
  (* C.3: a reliable-set difference between honest nodes implies the
     better-informed one is type A *)
  List.iter
    (fun v ->
      List.iter
        (fun w ->
          if v <> w then begin
            let sv = reliable_set ctx v and sw = reliable_set ctx w in
            let extra = List.filter (fun x -> not (List.mem x sw)) sv in
            if extra <> [] then
              match ctx.t.A2.node_reports.(v) with
              | Some r ->
                  check
                    (Printf.sprintf "C.3: %d became type A" v)
                    true r.A2.type_a
              | None -> ()
          end)
        (honest_nodes ctx))
    (honest_nodes ctx)

(* Lemma C.5 *)
let check_lemma_c5 ctx =
  List.iter
    (fun v ->
      let others =
        List.filter (fun (w, _) -> w <> v) (reliable_set ctx v)
      in
      check
        (Printf.sprintf "C.5: node %d has >= 2f values" v)
        true
        (List.length others >= 2 * ctx.f))
    (honest_nodes ctx)

let check_soundness ctx =
  Array.iter
    (function
      | Some r ->
          check "detection soundness" true
            (Nodeset.subset r.A2.detected ctx.faulty)
      | None -> ())
    ctx.t.A2.node_reports

let run_all ctx =
  check_lemma_c2 ctx;
  check_lemma_c3_c4 ctx;
  check_lemma_c5 ctx;
  check_soundness ctx

let test_cycle_strategies () =
  let g = B.fig1a () in
  List.iter
    (fun kind ->
      List.iter
        (fun bad ->
          let inputs = [| Bit.Zero; Bit.One; Bit.One; Bit.Zero; Bit.One |] in
          run_all
            (mk ~g ~f:1 ~faulty:(Nodeset.singleton bad) ~inputs
               ~strategy:(fun _ -> kind) ~seed:11))
        [ 0; 2; 4 ])
    [
      S.Flip_forwards; S.Silent; S.Crash_at 2; S.Lie;
      S.Omit_from (Nodeset.of_list [ 0; 1 ]); S.Spurious 2;
    ]

let test_no_faults () =
  let g = B.cycle 6 in
  let inputs = Array.init 6 (fun i -> Bit.of_int (i land 1)) in
  run_all
    (mk ~g ~f:1 ~faulty:Nodeset.empty ~inputs
       ~strategy:(fun _ -> S.Silent) ~seed:0)

let test_fig1b_f2 () =
  let g = B.fig1b () in
  let inputs = Array.init 8 (fun i -> Bit.of_int ((i / 3) land 1)) in
  run_all
    (mk ~g ~f:2
       ~faulty:(Nodeset.of_list [ 2; 7 ])
       ~inputs
       ~strategy:(fun v -> if v = 2 then S.Silent else S.Flip_forwards)
       ~seed:4)

let () =
  Alcotest.run "lemmas-c"
    [
      ( "algorithm 2 proof obligations",
        [
          Alcotest.test_case "cycle strategies" `Slow test_cycle_strategies;
          Alcotest.test_case "no faults" `Quick test_no_faults;
          Alcotest.test_case "fig1b f=2" `Slow test_fig1b_f2;
        ] );
    ]
