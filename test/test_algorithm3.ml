(* End-to-end tests for Algorithm 3 (hybrid model, Theorem 6.1). *)

module A1 = Lbc_consensus.Algorithm1
module A3 = Lbc_consensus.Algorithm3
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_decides uni o =
  Spec.agreement o && Spec.validity o && Spec.decision o = Some uni

let test_phase_count () =
  let g = B.complete 4 in
  (* t=0: like Algorithm 1. *)
  check_int "t=0 matches A1" (A1.phases ~g ~f:1) (A3.phases ~g ~f:1 ~t:0);
  (* f=t=1 on K4: T in {∅, {0..3}} = 5 choices; |T|=0 -> F <= 1 (5),
     |T|=1 -> F = ∅ only (1 each): 5 + 4 = 9. *)
  check_int "f=t=1 on K4" 9 (A3.phases ~g ~f:1 ~t:1)

let test_t0_equals_algorithm1 () =
  (* With t = 0 the hybrid algorithm must behave exactly like
     Algorithm 1 on the same execution. *)
  let g = B.fig1a () in
  let inputs = [| Bit.Zero; Bit.One; Bit.Zero; Bit.One; Bit.One |] in
  let o1 =
    A1.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton 2)
      ~strategy:(fun _ -> S.Flip_forwards) ()
  in
  let o3 =
    A3.run ~g ~f:1 ~t:0 ~inputs ~faulty:(Nodeset.singleton 2)
      ~strategy:(fun _ -> S.Flip_forwards) ()
  in
  check "same outputs" true (o1.Spec.outputs = o3.Spec.outputs);
  check_int "same phases" o1.Spec.phases o3.Spec.phases

let test_k4_equivocator_exhaustive () =
  (* K4, f = t = 1 (the point-to-point adversary); n = 4 = 3f + 1. *)
  let g = B.complete 4 in
  List.iter
    (fun uni ->
      List.iter
        (fun kind ->
          List.iter
            (fun bad ->
              let inputs = Array.make 4 uni in
              inputs.(bad) <- Bit.flip uni;
              let o =
                A3.run ~g ~f:1 ~t:1 ~inputs ~faulty:(Nodeset.singleton bad)
                  ~equivocators:(Nodeset.singleton bad)
                  ~strategy:(fun _ -> kind) ()
              in
              check
                (Format.asprintf "uni=%a bad=%d %a" Bit.pp uni bad S.pp_kind
                   kind)
                true (ok_decides uni o))
            [ 0; 1; 2; 3 ])
        S.kinds_hybrid)
    [ Bit.Zero; Bit.One ]

let test_k6_mixed_faults () =
  (* K6 satisfies the hybrid condition for f = 2, t = 1: one equivocator
     plus one broadcast-bound fault. *)
  let g = B.complete 6 in
  List.iter
    (fun uni ->
      List.iter
        (fun (i, j) ->
          let inputs = Array.make 6 uni in
          inputs.(i) <- Bit.flip uni;
          inputs.(j) <- Bit.flip uni;
          let o =
            A3.run ~g ~f:2 ~t:1 ~inputs ~faulty:(Nodeset.of_list [ i; j ])
              ~equivocators:(Nodeset.singleton i)
              ~strategy:(fun v -> if v = i then S.Equivocate else S.Flip_forwards)
              ()
          in
          check (Printf.sprintf "pair (%d,%d)" i j) true (ok_decides uni o))
        [ (0, 1); (2, 5) ])
    [ Bit.Zero; Bit.One ]

let test_mixed_inputs_k6 () =
  let g = B.complete 6 in
  let inputs =
    [| Bit.Zero; Bit.One; Bit.Zero; Bit.One; Bit.Zero; Bit.One |]
  in
  let o =
    A3.run ~g ~f:2 ~t:1 ~inputs ~faulty:(Nodeset.of_list [ 1; 4 ])
      ~equivocators:(Nodeset.singleton 4)
      ~strategy:(fun v -> if v = 4 then S.Equivocate else S.Lie)
      ()
  in
  check "consensus" true (Spec.consensus_ok o)

let test_proc_equivalent_to_run () =
  (* The reactive hybrid procs on the plain engine reproduce the driver
     (fault-free execution: equivocation requires a faulty driver). *)
  let g = B.complete 4 in
  let inputs = [| Bit.Zero; Bit.One; Bit.One; Bit.Zero |] in
  let o = A3.run ~g ~f:1 ~t:1 ~inputs ~faulty:Nodeset.empty () in
  let module Engine = Lbc_sim.Engine in
  let topo = Engine.topology_of_graph g in
  let paths = Lbc_flood.Path_intern.create g in
  let roles =
    Array.init 4 (fun v ->
        Engine.Honest (A3.proc ~g ~f:1 ~t:1 ~paths ~me:v ~input:inputs.(v)))
  in
  let rounds = A3.phases ~g ~f:1 ~t:1 * 4 in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds ~roles in
  Array.iteri
    (fun v out ->
      check
        (Printf.sprintf "node %d equal" v)
        true
        (Some (Option.get out) = o.Spec.outputs.(v)))
    r.Engine.outputs

let test_bad_args () =
  let g = B.complete 4 in
  check "t > f" true
    (match
       A3.run ~g ~f:1 ~t:2 ~inputs:(Array.make 4 Bit.One)
         ~faulty:Nodeset.empty ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "algorithm3"
    [
      ( "structure",
        [
          Alcotest.test_case "phase count" `Quick test_phase_count;
          Alcotest.test_case "t=0 equals A1" `Quick test_t0_equals_algorithm1;
          Alcotest.test_case "proc = run" `Quick test_proc_equivalent_to_run;
          Alcotest.test_case "bad args" `Quick test_bad_args;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "K4 equivocator exhaustive" `Slow
            test_k4_equivocator_exhaustive;
          Alcotest.test_case "K6 mixed faults" `Slow test_k6_mixed_faults;
          Alcotest.test_case "K6 mixed inputs" `Quick test_mixed_inputs_k6;
        ] );
    ]
