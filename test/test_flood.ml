(* Tests for path-annotated flooding: the four rules, the missing-message
   default, end-to-end floods, disjoint-path counting (packing) and
   reliable receive (Definition C.1). *)

module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module Engine = Lbc_sim.Engine
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A wire as (value, path): wires hold their table, so tests compare
   these views, never the wires. *)
let view (m : int Flood.wire) = (m.Flood.value, Flood.wire_path m)

(* Deliver (value, path) as a wire of the receiving store's own table,
   the case every execution takes. *)
let handle st ~round ~from value path =
  Option.map view
    (Flood.handle st ~round ~from (Flood.wire (Flood.paths st) value path))

(* ------------------------------------------------------------------ *)
(* handle: rules (i)-(iv)                                               *)
(* ------------------------------------------------------------------ *)

let test_rule_i_bad_path () =
  let g = B.cycle 5 in
  let st = Flood.create g ~me:0 ~vcompare:Int.compare () in
  (* 3 is not adjacent to 1, so path [3] relayed by 1 is invalid. *)
  check "invalid path dropped" true
    (handle st ~round:2 ~from:1 7 [ 3 ] = None);
  (* Sender must be a neighbour: 2 is not adjacent to 0 in the 5-cycle. *)
  check "non-neighbour sender dropped" true
    (handle st ~round:1 ~from:2 7 [] = None);
  (* Path containing duplicates is not simple. *)
  check "non-simple dropped" true
    (handle st ~round:3 ~from:1 7 [ 1; 2 ] = None)

let test_rule_i_timing () =
  (* Synchronous timing: a k-hop annotation is only acceptable in round
     k+1 — late or early (fabricated) messages are dropped. *)
  let g = B.cycle 5 in
  let st = Flood.create g ~me:0 ~vcompare:Int.compare () in
  check "late initiation dropped" true
    (handle st ~round:3 ~from:1 7 [] = None);
  check "early long path dropped" true
    (handle st ~round:1 ~from:1 7 [ 2 ] = None);
  check "on-time accepted" true
    (handle st ~round:2 ~from:1 7 [ 2 ] <> None)

let test_rule_ii_dedup () =
  let g = B.cycle 5 in
  let st = Flood.create g ~me:0 ~vcompare:Int.compare () in
  (match handle st ~round:1 ~from:1 7 [] with
  | Some fwd ->
      check "forwards with sender appended" true
        (fwd = (7, [ 1 ]))
  | None -> Alcotest.fail "first message accepted");
  (* Same (sender, path) key again - even with a different value. *)
  check "duplicate key dropped" true
    (handle st ~round:1 ~from:1 8 [] = None);
  (* Different path from the same sender is fine. *)
  check "different key ok" true
    (handle st ~round:2 ~from:1 9 [ 2 ] <> None)

let test_rule_iii_self_in_path () =
  let g = B.cycle 5 in
  let st = Flood.create g ~me:0 ~vcompare:Int.compare () in
  check "own id in path dropped" true
    (handle st ~round:5 ~from:4 7 [ 0; 1; 2; 3 ] = None)

let test_rule_iv_record () =
  let g = B.cycle 5 in
  let st = Flood.create g ~me:0 ~vcompare:Int.compare () in
  let (_ : (int * int list) option) =
    handle st ~round:2 ~from:1 7 [ 2 ]
  in
  check "recorded along full path" true
    (Flood.value_along st ~path:[ 2; 1; 0 ] = Some 7);
  check "origin values" true (Flood.origin_values st ~origin:2 = [ 7 ])

let test_own_initiation_recorded () =
  let g = B.cycle 5 in
  let st = Flood.create g ~me:3 ~vcompare:Int.compare ~initiate:42 () in
  check "own trivial path" true (Flood.value_along st ~path:[ 3 ] = Some 42);
  check "own value" true (Flood.own_value st = Some 42)

let test_synthesize_defaults () =
  let g = B.cycle 5 in
  let st = Flood.create g ~me:0 ~vcompare:Int.compare ~default:99 () in
  (* Neighbour 1 initiated; neighbour 4 stayed silent. *)
  let (_ : (int * int list) option) = handle st ~round:1 ~from:1 7 [] in
  let fwds = Flood.synthesize_defaults st in
  check_int "one default" 1 (List.length fwds);
  check "default forwarded for 4" true (view (List.hd fwds) = (99, [ 4 ]));
  check "default recorded" true (Flood.value_along st ~path:[ 4; 0 ] = Some 99);
  (* Idempotent. *)
  check "second call empty" true (Flood.synthesize_defaults st = []);
  (* A genuine initiation by 4 handled after the defaults were
     synthesized is still accepted — bootstrap entries live in their own
     table and must not burn the rule-(ii) key [(4, ⊥)] — and it
     supersedes the synthesized record. *)
  check "late initiation accepted" true
    (handle st ~round:1 ~from:4 7 [] = Some (7, [ 4 ]));
  check "genuine value supersedes default" true
    (Flood.value_along st ~path:[ 4; 0 ] = Some 7);
  (* Rule (ii) still applies to the genuine message itself. *)
  check "second delivery deduped" true
    (handle st ~round:1 ~from:4 7 [] = None)

(* Regression for the bootstrap-aliasing bug: synthesized defaults used
   to be inserted into the rule-(ii) dedup table under the same key
   [(w, ⊥)] as a genuine empty-path initiation, so an adversarially
   delayed round-1 message from [w] was silently masked and the node was
   stuck with the default forever. *)
let test_bootstrap_not_masking () =
  let g = B.cycle 5 in
  let st = Flood.create g ~me:0 ~vcompare:Int.compare ~default:99 () in
  (* Every neighbour silent: both 1 and 4 get the default. *)
  let fwds = Flood.synthesize_defaults st in
  check_int "two defaults" 2 (List.length fwds);
  check "default for 1" true (Flood.value_along st ~path:[ 1; 0 ] = Some 99);
  (* Crafted message: 1's real initiation arrives only after synthesis. *)
  check "crafted round-1 message not masked" true
    (handle st ~round:1 ~from:1 123 [] = Some (123, [ 1 ]));
  check "record overwritten" true
    (Flood.value_along st ~path:[ 1; 0 ] = Some 123);
  check "origin values collapse to the genuine one" true
    (Flood.origin_values st ~origin:1 = [ 123 ]);
  (* 4 stays on the default. *)
  check "silent neighbour keeps default" true
    (Flood.value_along st ~path:[ 4; 0 ] = Some 99)

(* ------------------------------------------------------------------ *)
(* End-to-end floods on the engine                                      *)
(* ------------------------------------------------------------------ *)

let run_flood g inputs =
  let n = G.size g in
  let topo = Engine.topology_of_graph g in
  let roles =
    Array.init n (fun v ->
        Engine.Honest
          (Flood.proc (Flood.create g ~me:v ~vcompare:Int.compare ~initiate:inputs.(v)
                ~default:(-1) ())))
  in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast
      ~rounds:(Flood.rounds_needed g) ~roles
  in
  Array.map Option.get r.Engine.outputs

let test_flood_reaches_everyone () =
  let g = B.cycle 6 in
  let inputs = Array.init 6 (fun v -> 100 + v) in
  let stores = run_flood g inputs in
  Array.iteri
    (fun v st ->
      List.iter
        (fun u ->
          check
            (Printf.sprintf "%d knows %d" v u)
            true
            (Flood.origin_values st ~origin:u = [ 100 + u ]))
        (G.nodes g))
    stores

let test_flood_all_simple_paths () =
  (* Every simple uv-path carries a record. *)
  let g = B.cycle 5 in
  let inputs = Array.init 5 Fun.id in
  let stores = run_flood g inputs in
  let st4 = stores.(4) in
  let paths = Lbc_graph.Traversal.all_simple_paths g ~src:1 ~dst:4 in
  List.iter
    (fun p ->
      check
        (Format.asprintf "path delivered")
        true
        (Flood.value_along st4 ~path:p = Some 1))
    paths;
  check_int "exactly the simple paths" (List.length paths)
    (List.length
       (List.filter (fun (o, _, _) -> o = 1) (Flood.records st4)))

let test_flood_silent_node_defaults () =
  let g = B.cycle 5 in
  let topo = Engine.topology_of_graph g in
  let silent : int Flood.wire Engine.fstep = fun ~round:_ ~inbox:_ -> [] in
  let roles =
    Array.init 5 (fun v ->
        if v = 2 then Engine.Faulty silent
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:Int.compare ~initiate:v
                  ~default:(-1) ())))
  in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast
      ~rounds:(Flood.rounds_needed g) ~roles
  in
  (* Every honest node attributes the default to node 2. *)
  List.iter
    (fun v ->
      match r.Engine.outputs.(v) with
      | Some st ->
          check
            (Printf.sprintf "node %d sees default" v)
            true
            (Flood.origin_values st ~origin:2 = [ -1 ])
      | None -> ())
    [ 0; 1; 3; 4 ]

(* Honest relays forward a value object unchanged: with no faults, every
   record at every node holds the very allocation its origin initiated.
   Algorithm 2's attribution finds a report list's index by this
   identity, so a relay that copied values would make it slower without
   changing any answer. *)
let test_flood_forwards_value_objects () =
  let g = B.fig1b () in
  let n = G.size g in
  let topo = Engine.topology_of_graph g in
  let inputs = Array.init n (fun v -> [ v; 100 + v ]) in
  let roles =
    Array.init n (fun v ->
        Engine.Honest
          (Flood.proc
             (Flood.create g ~me:v ~vcompare:(List.compare Int.compare)
                ~initiate:inputs.(v) ~default:[ -1 ] ())))
  in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast
      ~rounds:(Flood.rounds_needed g) ~roles
  in
  Array.iteri
    (fun v st ->
      let records = ref 0 and copies = ref 0 in
      Flood.iter_records (Option.get st)
        (fun ~origin ~path:_ ~sans_me:_ ~value ->
          incr records;
          if value != inputs.(origin) then incr copies);
      check (Printf.sprintf "node %d has relayed records" v) true
        (!records > n);
      check_int (Printf.sprintf "node %d: records holding a copy" v) 0 !copies)
    r.Engine.outputs

(* ------------------------------------------------------------------ *)
(* Packing                                                              *)
(* ------------------------------------------------------------------ *)

let test_packing_basic () =
  let m = Packing.mask_of_nodes in
  check_int "disjoint pair" 2
    (Packing.count [ m [ 1 ]; m [ 2 ] ] ~limit:5);
  check_int "conflicting pair" 1
    (Packing.count [ m [ 1; 2 ]; m [ 2; 3 ] ] ~limit:5);
  check_int "empty mask disjoint from all" 2
    (Packing.count [ m []; m [ 1 ]; m [ 1; 2 ] ] ~limit:5);
  check_int "empty mask plus disjoint pair" 3
    (Packing.count [ m []; m [ 1 ]; m [ 2; 3 ] ] ~limit:5);
  check_int "limit caps" 2 (Packing.count [ m [ 1 ]; m [ 2 ]; m [ 3 ] ] ~limit:2);
  check_int "zero limit" 0 (Packing.count [ m [ 1 ] ] ~limit:0);
  check_int "no masks" 0 (Packing.count [] ~limit:3)

let test_packing_domination () =
  let m = Packing.mask_of_nodes in
  (* {1} dominates {1,2} and {1,3}: answer is picking {1},{4}. *)
  check_int "dominated removed" 2
    (Packing.count [ m [ 1; 2 ]; m [ 1 ]; m [ 1; 3 ]; m [ 4 ] ] ~limit:5)

let test_packing_needs_search () =
  let m = Packing.mask_of_nodes in
  (* Greedy smallest-first could pick {1,2} then be stuck; optimal is
     {1,3} + {2,4}. *)
  check_int "exact search" 2
    (Packing.count [ m [ 1; 2 ]; m [ 1; 3 ]; m [ 2; 4 ] ] ~limit:5)

let test_packing_mask_range () =
  (* The multi-word bitset kills the old 62-node ceiling: ids beyond
     [Sys.int_size] are first-class. Negative ids are still rejected. *)
  let m = Packing.mask_of_nodes in
  check "large id accepted" true (Packing.mem (m [ 70 ]) 70);
  check "large id absent elsewhere" false (Packing.mem (m [ 70 ]) 71);
  check "mem total beyond width" false (Packing.mem (m [ 3 ]) 1000);
  check "cross-word disjoint" true (Packing.disjoint (m [ 3; 200 ]) (m [ 4; 201 ]));
  check "cross-word overlap" false (Packing.disjoint (m [ 3; 200 ]) (m [ 201; 200 ]));
  check "cross-word subset" true (Packing.subset (m [ 200 ]) (m [ 3; 200 ]));
  check_int "cross-word popcount" 3 (Packing.popcount (m [ 0; 62; 124 ]));
  check_int "packing beyond word 1" 2
    (Packing.count [ m [ 10; 100 ]; m [ 11; 101 ]; m [ 100; 11 ] ] ~limit:5);
  check "negative id rejected" true
    (match m [ -1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_packing_mask_canonical () =
  (* Canonical representation: structural equality = set equality, and
     duplicate ids collapse. *)
  let m = Packing.mask_of_nodes in
  check "duplicates collapse" true (m [ 5; 5; 5 ] = m [ 5 ]);
  check "order irrelevant" true (m [ 90; 2 ] = m [ 2; 90 ]);
  check "empty is empty" true (Packing.is_empty Packing.empty);
  check "nonempty" false (Packing.is_empty (m [ 0 ]))

(* qcheck: the multi-word bitset agrees with a single-int reference on
   ids small enough for the old representation. *)
let packing_reference_equivalence =
  let open QCheck in
  let small_ids = list_of_size (Gen.int_bound 8) (int_bound 60) in
  Test.make ~name:"packing agrees with int-mask reference" ~count:200
    (pair (list_of_size (Gen.int_bound 6) small_ids) (int_bound 6))
    (fun (node_lists, limit) ->
      let masks = List.map Packing.mask_of_nodes node_lists in
      (* Packing counts distinct masks (identical records collapse), so
         the reference dedupes too. *)
      let ref_masks =
        List.sort_uniq compare
          (List.map
             (List.fold_left (fun acc x -> acc lor (1 lsl x)) 0)
             node_lists)
      in
      (* reference: brute-force max disjoint packing over int masks *)
      let arr = Array.of_list ref_masks in
      let n = Array.length arr in
      let best = ref 0 in
      let rec go i used depth =
        if depth > !best then best := depth;
        if i < n then begin
          if arr.(i) land used = 0 then go (i + 1) (used lor arr.(i)) (depth + 1);
          go (i + 1) used depth
        end
      in
      go 0 0 0;
      Packing.count masks ~limit = min limit !best)

let test_flood_large_graph () =
  (* End-to-end regression above the old 62-node ceiling: a full flood on
     a 70-cycle delivers both boundary paths to the antipode. *)
  let n = 70 in
  let g = B.cycle n in
  let roles =
    Array.init n (fun v ->
        Engine.Honest
          (Flood.proc (Flood.create g ~me:v ~vcompare:Int.compare ~initiate:v ())))
  in
  let r =
    Engine.run (Engine.topology_of_graph g) ~model:Engine.Local_broadcast
      ~rounds:(Flood.rounds_needed g) ~roles
  in
  let st = Option.get r.Engine.outputs.(0) in
  check_int "two disjoint paths from antipode" 2
    (Flood.disjoint_count st ~origin:(n / 2) ~value:(n / 2) ());
  check "reliably received" true
    (Flood.reliable_values ~f:1 st ~origin:(n / 2) = [ n / 2 ])

(* ------------------------------------------------------------------ *)
(* Disjoint counting and reliable receive                               *)
(* ------------------------------------------------------------------ *)

let test_disjoint_count_honest () =
  let g = B.cycle 5 in
  let inputs = Array.init 5 (fun v -> v) in
  let stores = run_flood g inputs in
  (* In a cycle there are exactly two disjoint paths 1..3. *)
  check_int "two disjoint" 2
    (Flood.disjoint_count stores.(3) ~origin:1 ~value:1 ());
  check_int "wrong value zero" 0
    (Flood.disjoint_count stores.(3) ~origin:1 ~value:9 ());
  (* Excluding node 2 internally kills the short path. *)
  check_int "excluded" 1
    (Flood.disjoint_count stores.(3) ~origin:1 ~value:1
       ~excluded:(Nodeset.singleton 2) ())

let test_disjoint_count_from_set () =
  let g = B.complete 5 in
  let inputs = Array.make 5 7 in
  let stores = run_flood g inputs in
  let sources = Nodeset.of_list [ 0; 1; 2 ] in
  (* K5: the three direct edges are disjoint Av v-paths. *)
  check_int "three" 3
    (Flood.disjoint_count_from_set stores.(4) ~sources ~value:7 ());
  check_int "limit" 2
    (Flood.disjoint_count_from_set stores.(4) ~sources ~value:7 ~limit:2 ())

let test_fabricated_paths_not_counted () =
  (* Regression for the union-graph unsoundness: a single faulty node
     fabricates many disjoint-looking annotations; since every fabricated
     record physically passes through it, the packing count stays 1. *)
  let g = B.complete 5 in
  let topo = Engine.topology_of_graph g in
  let own = Lbc_flood.Path_intern.create g in
  let wire value path = Flood.wire own value path in
  let liar : int Flood.wire Engine.fstep =
   fun ~round ~inbox:_ ->
    if round = 1 then
      (* claim that 1 initiated 99 and relay over invented paths *)
      [
        Engine.Broadcast (wire 99 [ 1 ]);
        Engine.Broadcast (wire 99 [ 1; 2 ]);
        Engine.Broadcast (wire 99 [ 1; 3 ]);
        Engine.Broadcast (wire 99 [ 1; 2; 3 ]);
      ]
    else []
  in
  let roles =
    Array.init 5 (fun v ->
        if v = 0 then Engine.Faulty liar
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:Int.compare ~initiate:v
                  ~default:(-1) ())))
  in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast
      ~rounds:(Flood.rounds_needed g) ~roles
  in
  let st4 = Option.get r.Engine.outputs.(4) in
  (* All value-99 records from "origin 1" pass through node 0. *)
  check "fake value present" true
    (List.mem 99 (Flood.origin_values st4 ~origin:1));
  check_int "but only one disjoint path" 1
    (Flood.disjoint_count st4 ~origin:1 ~value:99 ());
  (* The genuine value has full connectivity-many disjoint paths. *)
  check_int "genuine value rich" 3
    (Flood.disjoint_count st4 ~origin:1 ~value:1 ~limit:3 ())

let test_predicted_transmissions () =
  (* A measured all-honest flood matches the analytic count exactly. *)
  List.iter
    (fun g ->
      let n = G.size g in
      let topo = Engine.topology_of_graph g in
      let roles =
        Array.init n (fun v ->
            Engine.Honest
              (Flood.proc
               (Flood.create g ~me:v ~vcompare:Int.compare ~initiate:v
                  ~default:(-1) ())))
      in
      let r =
        Engine.run topo ~model:Engine.Local_broadcast
          ~rounds:(Flood.rounds_needed g) ~roles
      in
      check_int
        (Printf.sprintf "n=%d" n)
        (Flood.predicted_transmissions g)
        r.Engine.stats.Engine.transmissions)
    [ B.cycle 5; B.cycle 8; B.complete 5; B.petersen (); B.grid 3 3 ]

let test_reliable_values () =
  let g = B.cycle 5 in
  let inputs = Array.init 5 (fun v -> v * 10) in
  let stores = run_flood g inputs in
  (* self *)
  check "self" true (Flood.reliable_values ~f:1 stores.(0) ~origin:0 = [ 0 ]);
  (* neighbour: direct *)
  check "neighbour" true
    (Flood.reliable_values ~f:1 stores.(0) ~origin:1 = [ 10 ]);
  (* distance 2 in a cycle: both disjoint paths carry it, f=1 needs 2 *)
  check "far ok" true (Flood.reliable_values ~f:1 stores.(0) ~origin:2 = [ 20 ]);
  (* f=2 would need 3 disjoint paths: unreliable *)
  check "f=2 too weak" true
    (Flood.reliable_values ~f:2 stores.(0) ~origin:2 = [])

let test_reliable_values_tampered () =
  (* Flip-forwarding faulty node 2 on the cycle: node 0 still reliably
     receives nothing wrong from origin 3, and cannot reliably receive
     anything from 3 at all (only one clean path remains). *)
  let g = B.cycle 5 in
  let topo = Engine.topology_of_graph g in
  let flipper =
    Lbc_adversary.Strategy.fstep Lbc_adversary.Strategy.Flip_forwards ~g
      ~paths:(Lbc_flood.Path_intern.create g) ~me:2 ~vcompare:Int.compare ~input:20 ~default:(-1) ~flip:(fun v -> -v) ~seed:0
  in
  let roles =
    Array.init 5 (fun v ->
        if v = 2 then Engine.Faulty flipper
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:Int.compare
                  ~initiate:(v * 10) ~default:(-1) ())))
  in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast
      ~rounds:(Flood.rounds_needed g) ~roles
  in
  let st0 = Option.get r.Engine.outputs.(0) in
  check "no reliable value from 3" true
    (Flood.reliable_values ~f:1 st0 ~origin:3 = []);
  (* the neighbour 4 is still direct *)
  check "neighbour fine" true
    (Flood.reliable_values ~f:1 st0 ~origin:4 = [ 40 ])

let () =
  Alcotest.run "flood"
    [
      ( "rules",
        [
          Alcotest.test_case "rule i" `Quick test_rule_i_bad_path;
          Alcotest.test_case "rule i timing" `Quick test_rule_i_timing;
          Alcotest.test_case "rule ii" `Quick test_rule_ii_dedup;
          Alcotest.test_case "rule iii" `Quick test_rule_iii_self_in_path;
          Alcotest.test_case "rule iv" `Quick test_rule_iv_record;
          Alcotest.test_case "own initiation" `Quick test_own_initiation_recorded;
          Alcotest.test_case "defaults" `Quick test_synthesize_defaults;
          Alcotest.test_case "bootstrap not masking" `Quick
            test_bootstrap_not_masking;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "reaches everyone" `Quick test_flood_reaches_everyone;
          Alcotest.test_case "all simple paths" `Quick test_flood_all_simple_paths;
          Alcotest.test_case "silent defaults" `Quick
            test_flood_silent_node_defaults;
          Alcotest.test_case "forwards value objects" `Quick
            test_flood_forwards_value_objects;
        ] );
      ( "packing",
        [
          Alcotest.test_case "basic" `Quick test_packing_basic;
          Alcotest.test_case "domination" `Quick test_packing_domination;
          Alcotest.test_case "search" `Quick test_packing_needs_search;
          Alcotest.test_case "mask range" `Quick test_packing_mask_range;
          Alcotest.test_case "mask canonical" `Quick test_packing_mask_canonical;
          QCheck_alcotest.to_alcotest packing_reference_equivalence;
        ] );
      ( "large graphs",
        [ Alcotest.test_case "70-cycle flood" `Slow test_flood_large_graph ] );
      ( "acceptance",
        [
          Alcotest.test_case "disjoint honest" `Quick test_disjoint_count_honest;
          Alcotest.test_case "disjoint from set" `Quick
            test_disjoint_count_from_set;
          Alcotest.test_case "fabrication regression" `Quick
            test_fabricated_paths_not_counted;
          Alcotest.test_case "predicted transmissions" `Quick
            test_predicted_transmissions;
          Alcotest.test_case "reliable values" `Quick test_reliable_values;
          Alcotest.test_case "reliable tampered" `Quick
            test_reliable_values_tampered;
        ] );
    ]
