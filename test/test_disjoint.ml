(* Tests for Maxflow and Disjoint: Menger path computations and vertex
   connectivity. *)

module G = Lbc_graph.Graph
module B = Lbc_graph.Builders
module D = Lbc_graph.Disjoint
module MF = Lbc_graph.Maxflow
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let add net ~src ~dst ~cap = ignore (MF.add_edge net ~src ~dst ~cap : int)

(* ------------------------------------------------------------------ *)
(* Raw max flow                                                        *)
(* ------------------------------------------------------------------ *)

let test_maxflow_simple () =
  (* s=0 -> 1 -> t=2, all capacity 1. *)
  let net = MF.create 3 in
  add net ~src:0 ~dst:1 ~cap:1;
  add net ~src:1 ~dst:2 ~cap:1;
  check_int "unit" 1 (MF.max_flow net ~src:0 ~sink:2)

let test_maxflow_parallel () =
  let net = MF.create 4 in
  add net ~src:0 ~dst:1 ~cap:1;
  add net ~src:0 ~dst:2 ~cap:1;
  add net ~src:1 ~dst:3 ~cap:1;
  add net ~src:2 ~dst:3 ~cap:1;
  check_int "two" 2 (MF.max_flow net ~src:0 ~sink:3)

let test_maxflow_bottleneck () =
  let net = MF.create 4 in
  add net ~src:0 ~dst:1 ~cap:5;
  add net ~src:1 ~dst:2 ~cap:2;
  add net ~src:2 ~dst:3 ~cap:5;
  check_int "bottleneck 2" 2 (MF.max_flow net ~src:0 ~sink:3)

let test_maxflow_needs_residual () =
  (* Classic case where a greedy path must be partially undone. *)
  let net = MF.create 4 in
  add net ~src:0 ~dst:1 ~cap:1;
  add net ~src:0 ~dst:2 ~cap:1;
  add net ~src:1 ~dst:2 ~cap:1;
  add net ~src:1 ~dst:3 ~cap:1;
  add net ~src:2 ~dst:3 ~cap:1;
  check_int "two despite diagonal" 2 (MF.max_flow net ~src:0 ~sink:3)

let test_maxflow_limit () =
  let net = MF.create 2 in
  add net ~src:0 ~dst:1 ~cap:10;
  check_int "limited" 3 (MF.max_flow ~limit:3 net ~src:0 ~sink:1)

let test_maxflow_disconnected () =
  let net = MF.create 3 in
  add net ~src:0 ~dst:1 ~cap:1;
  check_int "zero" 0 (MF.max_flow net ~src:0 ~sink:2)

let test_maxflow_reset () =
  (* 0 -> 1 -> 2 with a unit middle arc; raising it doubles the flow,
     and [reset] brings back both the added capacities and zero flow. *)
  let net = MF.create 3 in
  add net ~src:0 ~dst:1 ~cap:2;
  let mid = MF.add_edge net ~src:1 ~dst:2 ~cap:1 in
  check_int "as added" 1 (MF.max_flow net ~src:0 ~sink:2);
  MF.reset net;
  MF.set_capacity net mid 2;
  check_int "raised" 2 (MF.max_flow net ~src:0 ~sink:2);
  check "flow leaves 1 towards 2" true (MF.take_flow net 1 = Some 2);
  MF.reset net;
  check "no flow after reset" true (MF.take_flow net 1 = None);
  check_int "restored" 1 (MF.max_flow net ~src:0 ~sink:2)

let test_residual_reachable () =
  let net = MF.create 3 in
  add net ~src:0 ~dst:1 ~cap:1;
  add net ~src:1 ~dst:2 ~cap:1;
  let (_ : int) = MF.max_flow net ~src:0 ~sink:2 in
  let r = MF.residual_reachable net ~src:0 in
  check "only source side" true (Nodeset.equal r (Nodeset.singleton 0))

(* ------------------------------------------------------------------ *)
(* Node-disjoint uv-paths                                              *)
(* ------------------------------------------------------------------ *)

let ends p = (List.hd p, List.nth p (List.length p - 1))

let internally_disjoint paths =
  let internals = List.map (fun p -> Lbc_graph.Graph.path_internal p) paths in
  let all = List.concat internals in
  List.length all = Nodeset.cardinal (Nodeset.of_list all)

let test_uv_cycle () =
  let g = B.cycle 5 in
  let paths = D.disjoint_uv_paths g ~u:0 ~v:2 in
  check_int "two in a cycle" 2 (List.length paths);
  List.iter
    (fun p ->
      check "valid" true (G.is_path g p);
      check "endpoints" true (ends p = (0, 2)))
    paths;
  check "disjoint" true (internally_disjoint paths)

let test_uv_complete () =
  let g = B.complete 6 in
  let paths = D.disjoint_uv_paths g ~u:0 ~v:5 in
  check_int "n-1 paths" 5 (List.length paths);
  check "disjoint" true (internally_disjoint paths)

let test_uv_excluded () =
  let g = B.cycle 5 in
  (* Excluding internal node 1 kills the short path 0-1-2. *)
  let paths =
    D.disjoint_uv_paths ~excluded:(Nodeset.singleton 1) g ~u:0 ~v:2
  in
  check_int "one path left" 1 (List.length paths);
  check "it is the long way" true (List.hd paths = [ 0; 4; 3; 2 ])

let test_uv_excluded_endpoint_ok () =
  (* Endpoints may be members of the excluded set. *)
  let g = B.cycle 5 in
  let paths =
    D.disjoint_uv_paths ~excluded:(Nodeset.of_list [ 0; 2 ]) g ~u:0 ~v:2
  in
  check_int "both paths survive" 2 (List.length paths)

let test_uv_limit () =
  let g = B.complete 6 in
  let paths = D.disjoint_uv_paths ~limit:2 g ~u:0 ~v:5 in
  check_int "limited" 2 (List.length paths)

let test_uv_adjacent () =
  let g = B.cycle 4 in
  let paths = D.disjoint_uv_paths g ~u:0 ~v:1 in
  (* Direct edge plus the around-the-back path. *)
  check_int "two" 2 (List.length paths);
  check "one is direct" true (List.mem [ 0; 1 ] paths)

let test_count_uv_petersen () =
  let g = B.petersen () in
  check_int "3-connected" 3 (D.count_uv g ~u:0 ~v:7)

(* ------------------------------------------------------------------ *)
(* Uv-paths from a set                                                 *)
(* ------------------------------------------------------------------ *)

let test_set_paths_distinct_sources () =
  let g = B.complete 6 in
  let sources = Nodeset.of_list [ 0; 1; 2 ] in
  let paths = D.disjoint_set_paths g ~sources ~sink:5 in
  check_int "three" 3 (List.length paths);
  let srcs = List.map List.hd paths in
  check_int "distinct sources" 3 (List.length (List.sort_uniq compare srcs));
  (* Uv-paths share no node but the sink. *)
  let non_sink = List.concat_map (fun p -> List.filter (( <> ) 5) p) paths in
  check "share only sink" true
    (List.length non_sink = Nodeset.cardinal (Nodeset.of_list non_sink))

let test_set_paths_via_bottleneck () =
  (* Sources 0,1 must reach 4 through the single cut node 3: only one
     path fits. *)
  let g = G.of_edges 5 [ (0, 3); (1, 3); (3, 4); (2, 4) ] in
  let paths = D.disjoint_set_paths g ~sources:(Nodeset.of_list [ 0; 1 ]) ~sink:4 in
  check_int "one" 1 (List.length paths)

let test_set_paths_excluded_source_endpoint () =
  (* An excluded node can still *start* a path (paper: endpoints may be in
     F). Graph: 0-1-2, source {0}, 0 excluded. *)
  let g = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let paths =
    D.disjoint_set_paths ~excluded:(Nodeset.singleton 0) g
      ~sources:(Nodeset.singleton 0) ~sink:2
  in
  check_int "one" 1 (List.length paths);
  check "path 0-1-2" true (List.hd paths = [ 0; 1; 2 ])

let test_set_paths_excluded_internal () =
  (* Excluded node cannot be used internally: sources {0,3}, sink 2,
     0-1-2 fine, 3-1-2 would reuse 1; and with 1 excluded nothing passes. *)
  let g = G.of_edges 4 [ (0, 1); (3, 1); (1, 2) ] in
  let all = D.disjoint_set_paths g ~sources:(Nodeset.of_list [ 0; 3 ]) ~sink:2 in
  check_int "vertex 1 is a bottleneck" 1 (List.length all);
  let none =
    D.disjoint_set_paths ~excluded:(Nodeset.singleton 1) g
      ~sources:(Nodeset.of_list [ 0; 3 ]) ~sink:2
  in
  check_int "excluded internal blocks" 0 (List.length none)

(* ------------------------------------------------------------------ *)
(* Directed disjoint paths                                             *)
(* ------------------------------------------------------------------ *)

let test_directed_basic () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 directed; sources {0}. *)
  let adj = function 0 -> [ 1; 2 ] | 1 -> [ 3 ] | 2 -> [ 3 ] | _ -> [] in
  let paths =
    D.max_disjoint_directed ~n:4 ~adj ~sources:[ 0 ] ~sink:3 ()
  in
  (* A single listed source supplies at most one path. *)
  check_int "one (source consumed)" 1 (List.length paths)

let test_directed_two_sources () =
  let adj = function 0 -> [ 2 ] | 1 -> [ 3 ] | 2 -> [ 4 ] | 3 -> [ 4 ] | _ -> []
  in
  let paths =
    D.max_disjoint_directed ~n:5 ~adj ~sources:[ 0; 1 ] ~sink:4 ()
  in
  check_int "two" 2 (List.length paths)

let test_directed_asymmetry () =
  (* Edge direction matters: only 0 -> 1, so no path 1 .. 0. *)
  let adj = function 0 -> [ 1 ] | _ -> [] in
  let fwd = D.max_disjoint_directed ~n:2 ~adj ~sources:[ 0 ] ~sink:1 () in
  let bwd = D.max_disjoint_directed ~n:2 ~adj ~sources:[ 1 ] ~sink:0 () in
  check_int "forward" 1 (List.length fwd);
  check_int "backward" 0 (List.length bwd)

(* ------------------------------------------------------------------ *)
(* Connectivity                                                        *)
(* ------------------------------------------------------------------ *)

let test_connectivity_families () =
  check_int "K6" 5 (D.connectivity (B.complete 6));
  check_int "C7" 2 (D.connectivity (B.cycle 7));
  check_int "path" 1 (D.connectivity (B.path_graph 5));
  check_int "petersen" 3 (D.connectivity (B.petersen ()));
  check_int "disconnected" 0 (D.connectivity (G.of_edges 4 [ (0, 1); (2, 3) ]));
  check_int "K33" 3 (D.connectivity (B.complete_bipartite 3 3));
  check_int "star" 1 (D.connectivity (B.star 5));
  check_int "wheel" 3 (D.connectivity (B.wheel 7));
  check_int "hypercube d=4" 4 (D.connectivity (B.hypercube 4));
  check_int "torus 3x4" 4 (D.connectivity (B.torus 4 3));
  check_int "circulant C9(1,2)" 4 (D.connectivity (B.circulant 9 [ 1; 2 ]))

let test_connectivity_harary () =
  List.iter
    (fun (k, n) ->
      check_int
        (Printf.sprintf "H_{%d,%d}" k n)
        k
        (D.connectivity (B.harary k n)))
    [ (2, 7); (3, 8); (3, 9); (4, 9); (5, 10); (4, 11) ]

let test_connectivity_at_least () =
  let g = B.petersen () in
  check "k=3 holds" true (D.connectivity_at_least g 3);
  check "k=4 fails" false (D.connectivity_at_least g 4);
  check "k=0 trivial" true (D.connectivity_at_least g 0);
  check "k=n fails" false (D.connectivity_at_least (B.complete 4) 4);
  check "K4 is 3-connected" true (D.connectivity_at_least (B.complete 4) 3)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_connected_graph =
  let gen =
    QCheck.Gen.(
      map2
        (fun n seed ->
          (* Keep regenerating until connected (dense p makes this fast). *)
          let rec go seed =
            let g = B.random_gnp ~seed n 0.5 in
            if Lbc_graph.Traversal.is_connected g then g else go (seed + 1)
          in
          go seed)
        (int_range 4 10) (int_range 0 10000))
  in
  QCheck.make ~print:(Format.asprintf "%a" G.pp) gen

let prop_menger_pairs =
  QCheck.Test.make ~name:"κ(G) = min over non-adjacent pairs of path count"
    ~count:40 arb_connected_graph (fun g ->
      let n = G.size g in
      let kappa = D.connectivity g in
      let complete = G.num_edges g = n * (n - 1) / 2 in
      if complete then kappa = n - 1
      else begin
        let best = ref max_int in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if not (G.mem_edge g u v) then
              best := min !best (D.count_uv g ~u ~v)
          done
        done;
        kappa = !best
      end)

let prop_paths_valid_and_disjoint =
  QCheck.Test.make ~name:"disjoint_uv_paths: valid, internally disjoint"
    ~count:60 arb_connected_graph (fun g ->
      let n = G.size g in
      let u = 0 and v = n - 1 in
      if G.mem_edge g u v && G.degree g u = 1 then true
      else begin
        let paths = D.disjoint_uv_paths g ~u ~v in
        List.for_all (fun p -> G.is_path g p && ends p = (u, v)) paths
        && internally_disjoint paths
      end)

let prop_count_matches_cut =
  QCheck.Test.make
    ~name:"path count for non-adjacent pair ≥ ... consistent under limit"
    ~count:60 arb_connected_graph (fun g ->
      let n = G.size g in
      let u = 0 and v = n - 1 in
      let k = D.count_uv g ~u ~v in
      D.count_uv ~limit:(k + 3) g ~u ~v = k
      && List.length (D.disjoint_uv_paths ~limit:1 g ~u ~v) = min 1 k)

let prop_flow_count_matches_path_packing =
  (* Cross-validate the max-flow Menger computation against brute force:
     enumerate all simple uv-paths and compute the maximum set packing of
     their internal-node masks. *)
  QCheck.Test.make ~name:"count_uv = brute-force packing of simple paths"
    ~count:30 arb_connected_graph (fun g ->
      let n = G.size g in
      let u = 0 and v = n - 1 in
      let masks =
        List.map
          (fun p ->
            Lbc_flood.Packing.mask_of_nodes (Lbc_graph.Graph.path_internal p))
          (Lbc_graph.Traversal.all_simple_paths g ~src:u ~dst:v)
      in
      Lbc_flood.Packing.count masks ~limit:n = D.count_uv g ~u ~v)

(* The unpruned all-pairs searches [Disjoint.connectivity] and
   [Disjoint.connectivity_at_least] used before row pruning, kept as the
   reference the pruned versions must agree with. *)
let reference_connectivity g =
  let n = G.size g in
  if n <= 1 || not (Lbc_graph.Traversal.is_connected g) then 0
  else if G.num_edges g = n * (n - 1) / 2 then n - 1
  else begin
    let best = ref (n - 1) in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if not (G.mem_edge g u v) then best := min !best (D.count_uv g ~u ~v)
      done
    done;
    !best
  end

let reference_at_least g k =
  let n = G.size g in
  if k <= 0 then true
  else if n <= k || not (Lbc_graph.Traversal.is_connected g) then false
  else if G.num_edges g = n * (n - 1) / 2 then true
  else begin
    let ok = ref true in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if (not (G.mem_edge g u v)) && D.count_uv ~limit:k g ~u ~v < k then
          ok := false
      done
    done;
    !ok
  end

(* Any graph on up to 9 nodes, connected or not, sparse to dense. *)
let arb_small_graph =
  let gen =
    QCheck.Gen.(
      map3
        (fun n seed p -> B.random_gnp ~seed n (float_of_int p /. 10.))
        (int_range 1 9) (int_range 0 10000) (int_range 1 9))
  in
  QCheck.make ~print:(Format.asprintf "%a" G.pp) gen

let prop_pruned_connectivity =
  QCheck.Test.make ~name:"row-pruned connectivity = all-pairs reference"
    ~count:300 arb_small_graph (fun g ->
      D.connectivity g = reference_connectivity g
      && List.for_all
           (fun k -> D.connectivity_at_least g k = reference_at_least g k)
           (List.init (G.size g + 2) Fun.id))

(* One reused network against the fresh-network reference
   (disjoint_reference.ml). Each generated graph gets one network and a
   random sequence of at least 20 queries on it, so a capacity left over
   from an earlier query shows up in a later one: adjacent and
   non-adjacent pairs, [excluded] sets that may hold u, v and ids outside
   the graph, and limits None and 0..4. The paths must be the same lists
   in the same order; connectivity, connectivity_at_least (k <= 4) and
   min_vertex_cut must agree too. *)
module R = Disjoint_reference

let arb_query_case =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 12) (int_range 0 10000) (int_range 1 9)
        (int_range 0 10000))
  in
  let print (n, seed, p, qseed) =
    Format.asprintf "%a (queries seed %d)" G.pp
      (B.random_gnp ~seed n (float_of_int p /. 10.))
      qseed
  in
  QCheck.make ~print gen

let random_query st g =
  let n = G.size g in
  let u = Random.State.int st n in
  let v =
    match G.neighbor_list g u with
    | _ :: _ as ys when Random.State.bool st ->
        List.nth ys (Random.State.int st (List.length ys))
    | _ -> (u + 1 + Random.State.int st (n - 1)) mod n
  in
  let excluded =
    List.filter
      (fun _ -> Random.State.int st 4 = 0)
      (List.init (n + 3) (fun x -> x - 1))
    |> Nodeset.of_list
  in
  let limit =
    match Random.State.int st 6 with 5 -> None | k -> Some k
  in
  (u, v, excluded, limit)

let cut_or_error f g =
  match f g with
  | cut -> Ok cut
  | exception Invalid_argument msg -> Error msg

let prop_reused_network_matches_reference =
  QCheck.Test.make ~name:"reused uv network = fresh-network reference"
    ~count:200 arb_query_case (fun (n, seed, p, qseed) ->
      let g = B.random_gnp ~seed n (float_of_int p /. 10.) in
      let st = Random.State.make [| qseed |] in
      let net = D.network g in
      let rec queries k =
        k = 0
        ||
        let u, v, excluded, limit = random_query st g in
        D.uv_paths ~excluded ?limit net ~u ~v
        = R.disjoint_uv_paths ~excluded ?limit g ~u ~v
        && D.count_uv ~excluded ?limit g ~u ~v
           = R.count_uv ~excluded ?limit g ~u ~v
        && queries (k - 1)
      in
      queries (20 + Random.State.int st 20)
      && D.connectivity g = R.connectivity g
      && List.for_all
           (fun k -> D.connectivity_at_least g k = R.connectivity_at_least g k)
           [ 0; 1; 2; 3; 4 ]
      &&
      match (cut_or_error D.min_vertex_cut g, cut_or_error R.min_vertex_cut g) with
      | Ok a, Ok b -> Nodeset.equal a b
      | Error _, Error _ -> true
      | _ -> false)

let prop_connectivity_le_min_degree =
  QCheck.Test.make ~name:"κ(G) <= min degree" ~count:60 arb_connected_graph
    (fun g -> D.connectivity g <= G.min_degree g)

let prop_removal_of_cut_disconnects =
  QCheck.Test.make ~name:"removing κ-1 nodes never disconnects" ~count:30
    arb_connected_graph (fun g ->
      let kappa = D.connectivity g in
      let n = G.size g in
      if kappa <= 1 || kappa >= n - 1 then true
      else begin
        (* Check over all (κ-1)-subsets on small graphs only. *)
        let subsets = Lbc_graph.Combi.combinations (G.nodes g) (kappa - 1) in
        List.for_all
          (fun s ->
            let s = Nodeset.of_list s in
            let g' = G.without_nodes g s in
            (* Remaining nodes should form one component (ignoring the
               removed, now-isolated, ones). *)
            let comps = Lbc_graph.Traversal.components g' in
            let live =
              List.filter
                (fun c ->
                  not (Nodeset.is_empty (Nodeset.diff c s)))
                comps
            in
            List.length live <= 1
            || List.for_all (fun c -> Nodeset.cardinal (Nodeset.diff c s) = 0)
                 (List.tl live))
          subsets
      end)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "disjoint"
    [
      ( "maxflow",
        [
          Alcotest.test_case "simple" `Quick test_maxflow_simple;
          Alcotest.test_case "parallel" `Quick test_maxflow_parallel;
          Alcotest.test_case "bottleneck" `Quick test_maxflow_bottleneck;
          Alcotest.test_case "residual" `Quick test_maxflow_needs_residual;
          Alcotest.test_case "limit" `Quick test_maxflow_limit;
          Alcotest.test_case "disconnected" `Quick test_maxflow_disconnected;
          Alcotest.test_case "reachable" `Quick test_residual_reachable;
          Alcotest.test_case "reset" `Quick test_maxflow_reset;
        ] );
      ( "uv paths",
        [
          Alcotest.test_case "cycle" `Quick test_uv_cycle;
          Alcotest.test_case "complete" `Quick test_uv_complete;
          Alcotest.test_case "excluded" `Quick test_uv_excluded;
          Alcotest.test_case "excluded endpoint" `Quick
            test_uv_excluded_endpoint_ok;
          Alcotest.test_case "limit" `Quick test_uv_limit;
          Alcotest.test_case "adjacent" `Quick test_uv_adjacent;
          Alcotest.test_case "petersen count" `Quick test_count_uv_petersen;
        ] );
      ( "set paths",
        [
          Alcotest.test_case "distinct sources" `Quick
            test_set_paths_distinct_sources;
          Alcotest.test_case "bottleneck" `Quick test_set_paths_via_bottleneck;
          Alcotest.test_case "excluded endpoint" `Quick
            test_set_paths_excluded_source_endpoint;
          Alcotest.test_case "excluded internal" `Quick
            test_set_paths_excluded_internal;
        ] );
      ( "directed",
        [
          Alcotest.test_case "basic" `Quick test_directed_basic;
          Alcotest.test_case "two sources" `Quick test_directed_two_sources;
          Alcotest.test_case "asymmetry" `Quick test_directed_asymmetry;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "families" `Quick test_connectivity_families;
          Alcotest.test_case "harary" `Quick test_connectivity_harary;
          Alcotest.test_case "at least" `Quick test_connectivity_at_least;
        ] );
      ( "properties",
        qt
          [
            prop_menger_pairs;
            prop_paths_valid_and_disjoint;
            prop_count_matches_cut;
            prop_flow_count_matches_path_packing;
            prop_connectivity_le_min_degree;
            prop_removal_of_cut_disconnects;
            prop_pruned_connectivity;
            prop_reused_network_matches_reference;
          ] );
    ]
