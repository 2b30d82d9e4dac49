(* Tests for graph builders: each family must have its advertised size,
   degree and connectivity. *)

module G = Lbc_graph.Graph
module B = Lbc_graph.Builders
module D = Lbc_graph.Disjoint
module Cond = Lbc_graph.Conditions

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_complete () =
  let g = B.complete 7 in
  check_int "edges" 21 (G.num_edges g);
  check_int "degree" 6 (G.min_degree g)

let test_cycle () =
  let g = B.cycle 6 in
  check_int "edges" 6 (G.num_edges g);
  check_int "2-regular" 2 (G.max_degree g);
  check "bad n" true
    (match B.cycle 2 with _ -> false | exception Invalid_argument _ -> true)

let test_path () =
  let g = B.path_graph 5 in
  check_int "edges" 4 (G.num_edges g);
  check_int "min deg" 1 (G.min_degree g)

let test_star_wheel () =
  check_int "star deg hub" 5 (G.degree (B.star 6) 0);
  let w = B.wheel 6 in
  check_int "wheel hub" 5 (G.degree w 0);
  check_int "wheel rim" 3 (G.degree w 3)

let test_bipartite () =
  let g = B.complete_bipartite 2 3 in
  check_int "edges" 6 (G.num_edges g);
  check "no internal left edge" false (G.mem_edge g 0 1)

let test_grid_torus () =
  let g = B.grid 3 2 in
  check_int "grid edges" 7 (G.num_edges g);
  check "corner" true (G.degree g 0 = 2);
  let t = B.torus 3 3 in
  check_int "4-regular" 4 (G.min_degree t);
  check_int "4-regular max" 4 (G.max_degree t)

let test_hypercube () =
  let g = B.hypercube 3 in
  check_int "8 nodes" 8 (G.size g);
  check_int "12 edges" 12 (G.num_edges g);
  check_int "3-regular" 3 (G.min_degree g)

let test_circulant () =
  let g = B.circulant 8 [ 1; 2 ] in
  check_int "4-regular" 4 (G.min_degree g);
  check "jump edges" true (G.mem_edge g 0 2 && G.mem_edge g 0 1);
  check "wraparound" true (G.mem_edge g 7 1)

let test_petersen () =
  let g = B.petersen () in
  check_int "10 nodes" 10 (G.size g);
  check_int "15 edges" 15 (G.num_edges g);
  check_int "3-regular" 3 (G.min_degree g);
  check_int "3-regular max" 3 (G.max_degree g)

let test_fig1a () =
  let g = B.fig1a () in
  check_int "5 nodes" 5 (G.size g);
  check "meets f=1" true (Cond.lbc_feasible g ~f:1);
  check "not f=2" false (Cond.lbc_feasible g ~f:2);
  (* The paper's point: the 5-cycle fails the point-to-point condition. *)
  check "p2p f=1 fails" false (Cond.p2p_feasible g ~f:1)

let test_fig1b () =
  let g = B.fig1b () in
  check_int "8 nodes" 8 (G.size g);
  check_int "min degree 4" 4 (G.min_degree g);
  check_int "connectivity 4" 4 (D.connectivity g);
  check "meets f=2" true (Cond.lbc_feasible g ~f:2);
  check "p2p f=2 fails" false (Cond.p2p_feasible g ~f:2)

let test_tight () =
  List.iter
    (fun f ->
      let g = B.tight f in
      check_int
        (Printf.sprintf "f=%d min degree exactly 2f" f)
        (2 * f) (G.min_degree g);
      check_int
        (Printf.sprintf "f=%d connectivity exact" f)
        (Cond.lbc_required_connectivity f)
        (D.connectivity g);
      check (Printf.sprintf "f=%d feasible" f) true (Cond.lbc_feasible g ~f);
      check
        (Printf.sprintf "f=%d not feasible at f+1" f)
        false
        (Cond.lbc_feasible g ~f:(f + 1)))
    [ 1; 2; 3; 4; 5 ]

let test_deficient_degree () =
  List.iter
    (fun f ->
      let g = B.deficient_degree f in
      check_int
        (Printf.sprintf "f=%d node 0 degree" f)
        ((2 * f) - 1)
        (G.degree g 0);
      check (Printf.sprintf "f=%d infeasible" f) false (Cond.lbc_feasible g ~f))
    [ 1; 2; 3 ]

let test_deficient_connectivity () =
  List.iter
    (fun f ->
      let g = B.deficient_connectivity f in
      check
        (Printf.sprintf "f=%d degree fine" f)
        true
        (G.min_degree g >= 2 * f);
      check_int
        (Printf.sprintf "f=%d connectivity one short" f)
        (Cond.lbc_required_connectivity f - 1)
        (D.connectivity g);
      check (Printf.sprintf "f=%d infeasible" f) false (Cond.lbc_feasible g ~f))
    [ 1; 2; 3; 4 ]

let test_two_cliques () =
  let g = B.two_cliques_with_cut ~a:3 ~b:4 ~c:2 in
  check_int "size" 9 (G.size g);
  check_int "cut size is connectivity" 2 (D.connectivity g)

let test_random_gnp_deterministic () =
  let g1 = B.random_gnp ~seed:42 10 0.3 in
  let g2 = B.random_gnp ~seed:42 10 0.3 in
  let g3 = B.random_gnp ~seed:43 10 0.3 in
  check "same seed same graph" true (G.equal g1 g2);
  check "different seed differs" false (G.equal g1 g3)

let test_random_geometric () =
  let g1, pos = B.random_geometric_positions ~seed:5 20 ~radius:0.35 in
  let g2 = B.random_geometric ~seed:5 20 ~radius:0.35 in
  check "deterministic" true (G.equal g1 g2);
  (* edges respect the radius *)
  List.iter
    (fun (u, v) ->
      let xu, yu = pos.(u) and xv, yv = pos.(v) in
      let d2 = ((xu -. xv) ** 2.) +. ((yu -. yv) ** 2.) in
      check "within radius" true (d2 <= (0.35 *. 0.35) +. 1e-12))
    (G.edges g1);
  (* radius 0 gives no edges; radius sqrt(2) gives the complete graph *)
  check_int "radius 0" 0 (G.num_edges (B.random_geometric ~seed:1 8 ~radius:0.0));
  check_int "radius sqrt2" 28
    (G.num_edges (B.random_geometric ~seed:1 8 ~radius:1.5))

let test_random_augmented () =
  let g = B.random_augmented_circulant ~seed:7 ~n:12 ~k:4 ~extra:0.2 in
  check "at least 4-connected" true (D.connectivity_at_least g 4)

let prop_tight_meets_condition =
  QCheck.Test.make ~name:"tight f meets LBC condition exactly" ~count:8
    QCheck.(int_range 1 6)
    (fun f ->
      let g = B.tight f in
      G.min_degree g = 2 * f
      && D.connectivity g = Cond.lbc_required_connectivity f)

let prop_harary_k_connected =
  QCheck.Test.make ~name:"harary k n is exactly k-connected" ~count:20
    QCheck.(pair (int_range 2 5) (int_range 7 12))
    (fun (k, n) ->
      let g = B.harary k n in
      D.connectivity g = k)

(* ------------------------------------------------------------------ *)
(* Graph specs                                                         *)
(* ------------------------------------------------------------------ *)

let same_graph a b = G.size a = G.size b && G.edges a = G.edges b

let test_spec_families () =
  List.iter
    (fun (spec, g) ->
      match B.of_spec spec with
      | Ok g' -> check spec true (same_graph g g')
      | Error e -> Alcotest.failf "%s rejected: %s" spec e)
    [
      ("fig1a", B.fig1a ());
      ("fig1b", B.fig1b ());
      ("petersen", B.petersen ());
      ("cycle:6", B.cycle 6);
      ("ring:6", B.cycle 6);
      ("path:4", B.path_graph 4);
      ("complete:5", B.complete 5);
      ("k:5", B.complete 5);
      ("star:5", B.star 5);
      ("wheel:7", B.wheel 7);
      ("hypercube:3", B.hypercube 3);
      ("tight:2", B.tight 2);
      ("torus:3x4", B.torus 3 4);
      ("grid:3x4", B.grid 3 4);
      ("circulant:8:1,2", B.circulant 8 [ 1; 2 ]);
      ("harary:3:8", B.harary 3 8);
      ("gnp:9:0.5:4", B.random_gnp ~seed:4 9 0.5);
      ("edges:3:0-1,1-2", G.of_edges 3 [ (0, 1); (1, 2) ]);
    ]

(* Parameters a builder rejects are bad specs, not crashes. *)
let test_spec_rejected () =
  List.iter
    (fun spec -> check spec true (Result.is_error (B.of_spec spec)))
    [
      "cycle:2"; "star:0"; "wheel:2"; "tight:0"; "torus:0x3"; "harary:9:3";
      "circulant:5:0"; "gnp:5:1.5:1"; "edges:3:0-5"; "circulant:0:1";
      "complete:-3"; "grid:2"; "edges:3:0-1,x"; "cycle:x"; "file:"; "nope";
    ]

(* Specs drawn from the grammar, with small parameters (hypercube
   dimension <= 6) so that no case allocates a large graph. *)
let spec_gen =
  let open QCheck.Gen in
  let num = map string_of_int (int_range (-2) 12) in
  let csv g = map (String.concat ",") (list_size (int_range 0 3) g) in
  let join parts = map (String.concat ":") (flatten_l parts) in
  oneof
    [
      oneofl [ "fig1a"; "fig1b"; "petersen"; ""; "cycle"; "torus:3"; "file:" ];
      join
        [
          oneofl
            [
              "cycle"; "ring"; "path"; "complete"; "k"; "star"; "wheel";
              "tight";
            ];
          num;
        ];
      join [ return "hypercube"; map string_of_int (int_range (-2) 6) ];
      join
        [
          oneofl [ "torus"; "grid" ];
          map (fun (w, h) -> w ^ "x" ^ h) (pair num num);
        ];
      join [ return "circulant"; num; csv num ];
      join [ return "harary"; num; num ];
      join
        [
          return "gnp"; num; map string_of_float (float_range (-0.5) 1.5); num;
        ];
      join
        [
          return "edges";
          num;
          csv (map (fun (u, v) -> u ^ "-" ^ v) (pair num num));
        ];
    ]

let prop_of_spec_total =
  QCheck.Test.make ~name:"of_spec never raises" ~count:500
    (QCheck.make ~print:Fun.id spec_gen)
    (fun spec ->
      match B.of_spec spec with Ok _ | Error _ -> true)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "builders"
    [
      ( "families",
        [
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "cycle" `Quick test_cycle;
          Alcotest.test_case "path" `Quick test_path;
          Alcotest.test_case "star/wheel" `Quick test_star_wheel;
          Alcotest.test_case "bipartite" `Quick test_bipartite;
          Alcotest.test_case "grid/torus" `Quick test_grid_torus;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "circulant" `Quick test_circulant;
          Alcotest.test_case "petersen" `Quick test_petersen;
        ] );
      ( "paper graphs",
        [
          Alcotest.test_case "fig 1a" `Quick test_fig1a;
          Alcotest.test_case "fig 1b" `Quick test_fig1b;
        ] );
      ( "calibrated",
        [
          Alcotest.test_case "tight" `Slow test_tight;
          Alcotest.test_case "deficient degree" `Quick test_deficient_degree;
          Alcotest.test_case "deficient connectivity" `Quick
            test_deficient_connectivity;
          Alcotest.test_case "two cliques" `Quick test_two_cliques;
        ] );
      ( "random",
        [
          Alcotest.test_case "gnp deterministic" `Quick
            test_random_gnp_deterministic;
          Alcotest.test_case "augmented circulant" `Quick test_random_augmented;
          Alcotest.test_case "geometric" `Quick test_random_geometric;
        ] );
      ("properties", qt [ prop_tight_meets_condition; prop_harary_k_connected ]);
      ( "specs",
        Alcotest.test_case "families" `Quick test_spec_families
        :: Alcotest.test_case "rejected" `Quick test_spec_rejected
        :: qt [ prop_of_spec_total ] );
    ]
