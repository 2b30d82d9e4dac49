module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module S = Lbc_adversary.Strategy
module P = Lbc_sim.Perturb

let all_one g ~faulty:_ = [ Array.make (G.size g) Bit.One ]

let e1 ?(inputs = `All) ?(quick = false) () =
  let strategies = if quick then [ S.Flip_forwards; S.Lie ] else S.kinds_lbc in
  let inputs =
    match inputs with
    | `All -> fun g ~faulty -> Grid.all_inputs g ~faulty
    | `Unanimous -> Grid.unanimous_inputs
  in
  Grid.product ~name:"e1"
    ~graphs:[ ("fig1a", 1) ]
    ~algos:[ Scenario.A1; Scenario.A2 ]
    ~placements:Grid.singleton_placements ~strategies ~inputs ()

let e2 ?(quick = false) () =
  let representative =
    Grid.product ~name:"e2-representative"
      ~graphs:[ ("fig1b", 2) ]
      ~algos:[ Scenario.A1; Scenario.A2 ]
      ~placements:(fun _ ~f:_ ->
        List.map Nodeset.of_list
          (if quick then [ [ 0; 1 ] ] else [ [ 0; 1 ]; [ 0; 4 ]; [ 2; 6 ] ]))
      ~strategies:[ S.Flip_forwards; S.Lie ]
      ~inputs:Grid.unanimous_inputs ()
  in
  if quick then { representative with Grid.name = "e2" }
  else
    let exhaustive =
      Grid.product ~name:"e2-exhaustive"
        ~graphs:[ ("fig1b", 2) ]
        ~algos:[ Scenario.A2 ]
        ~placements:(Grid.placements_of_size 2)
        ~strategies:
          [
            S.Flip_forwards; S.Silent; S.Omit_from (Nodeset.of_list [ 2; 3 ]);
            S.Noise 2;
          ]
        ~inputs:Grid.unanimous_inputs ()
    in
    Grid.append ~name:"e2" [ representative; exhaustive ]

let default_e5_sizes = [ 5; 7; 9; 11; 13; 15; 17 ]

let e5 ?(sizes = default_e5_sizes) () =
  Grid.product ~name:"e5"
    ~graphs:(List.map (fun n -> (Printf.sprintf "cycle:%d" n, 1)) sizes)
    ~algos:[ Scenario.A2 ]
    ~placements:(fun g ~f:_ -> [ Nodeset.singleton (G.size g / 2) ])
    ~strategies:[ S.Flip_forwards ]
    ~inputs:(fun g ~faulty:_ ->
      let n = G.size g in
      let v = Array.make n Bit.One in
      v.(n / 2) <- Bit.Zero;
      [ v ])
    ()

let e8 ?(quick = false) () =
  let fig1 =
    Grid.product ~name:"e8-fig1"
      ~graphs:(("fig1a", 1) :: (if quick then [] else [ ("fig1b", 2) ]))
      ~algos:[ Scenario.A1; Scenario.A2 ]
      ~placements:(fun g ~f ->
        [ (if G.size g = 5 then Nodeset.singleton 2
           else Nodeset.of_list (if f = 2 then [ 0; 4 ] else [ 2 ])) ])
      ~strategies:[ S.Flip_forwards ]
      ~inputs:all_one ()
  in
  if quick then { fig1 with Grid.name = "e8" }
  else
    let baselines =
      Grid.append ~name:"e8-baselines"
        [
          Grid.product ~name:"relay"
            ~graphs:[ ("wheel:7", 1) ]
            ~algos:[ Scenario.Relay ]
            ~placements:(fun _ ~f:_ -> [ Nodeset.singleton 3 ])
            ~strategies:[ S.Equivocate ] ~inputs:all_one ();
          Grid.product ~name:"eig"
            ~graphs:[ ("complete:7", 2) ]
            ~algos:[ Scenario.Eig ]
            ~placements:(fun _ ~f:_ -> [ Nodeset.of_list [ 1; 4 ] ])
            ~strategies:[ S.Lie ] ~inputs:all_one ();
        ]
    in
    Grid.append ~name:"e8" [ fig1; baselines ]

let smoke () = { (e1 ~inputs:`Unanimous ()) with Grid.name = "smoke" }

(* Regression for the former 62-node packing ceiling: a single Algorithm 2
   run on a 100-node cycle (ids up to 99 span two bitset words). One
   scenario only — A2 on cycle:n is O(n^2) messages, so this stays a
   smoke, not a sweep. *)
let n100 () =
  let n = 100 in
  Grid.product ~name:"n100"
    ~graphs:[ (Printf.sprintf "cycle:%d" n, 1) ]
    ~algos:[ Scenario.A2 ]
    ~placements:(fun _ ~f:_ -> [ Nodeset.singleton (n / 2) ])
    ~strategies:[ S.Flip_forwards ]
    ~inputs:all_one ()

(* Degradation study (bench E-series): sweep perturbation intensity for
   A1 and A2 on a 7-cycle, honest-behaving and tampering fault, flipped
   unanimous inputs. [None] first keeps an unperturbed baseline point in
   every cell. *)
let degradation_points =
  [
    { P.zero with P.drop = 0.02 };
    { P.zero with P.drop = 0.05 };
    { P.zero with P.drop = 0.1 };
    { P.zero with P.dup = 0.1 };
    { P.zero with P.delay = 2; P.delay_p = 0.25 };
    { P.zero with P.crash = 0.02; P.crash_len = 2 };
  ]

let edeg () =
  Grid.product ~name:"edeg"
    ~chaos:(None :: Grid.chaos_points degradation_points)
    ~graphs:[ ("cycle:7", 1) ]
    ~algos:[ Scenario.A1; Scenario.A2 ]
    ~placements:(fun _ ~f:_ -> [ Nodeset.singleton 3 ])
    ~strategies:[ S.Honest_behavior; S.Flip_forwards ]
    ~inputs:Grid.unanimous_inputs ()

(* Containment smoke: a few perturbed consensus runs, one scenario whose
   execution raises (Equivocate under the pure local broadcast model hits
   [Engine.Model_violation]), and one long A1 run (110 rounds on the
   Petersen graph) that times out under a modest [--max-rounds] budget.
   Exercises the Crashed / Timed_out verdict paths end to end. *)
let chaos_smoke () =
  let drop = { P.zero with P.drop = 0.1 } in
  let perturbed =
    Grid.product ~name:"chaos-drop"
      ~chaos:[ Some drop ]
      ~graphs:[ ("cycle:5", 1) ]
      ~algos:[ Scenario.A1; Scenario.A2 ]
      ~placements:(fun _ ~f:_ -> [ Nodeset.singleton 2 ])
      ~strategies:[ S.Flip_forwards ]
      ~inputs:Grid.unanimous_inputs ()
  in
  let crashing =
    Grid.product ~name:"chaos-crashing"
      ~graphs:[ ("cycle:5", 1) ]
      ~algos:[ Scenario.A1 ]
      ~placements:(fun _ ~f:_ -> [ Nodeset.singleton 2 ])
      ~strategies:[ S.Equivocate ] ~inputs:all_one ()
  in
  let slow =
    Grid.product ~name:"chaos-slow"
      ~graphs:[ ("petersen", 1) ]
      ~algos:[ Scenario.A1 ]
      ~placements:(fun _ ~f:_ -> [ Nodeset.singleton 3 ])
      ~strategies:[ S.Flip_forwards ] ~inputs:all_one ()
  in
  Grid.append ~name:"chaos-smoke" [ perturbed; crashing; slow ]

(* E15 — latency degradation study: A1 and A2 on a 7-cycle across the
   named network profiles × packet-drop chaos, flipped-unanimous inputs.
   [None] first on both axes keeps a latency-free, unperturbed baseline
   point in every cell, so the table reads as "rounds stay put, simulated
   tail latency moves". *)
let e15 ?(quick = false) () =
  let module N = Lbc_net.Net in
  let profiles =
    if quick then [ N.wan ] else [ N.lan; N.wan; N.satellite; N.heavy_tail ]
  in
  let chaos =
    if quick then [ None; Some { P.zero with P.drop = 0.01 } ]
    else
      [
        None;
        Some { P.zero with P.drop = 0.01 };
        Some { P.zero with P.drop = 0.05 };
      ]
  in
  Grid.product ~name:"e15"
    ~net:(None :: Grid.net_points profiles)
    ~chaos
    ~graphs:[ ("cycle:7", 1) ]
    ~algos:[ Scenario.A1; Scenario.A2 ]
    ~placements:(fun _ ~f:_ -> [ Nodeset.singleton 3 ])
    ~strategies:[ S.Flip_forwards ]
    ~inputs:Grid.unanimous_inputs ()

(* Randomised falsification: case [k] draws, from its own
   [Random.State], the inputs, a fault-set size and subset, one kind per
   faulty node in [Nodeset.fold] order (Flip_from/Omit_from victims
   re-drawn) and, for A3, the equivocators among the faulty (at most
   [t], running Equivocate). *)
let draw_kind st n =
  match Random.State.int st 10 with
  | 0 -> S.Honest_behavior
  | 1 -> S.Silent
  | 2 -> S.Crash_at (1 + Random.State.int st 3)
  | 3 -> S.Lie
  | 4 -> S.Flip_forwards
  | 5 ->
      S.Flip_from
        (Nodeset.of_list [ Random.State.int st n; Random.State.int st n ])
  | 6 ->
      S.Omit_from
        (Nodeset.of_list [ Random.State.int st n; Random.State.int st n ])
  | 7 -> S.Omit_sampled (Random.State.int st 100)
  | 8 -> S.Spurious (1 + Random.State.int st 2)
  | _ -> S.Noise (1 + Random.State.int st 2)

let rec draw_subset st ~n ~size acc =
  if Nodeset.cardinal acc >= size then acc
  else draw_subset st ~n ~size (Nodeset.add (Random.State.int st n) acc)

let fuzz ~gname ~f ~algo ~runs ~seed ?(max_faults = f) () =
  let build () =
    match B.of_spec gname with
    | Ok g -> g
    | Error msg -> invalid_arg ("Grids.fuzz: " ^ msg)
  in
  let n = G.size (build ()) in
  let case k =
    let st = Random.State.make [| 0xFACE; seed + k |] in
    let inputs = Array.init n (fun _ -> Bit.of_bool (Random.State.bool st)) in
    let faulty =
      draw_subset st ~n ~size:(Random.State.int st (max_faults + 1))
        Nodeset.empty
    in
    let kinds =
      Nodeset.fold (fun v acc -> (v, draw_kind st n) :: acc) faulty []
    in
    let equivocators =
      match algo with
      | Scenario.A3 t ->
          Nodeset.filter (fun _ -> Random.State.bool st) faulty
          |> Nodeset.elements
          |> List.filteri (fun i _ -> i < t)
          |> Nodeset.of_list
      | _ -> Nodeset.empty
    in
    let per_node =
      List.map
        (fun (v, k) ->
          (v, if Nodeset.mem v equivocators then S.Equivocate else k))
        kinds
    in
    Scenario.make ~gname ~build ~algo ~f ~faulty ~equivocators
      ~strategy:S.Silent ~per_node ~inputs ()
  in
  Grid.make ~name:"fuzz" (Seq.init runs case)

(* E13: the campaigns that caught the implementation-level soundness
   bugs (DESIGN.md §3), 300 or 30 runs scaled down per row. *)
let e13 ?(quick = false) () =
  let scale = if quick then 30 else 300 in
  List.map
    (fun (label, gname, f, algo, factor) ->
      (label, fuzz ~gname ~f ~algo ~runs:(scale / factor) ~seed:0 ()))
    [
      ("A2 / cycle5 f=1", "fig1a", 1, Scenario.A2, 1);
      ("A2 / fig1b f=2", "fig1b", 2, Scenario.A2, 2);
      ("A1 / cycle5 f=1", "fig1a", 1, Scenario.A1, 2);
      ("A3 / K4 f=t=1", "complete:4", 1, Scenario.A3 1, 2);
      ("relay / wheel7 f=1", "wheel:7", 1, Scenario.Relay, 3);
    ]

let names =
  [
    "e1"; "e1-unanimous"; "e2"; "e5"; "e8"; "edeg"; "e15"; "chaos-smoke";
    "smoke"; "n100";
  ]

let by_name ?(quick = false) = function
  | "e1" -> Some (e1 ~quick ())
  | "e1-unanimous" -> Some (e1 ~inputs:`Unanimous ~quick ())
  | "e2" -> Some (e2 ~quick ())
  | "e5" -> Some (e5 ?sizes:(if quick then Some [ 5; 9; 13 ] else None) ())
  | "e8" -> Some (e8 ~quick ())
  | "edeg" -> Some (edeg ())
  | "e15" -> Some (e15 ~quick ())
  | "chaos-smoke" -> Some (chaos_smoke ())
  | "smoke" -> Some (smoke ())
  | "n100" -> Some (n100 ())
  | _ -> None
