(* Paper-experiment harness.

   The paper (PODC'19) is a theory paper: its "evaluation" artefacts are
   Figure 1 (graphs meeting the tight condition), Figures 2-5 / Table 1
   (the necessity gadgets), and the quantitative claims in the text
   (round complexity, phase counts, threshold trade-offs). This harness
   regenerates each of them as an experiment E1-E15 (see DESIGN.md and
   EXPERIMENTS.md) and prints them as tables on stdout; E17 checks the
   campaign core's kill/resume and result-cache identities. It writes no
   file: timing trends belong to bench/perf (lbcbench).

   The exhaustive sweeps (E1, E2, E5, E8) are expressed as declarative
   campaign grids (lib/campaign) and execute on an OCaml 5 domain pool;
   pass --domains N to parallelise them. Their aggregate results are
   byte-identical at any domain count.

   Run with:  dune exec bench/main.exe            (full, ~ minutes)
              dune exec bench/main.exe -- --quick (reduced sweeps)
              dune exec bench/main.exe -- --domains 4
   Any other argument is a usage error (exit 2).                         *)

module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module D = Lbc_graph.Disjoint
module Cond = Lbc_graph.Conditions
module Combi = Lbc_graph.Combi
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module A1 = Lbc_consensus.Algorithm1
module A2 = Lbc_consensus.Algorithm2
module A3 = Lbc_consensus.Algorithm3
module S = Lbc_adversary.Strategy
module Gadget = Lbc_lowerbound.Gadget

(* Exactly two flags. A typo must not fall through to the full
   multi-minute run, so anything else is a usage error (exit 2). *)
let quick, domains =
  let usage msg =
    Printf.eprintf "main.exe: %s\nusage: main.exe [--quick] [--domains N]\n"
      msg;
    exit 2
  in
  let rec scan quick domains = function
    | [] -> (quick, domains)
    | "--quick" :: rest -> scan true domains rest
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 -> scan quick d rest
        | _ -> usage ("--domains expects an integer >= 1, got " ^ v))
    | [ "--domains" ] -> usage "--domains expects a value"
    | arg :: _ -> usage ("unknown argument " ^ arg)
  in
  scan false 1 (List.tl (Array.to_list Sys.argv))

let header id title =
  Printf.printf "\n%s\n %s  %s\n%s\n" (String.make 78 '=') id title
    (String.make 78 '=')

let kind_name k = Format.asprintf "%a" S.pp_kind k

(* ------------------------------------------------------------------ *)
(* E1 / E2: sufficiency on the paper's Figure 1 graphs                  *)
(* ------------------------------------------------------------------ *)

module Campaign = Lbc_campaign
module Net = Lbc_net.Net

(* Execute a grid on the domain pool; verdicts come back ordered by
   scenario index, i.e. aligned with [Grid.to_array]. *)
let run_campaign grid =
  let config = { Campaign.Runner.default with domains } in
  let scenarios = Campaign.Grid.to_array grid in
  (scenarios, Campaign.Runner.run_exn ~config grid)

(* Aggregate verdicts per (algorithm, strategy) in first-seen order —
   the classic sweep table, now derived from a campaign artifact. *)
let campaign_table scenarios (a : Campaign.Artifact.t) =
  Printf.printf "  %-6s %-28s %8s %8s %10s %12s\n" "algo" "strategy" "runs"
    "ok" "rounds" "msgs";
  let keys = ref [] in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Campaign.Scenario.t) ->
      let v = a.Campaign.Artifact.verdicts.(i) in
      let key =
        ( Campaign.Scenario.algo_name s.Campaign.Scenario.algo,
          kind_name s.Campaign.Scenario.strategy )
      in
      (if not (Hashtbl.mem tbl key) then begin
         keys := key :: !keys;
         Hashtbl.add tbl key (ref 0, ref 0, ref 0, ref 0)
       end);
      let runs, ok, rounds, msgs = Hashtbl.find tbl key in
      incr runs;
      if v.Campaign.Scenario.ok then incr ok;
      rounds := v.Campaign.Scenario.rounds;
      msgs := !msgs + v.Campaign.Scenario.transmissions)
    scenarios;
  List.iter
    (fun ((algo, strat) as key) ->
      let runs, ok, rounds, msgs = Hashtbl.find tbl key in
      Printf.printf "  %-6s %-28s %8d %8d %10d %12d\n" algo strat !runs !ok
        !rounds
        (!msgs / max 1 !runs))
    (List.rev !keys);
  let s = Campaign.Artifact.summarize a in
  Printf.printf
    "  -> %d/%d scenarios ok; campaign wall %.3f s on %d domain(s)\n"
    s.Campaign.Artifact.ok s.Campaign.Artifact.total
    a.Campaign.Artifact.run.Campaign.Artifact.wall_s domains;
  (* per-algorithm counter aggregates from the artifact's stats section
     (lbc-campaign/2) — deterministic, so they double as a cheap
     cross-machine regression signal for the instrumented hot paths. *)
  Printf.printf "\n  %-6s %10s %12s %12s %12s %14s\n" "algo" "rounds"
    "flood.accept" "dedup.hit" "dfs.visited" "tx (engine)";
  List.iter
    (fun (b : Campaign.Stats.algo_stats) ->
      let c name = Campaign.Stats.counter a.Campaign.Artifact.stats
          ~algo:b.Campaign.Stats.algo name in
      Printf.printf "  %-6s %10d %12d %12d %12d %14d\n" b.Campaign.Stats.algo
        (c "engine.rounds") (c "flood.accept") (c "flood.dedup_hit")
        (c "packing.dfs_visited") (c "engine.tx"))
    a.Campaign.Artifact.stats

let e1 () =
  header "E1" "Figure 1(a): the 5-cycle, f = 1 (Theorem 5.1 sufficiency)";
  let g = B.fig1a () in
  Printf.printf
    "  condition: min degree %d >= 2f = 2; connectivity %d >= floor(3f/2)+1 = 2\n\
    \  point-to-point would need connectivity 3 and n >= 4 honest quorum: \
     infeasible here.\n\n"
    (G.min_degree g) (D.connectivity g);
  Printf.printf
    "  campaign grid: {A1 (%d phases x 5 rounds), A2} x 5 placements x %s \
     strategies x %s:\n"
    (A1.phases ~g ~f:1)
    (if quick then "2" else "11")
    (if quick then "unanimous inputs" else "all 32 input vectors");
  let scenarios, a =
    run_campaign
      (Campaign.Grids.e1
         ~inputs:(if quick then `Unanimous else `All)
         ~quick ())
  in
  campaign_table scenarios a

let e2 () =
  header "E2" "Figure 1(b): 8-node 4-regular graph, f = 2";
  let g = B.fig1b () in
  Printf.printf
    "  C8(1,2): min degree %d >= 2f = 4; connectivity %d >= floor(3f/2)+1 = 4\n\n"
    (G.min_degree g) (D.connectivity g);
  Printf.printf
    "  campaign grid: representative A1+A2 sweep (%d phases x 8 rounds for \
     A1)%s:\n"
    (A1.phases ~g ~f:2)
    (if quick then ""
     else " + exhaustive A2 over all 28 fault pairs x 4 strategies");
  let scenarios, a = run_campaign (Campaign.Grids.e2 ~quick ()) in
  campaign_table scenarios a

(* ------------------------------------------------------------------ *)
(* E3 / E4: necessity gadgets                                           *)
(* ------------------------------------------------------------------ *)

let run_gadget name gadget g f =
  Printf.printf "  %s\n  %s\n" name (Gadget.describe gadget);
  let proc = A1.proc ~g ~f in
  let rounds = A1.rounds ~g ~f in
  let v = Gadget.run gadget ~proc ~rounds in
  Printf.printf
    "  doubled network: zero-group ok=%b one-group ok=%b => forced split=%b\n"
    v.Gadget.group_zero_ok v.Gadget.group_one_ok v.Gadget.split;
  let o = Gadget.replay_e2 gadget ~proc ~rounds in
  let a, b = Gadget.e2_sides gadget in
  Printf.printf
    "  E2 replayed on G: agreement=%b (sides %s vs %s, %d faulty) -- \
     condition is necessary\n\n"
    (Spec.agreement o) (Nodeset.to_string a) (Nodeset.to_string b)
    (Nodeset.cardinal (Gadget.e2_faulty gadget))

let e3 () =
  header "E3" "Lemma A.1 / Figure 2: degree < 2f is fatal";
  let g = G.of_edges 5 [ (1, 2); (2, 3); (3, 4); (4, 1); (0, 1) ] in
  run_gadget "pendant node on C4, f=1" (Gadget.degree_gadget g ~f:1 ()) g 1;
  if not quick then begin
    let g2 = B.fig1b () in
    G.remove_edge g2 0 1;
    run_gadget "C8(1,2) minus one edge, f=2"
      (Gadget.degree_gadget g2 ~f:2 ~z:0 ())
      g2 2
  end

let e4 () =
  header "E4" "Lemma A.2 / Figure 3: connectivity <= floor(3f/2) is fatal";
  let g = B.two_cliques_with_cut ~a:2 ~b:2 ~c:1 in
  run_gadget "two triangles, cut {2}, f=1"
    (Gadget.connectivity_gadget g ~f:1 ())
    g 1;
  let g2 = B.path_graph 5 in
  run_gadget "path graph, f=1" (Gadget.connectivity_gadget g2 ~f:1 ()) g2 1

(* ------------------------------------------------------------------ *)
(* E5: Theorem 5.6 round linearity                                      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5" "Theorem 5.6: Algorithm 2 runs in O(n) rounds (3n + 1 exactly)";
  Printf.printf "  %-8s %-8s %10s %10s %12s %8s\n" "n" "f" "rounds" "3n+1"
    "msgs" "ok";
  let sizes = if quick then [ 5; 9; 13 ] else [ 5; 7; 9; 11; 13; 15; 17 ] in
  let scenarios, a = run_campaign (Campaign.Grids.e5 ~sizes ()) in
  Array.iteri
    (fun i (s : Campaign.Scenario.t) ->
      let v = a.Campaign.Artifact.verdicts.(i) in
      let n = Array.length s.Campaign.Scenario.inputs in
      Printf.printf "  %-8d %-8d %10d %10d %12d %8b\n" n s.Campaign.Scenario.f
        v.Campaign.Scenario.rounds
        ((3 * n) + 1)
        v.Campaign.Scenario.transmissions v.Campaign.Scenario.ok)
    scenarios

(* ------------------------------------------------------------------ *)
(* E6: hybrid sufficiency                                               *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6" "Theorem 6.1: hybrid-model consensus (Algorithm 3)";
  Printf.printf "  K4, f = t = 1 (pure point-to-point adversary):\n";
  let g = B.complete 4 in
  let kinds = if quick then [ S.Equivocate ] else S.kinds_hybrid in
  Printf.printf "  %-28s %8s %8s\n" "strategy" "runs" "ok";
  List.iter
    (fun kind ->
      let runs = ref 0 and ok = ref 0 in
      List.iter
        (fun bad ->
          List.iter
            (fun uni ->
              let inputs = Array.make 4 uni in
              inputs.(bad) <- Bit.flip uni;
              let o =
                A3.run ~g ~f:1 ~t:1 ~inputs ~faulty:(Nodeset.singleton bad)
                  ~equivocators:(Nodeset.singleton bad)
                  ~strategy:(fun _ -> kind) ()
              in
              incr runs;
              if Spec.agreement o && Spec.decision o = Some uni then incr ok)
            [ Bit.Zero; Bit.One ])
        [ 0; 1; 2; 3 ];
      Printf.printf "  %-28s %8d %8d\n" (kind_name kind) !runs !ok)
    kinds;
  Printf.printf "\n  K6, f = 2, t = 1 (one equivocator + one broadcast-bound):\n";
  let g = B.complete 6 in
  let pairs = if quick then [ (0, 1) ] else [ (0, 1); (2, 5); (4, 3) ] in
  List.iter
    (fun (i, j) ->
      List.iter
        (fun uni ->
          let inputs = Array.make 6 uni in
          inputs.(i) <- Bit.flip uni;
          inputs.(j) <- Bit.flip uni;
          let o =
            A3.run ~g ~f:2 ~t:1 ~inputs ~faulty:(Nodeset.of_list [ i; j ])
              ~equivocators:(Nodeset.singleton i)
              ~strategy:(fun v ->
                if v = i then S.Equivocate else S.Flip_forwards)
              ()
          in
          Printf.printf
            "  equivocator=%d liar=%d uni=%s: agreement=%b decision ok=%b \
             (%d phases)\n"
            i j (Bit.to_string uni) (Spec.agreement o)
            (Spec.decision o = Some uni)
            o.Spec.phases)
        [ Bit.Zero; Bit.One ])
    pairs

(* E6b: hybrid necessity — Lemmas D.1 and D.2 executed. *)
let e6b () =
  header "E6b" "Theorem 6.1 necessity: Lemma D.1 / D.2 gadgets (Figures 4-5)";
  let attack name gadget g f t =
    Printf.printf "  %s\n  %s\n" name (Gadget.describe gadget);
    let proc = A3.proc ~g ~f ~t in
    let rounds = A3.phases ~g ~f ~t * G.size g in
    let v = Gadget.run gadget ~proc ~rounds in
    let o = Gadget.replay_e2 gadget ~proc ~rounds in
    Printf.printf
      "  doubled network split=%b; E2 on G: agreement=%b with %d fault(s), \
       equivocating replay\n\n"
      v.Gadget.split (Spec.agreement o)
      (Nodeset.cardinal (Gadget.e2_faulty gadget))
  in
  let g =
    G.of_edges 5
      [ (0, 1); (0, 2); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ]
  in
  attack "D.1: |N(S)| = 2 <= 2f, f=t=1"
    (Gadget.hybrid_neighborhood_gadget g ~f:1 ~t:1 ~s:(Nodeset.singleton 0) ())
    g 1 1;
  let g2 =
    G.of_edges 6
      [
        (0, 1); (0, 2); (0, 5); (1, 2); (1, 5); (3, 4); (3, 2); (3, 5);
        (4, 2); (4, 5); (2, 5);
      ]
  in
  Printf.printf
    "  (the next graph IS feasible under pure local broadcast at f=1: \
     lbc_feasible=%b;\n   one equivocating fault breaks it)\n"
    (Cond.lbc_feasible g2 ~f:1);
  attack "D.2: 2-cut, f=t=1"
    (Gadget.hybrid_connectivity_gadget g2 ~f:1 ~t:1 ())
    g2 1 1

(* ------------------------------------------------------------------ *)
(* E7: threshold comparison table                                       *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7"
    "Headline comparison: max tolerable f per model (Theorems 4.1/5.1 vs \
     Dolev'82)";
  Printf.printf "  %-22s %4s %6s %6s %9s %9s %12s\n" "graph" "n" "minΔ" "κ"
    "f (LBC)" "f (p2p)" "f (hyb t=1)";
  let families =
    [
      ("cycle 5 (Fig 1a)", B.fig1a ());
      ("C8(1,2) (Fig 1b)", B.fig1b ());
      ("petersen", B.petersen ());
      ("complete 7", B.complete 7);
      ("torus 4x4", B.torus 4 4);
      ("hypercube d=4", B.hypercube 4);
      ("tight f=2", B.tight 2);
      ("tight f=3", B.tight 3);
      ("harary 4,10", B.harary 4 10);
      ("wheel 8", B.wheel 8);
    ]
  in
  List.iter
    (fun (name, g) ->
      Printf.printf "  %-22s %4d %6d %6d %9d %9d %12d\n" name (G.size g)
        (G.min_degree g) (D.connectivity g) (Cond.max_f_lbc g)
        (Cond.max_f_p2p g)
        (Cond.max_f_hybrid g ~t:1))
    families;
  Printf.printf
    "\n  (hybrid column: -1 means infeasible even at f = t = 1.)\n"

(* ------------------------------------------------------------------ *)
(* E8: efficiency gap (Section 5.3 motivation)                          *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8"
    "Efficiency gap: exponential phases (Alg 1) vs linear rounds (Alg 2 / \
     relay)";
  Printf.printf "  Phase/round formulas on n-node graphs:\n";
  Printf.printf "  %-6s %-4s %14s %14s %12s %14s\n" "n" "f" "A1 phases"
    "A1 rounds" "A2 rounds" "relay rounds";
  List.iter
    (fun (n, f) ->
      Printf.printf "  %-6d %-4d %14d %14d %12d %14d\n" n f
        (Combi.phase_count ~n ~f)
        (Combi.phase_count ~n ~f * n)
        (3 * n)
        ((f + 1) * n))
    [ (8, 1); (8, 2); (8, 3); (16, 2); (16, 4); (32, 4); (32, 8) ];
  Printf.printf
    "\n  Measured via the e8 campaign grid (faults per grid definition):\n";
  Printf.printf "  %-26s %10s %10s %14s\n" "algorithm/graph" "rounds" "phases"
    "msgs";
  let scenarios, a = run_campaign (Campaign.Grids.e8 ~quick ()) in
  Array.iteri
    (fun i (s : Campaign.Scenario.t) ->
      let v = a.Campaign.Artifact.verdicts.(i) in
      Printf.printf "  %-26s %10d %10d %14d\n"
        (Printf.sprintf "%s / %s f=%d"
           (Campaign.Scenario.algo_name s.Campaign.Scenario.algo)
           s.Campaign.Scenario.gname s.Campaign.Scenario.f)
        v.Campaign.Scenario.rounds v.Campaign.Scenario.phases
        v.Campaign.Scenario.transmissions)
    scenarios

(* E8b: stabilisation ablation — when does Algorithm 1 settle? The proof
   only guarantees agreement from the decisive phase (F ⊇ faults) on, but
   executions typically stabilise earlier; this measures the gap. *)
let e8b () =
  header "E8b"
    "Ablation: phase at which Algorithm 1 stabilises vs the decisive phase";
  Printf.printf "  %-22s %10s %16s %16s\n" "configuration" "phases"
    "first decisive" "last change";
  let measure name g f faulty strategy seed =
    let inputs =
      Array.init (G.size g) (fun i -> Bit.of_int ((i / 2) land 1))
    in
    let last_change = ref (-1) in
    let first_decisive = ref (-1) in
    let honest v = not (Nodeset.mem v faulty) in
    let (_ : Spec.outcome) =
      A1.run ~g ~f ~inputs ~faulty ~strategy ~seed
        ~observer:(fun o ->
          if
            !first_decisive < 0
            && Nodeset.subset faulty o.A1.cap_f
          then first_decisive := o.A1.phase_idx;
          let changed =
            List.exists
              (fun v ->
                honest v
                && not (Bit.equal o.A1.before.(v) o.A1.after.(v)))
              (G.nodes g)
          in
          if changed then last_change := o.A1.phase_idx)
        ()
    in
    Printf.printf "  %-22s %10d %16d %16d\n" name (A1.phases ~g ~f)
      !first_decisive !last_change
  in
  measure "cycle5 f=1 flip" (B.fig1a ()) 1 (Nodeset.singleton 3)
    (fun _ -> S.Flip_forwards)
    0;
  measure "cycle5 f=1 silent" (B.fig1a ()) 1 (Nodeset.singleton 3)
    (fun _ -> S.Silent)
    0;
  measure "tight1 f=1 lie" (B.tight 1) 1 (Nodeset.singleton 0)
    (fun _ -> S.Lie)
    0;
  if not quick then
    measure "fig1b f=2 flip+lie" (B.fig1b ()) 2 (Nodeset.of_list [ 0; 5 ])
      (fun v -> if v = 0 then S.Flip_forwards else S.Lie)
      0;
  Printf.printf
    "\n  -> states may settle before the decisive phase (the guarantee), \
     but never change after it\n\
    \     (the stability property verified in test_lemmas.ml).\n"

(* ------------------------------------------------------------------ *)
(* E9: hybrid trade-off sweep                                           *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9" "Section 6: connectivity requirement as equivocation grows";
  Printf.printf "  required connectivity floor(3(f-t)/2) + 2t + 1:\n";
  Printf.printf "  %-6s" "f\\t";
  for t = 0 to 6 do
    Printf.printf "%6d" t
  done;
  print_newline ();
  for f = 1 to 6 do
    Printf.printf "  %-6d" f;
    for t = 0 to 6 do
      if t <= f then
        Printf.printf "%6d" (Cond.hybrid_required_connectivity ~f ~t)
      else Printf.printf "%6s" "-"
    done;
    print_newline ()
  done;
  Printf.printf "\n  smallest feasible complete graph K_n per (f, t):\n";
  Printf.printf "  %-6s" "f\\t";
  for t = 0 to 4 do
    Printf.printf "%6d" t
  done;
  print_newline ();
  for f = 1 to 4 do
    Printf.printf "  %-6d" f;
    for t = 0 to 4 do
      if t <= f then begin
        let rec smallest n =
          if n > 40 then -1
          else if Cond.hybrid_feasible (B.complete n) ~f ~t then n
          else smallest (n + 1)
        in
        Printf.printf "%6d" (smallest (f + 1))
      end
      else Printf.printf "%6s" "-"
    done;
    print_newline ()
  done;
  Printf.printf
    "\n  t=0 column matches 2f+1 (local broadcast / Rabin-Ben-Or); t=f \
     matches 3f+1 (point-to-point).\n"

(* ------------------------------------------------------------------ *)
(* E10: related-work ablations (§2)                                     *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10"
    "§2 ablations: CPA broadcast liveness and W-MSR robustness vs the \
     exact-consensus condition";
  let module Cpa = Lbc_consensus.Cpa in
  let module It = Lbc_consensus.Iterative in
  Printf.printf
    "  Broadcast and consensus requirements do not coincide (CPA with one \
     silent fault):\n";
  Printf.printf "  %-14s %10s %12s %10s\n" "graph" "LBC f=1" "CPA live"
    "3-robust";
  List.iter
    (fun (name, g) ->
      let worst_live =
        List.for_all
          (fun bad ->
            let o =
              Cpa.run ~g ~f:1 ~source:0 ~value:Bit.One
                ~faulty:(Nodeset.singleton bad) ~lie:false ()
            in
            Cpa.live o ~faulty:(Nodeset.singleton bad))
          (List.filter (( <> ) 0) (G.nodes g))
      in
      Printf.printf "  %-14s %10b %12b %10b\n" name
        (Cond.lbc_feasible g ~f:1)
        worst_live
        (Cond.r_robust g ~r:3))
    [
      ("cycle 5", B.fig1a ());
      ("torus 3x3", B.torus 3 3);
      ("complete 7", B.complete 7);
      ("petersen", B.petersen ());
    ];
  Printf.printf
    "\n  W-MSR (iterative, approximate) spread after 40 rounds, one fault:\n";
  Printf.printf "  %-14s %12s %16s %22s\n" "graph" "3-robust" "final spread"
    "exact consensus (A1)";
  List.iter
    (fun (name, g, inputs, faulty, adversary) ->
      let h = It.run ~g ~f:1 ~inputs ~faulty ~rounds:40 ?adversary () in
      let final =
        match List.rev h.It.spread with s :: _ -> s | [] -> 0.0
      in
      let bits =
        Array.map (fun x -> if x >= 0.5 then Bit.One else Bit.Zero) inputs
      in
      let o = A1.run ~g ~f:1 ~inputs:bits ~faulty () in
      Printf.printf "  %-14s %12b %16.6f %22b\n" name
        (Cond.r_robust g ~r:3)
        final (Spec.consensus_ok o))
    [
      ( "cycle 5",
        B.fig1a (),
        [| 0.0; 0.0; 0.5; 1.0; 1.0 |],
        Nodeset.singleton 2,
        Some (fun ~me:_ ~round:_ -> 0.0) );
      ( "complete 7",
        B.complete 7,
        [| 0.0; 1.0; 0.2; 0.9; 0.5; 0.4; 0.7 |],
        Nodeset.singleton 3,
        None );
    ];
  Printf.printf
    "\n  -> on the 5-cycle the iterative class stalls at spread 1.0 while \
     Algorithm 1 is exact,\n\
    \     matching §2: the restricted class needs strictly stronger \
     networks and yields only\n\
    \     approximate agreement.\n"

(* E12: W-MSR convergence rate on robust graphs — geometric but never
   exact, vs the one-shot exactness of Algorithm 2. *)
let e12 () =
  header "E12"
    "W-MSR convergence: spread per round on a 3-robust graph (one fault)";
  let module It = Lbc_consensus.Iterative in
  let g = B.complete 7 in
  let inputs = [| 0.0; 1.0; 0.2; 0.9; 0.5; 0.4; 0.7 |] in
  let faulty = Nodeset.singleton 3 in
  let h = It.run ~g ~f:1 ~inputs ~faulty ~rounds:24 () in
  Printf.printf "  %-8s %14s\n" "round" "spread";
  List.iteri
    (fun r s ->
      if r mod 3 = 0 then Printf.printf "  %-8d %14.8f\n" r s)
    h.It.spread;
  let ratios =
    let rec go = function
      | a :: (b :: _ as rest) when a > 1e-12 -> (b /. a) :: go rest
      | _ -> []
    in
    go h.It.spread
  in
  let avg = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
  Printf.printf
    "\n  mean contraction per round ~ %.3f: geometric decay — ε-agreement \
     after O(log 1/ε)\n\
    \  rounds but no finite-round exact decision, while Algorithm 2 \
     decides exactly in\n\
    \  3n+1 rounds on the same graph.\n"
    avg

(* ------------------------------------------------------------------ *)
(* E11: message complexity of path-annotated flooding                   *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11"
    "Message complexity of one flooding phase: analytic (n + Σ simple \
     paths) vs measured";
  Printf.printf "  %-16s %6s %14s %14s %8s\n" "graph" "n" "predicted"
    "measured" "match";
  let flood_once g =
    let n = G.size g in
    let topo = Lbc_sim.Engine.topology_of_graph g in
    (* One path intern table for the flood's stores, as in an execution. *)
    let paths = Lbc_flood.Path_intern.create g in
    let roles =
      Array.init n (fun v ->
          Lbc_sim.Engine.Honest
            (Lbc_flood.Flood.proc
               (Lbc_flood.Flood.create g ~me:v ~vcompare:Bit.compare ~paths
                  ~initiate:Bit.One ~default:Bit.default ())))
    in
    let r =
      Lbc_sim.Engine.run topo ~model:Lbc_sim.Engine.Local_broadcast
        ~rounds:(Lbc_flood.Flood.rounds_needed g) ~roles
    in
    r.Lbc_sim.Engine.stats.Lbc_sim.Engine.transmissions
  in
  List.iter
    (fun (name, g) ->
      let predicted = Lbc_flood.Flood.predicted_transmissions g in
      let measured = flood_once g in
      Printf.printf "  %-16s %6d %14d %14d %8b\n" name (G.size g) predicted
        measured (predicted = measured))
    [
      ("cycle 8", B.cycle 8);
      ("cycle 16", B.cycle 16);
      ("fig1b", B.fig1b ());
      ("petersen", B.petersen ());
      ("grid 3x3", B.grid 3 3);
      ("complete 7", B.complete 7);
      ("tight f=2", B.tight 2);
    ];
  Printf.printf
    "\n  -> flooding carries one message per simple path: quadratic on \
     cycles, factorial on\n\
    \     dense graphs — the price of the exhaustive step (a), and why the \
     experiments use\n\
    \     the paper's own small graphs.\n"

(* E13: randomised falsification — the campaigns that caught the three
   implementation-level soundness bugs during development (see DESIGN.md)
   must stay clean. Each is a seeded grid (Grids.fuzz) run by the
   campaign runner, so a violation prints its [lbcast run] repro line. *)
let e13 () =
  header "E13" "Fuzz campaigns: randomised adversaries on feasible graphs";
  Printf.printf "  %-28s %8s %12s\n" "campaign" "runs" "violations";
  List.iter
    (fun (name, grid) ->
      let a =
        Campaign.Runner.run_exn
          ~config:{ Campaign.Runner.default with domains }
          grid
      in
      let bad =
        List.filter
          (fun (v : Campaign.Scenario.verdict) -> not v.Campaign.Scenario.ok)
          (Array.to_list a.Campaign.Artifact.verdicts)
      in
      Printf.printf "  %-28s %8d %12d\n" name
        (Array.length a.Campaign.Artifact.verdicts)
        (List.length bad);
      List.iter
        (fun v ->
          Printf.printf "    %s\n"
            (Format.asprintf "%a" Campaign.Scenario.pp_verdict v))
        bad)
    (Campaign.Grids.e13 ~quick ());
  Printf.printf
    "\n  every violation would print its verdict with an lbcast run repro \
     line;\n  none should appear on condition-satisfying graphs.\n"

(* E14: graceful degradation under environment chaos — the perturbation
   layer (lib/sim/perturb) violates the paper's perfect-synchrony model
   on purpose, so correctness is no longer guaranteed; what this table
   measures is how gently each algorithm fails as drop / duplication /
   delay / crash-restart rates grow. *)
let e14 () =
  header "E14"
    "Degradation under chaos: A1/A2 on C7, drop/dup/delay/crash sweeps";
  let module P = Lbc_sim.Perturb in
  let scenarios, a = run_campaign (Campaign.Grids.edeg ()) in
  Printf.printf "  %-26s %-6s %6s %6s %7s %8s %8s\n" "perturbation" "algo"
    "runs" "ok" "agree" "rounds" "msgs";
  let keys = ref [] in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Campaign.Scenario.t) ->
      let v = a.Campaign.Artifact.verdicts.(i) in
      let chaos =
        match s.Campaign.Scenario.chaos with
        | None -> "(none: exact model)"
        | Some spec -> P.to_string spec
      in
      let key = (chaos, Campaign.Scenario.algo_name s.Campaign.Scenario.algo) in
      (if not (Hashtbl.mem tbl key) then begin
         keys := key :: !keys;
         Hashtbl.add tbl key (ref 0, ref 0, ref 0, ref 0, ref 0)
       end);
      let runs, ok, agree, rounds, msgs = Hashtbl.find tbl key in
      incr runs;
      if v.Campaign.Scenario.ok then incr ok;
      if v.Campaign.Scenario.agreement then incr agree;
      rounds := max !rounds v.Campaign.Scenario.rounds;
      msgs := !msgs + v.Campaign.Scenario.transmissions)
    scenarios;
  List.iter
    (fun ((chaos, algo) as key) ->
      let runs, ok, agree, rounds, msgs = Hashtbl.find tbl key in
      Printf.printf "  %-26s %-6s %6d %6d %7d %8d %8d\n" chaos algo !runs !ok
        !agree !rounds
        (!msgs / max 1 !runs))
    (List.rev !keys);
  let s = Campaign.Artifact.summarize a in
  Printf.printf
    "  -> %d/%d ok (%d crashed, %d timed out); perturbation event counts \
     from the\n\
    \     artifact's obs section:\n"
    s.Campaign.Artifact.ok s.Campaign.Artifact.total s.Campaign.Artifact.crashed
    s.Campaign.Artifact.timeouts;
  Printf.printf "  %-6s %10s %12s %10s %10s %13s\n" "algo" "dropped"
    "duplicated" "delayed" "crashes" "crash_rounds";
  List.iter
    (fun (b : Campaign.Stats.algo_stats) ->
      let c name =
        Campaign.Stats.counter a.Campaign.Artifact.stats
          ~algo:b.Campaign.Stats.algo name
      in
      Printf.printf "  %-6s %10d %12d %10d %10d %13d\n" b.Campaign.Stats.algo
        (c "perturb.dropped") (c "perturb.duplicated") (c "perturb.delayed")
        (c "perturb.crashes") (c "perturb.crash_rounds"))
    a.Campaign.Artifact.stats;
  Printf.printf
    "\n  -> the exact-model baseline stays 100%% ok; perturbed cells may \
     fail, but\n\
    \     every failure is a contained verdict with a reproduction \
     command — the\n\
    \     campaign itself always completes.\n"

(* E15: round complexity vs simulated wall-time — the network layer
   (lib/net) assigns every delivery a sampled link latency, so each run
   reports a simulated time alongside its round count. Like E14, this is
   beyond the paper's model: rounds are the paper's metric, sim-time is
   the operator's. The sweep crosses the named profiles with packet-drop
   chaos; rounds barely move (the synchronous abstraction holds) while
   the simulated tail stretches with the profile. *)
let e15 () =
  header "E15"
    "Latency degradation: A1/A2 on C7 across network profiles x drop chaos";
  let module P = Lbc_sim.Perturb in
  let scenarios, a = run_campaign (Campaign.Grids.e15 ~quick ()) in
  Printf.printf "  %-12s %-22s %-6s %5s %4s %7s %11s %11s\n" "profile"
    "chaos" "algo" "runs" "ok" "rounds" "sim p50 (s)" "sim p99 (s)";
  let keys = ref [] in
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i (s : Campaign.Scenario.t) ->
      let v = a.Campaign.Artifact.verdicts.(i) in
      let profile =
        match s.Campaign.Scenario.net with
        | None -> "(no net)"
        | Some p -> Net.name p
      in
      let chaos =
        match s.Campaign.Scenario.chaos with
        | None -> "(none)"
        | Some spec -> P.to_string spec
      in
      let key =
        (profile, chaos, Campaign.Scenario.algo_name s.Campaign.Scenario.algo)
      in
      (if not (Hashtbl.mem tbl key) then begin
         keys := key :: !keys;
         Hashtbl.add tbl key (ref 0, ref 0, ref 0, ref [])
       end);
      let runs, ok, rounds, sims = Hashtbl.find tbl key in
      incr runs;
      if v.Campaign.Scenario.ok then incr ok;
      rounds := max !rounds v.Campaign.Scenario.rounds;
      sims := v.Campaign.Scenario.sim_ns :: !sims)
    scenarios;
  let pct sorted p =
    let n = Array.length sorted in
    let idx = (((n * p) + 99) / 100) - 1 in
    sorted.(max 0 (min (n - 1) idx))
  in
  List.iter
    (fun ((profile, chaos, algo) as key) ->
      let runs, ok, rounds, sims = Hashtbl.find tbl key in
      let sorted = Array.of_list !sims in
      Array.sort Int.compare sorted;
      Printf.printf "  %-12s %-22s %-6s %5d %4d %7d %11.6f %11.6f\n" profile
        chaos algo !runs !ok !rounds
        (Net.sim_time_s (pct sorted 50))
        (Net.sim_time_s (pct sorted 99)))
    (List.rev !keys);
  Printf.printf
    "\n  per-family percentiles from the artifact's deterministic [sim] \
     section:\n";
  List.iter
    (fun (e : Campaign.Artifact.sim_entry) ->
      Printf.printf "  %-32s p50 %10.6f s  p99 %10.6f s  max %10.6f s\n"
        e.Campaign.Artifact.family
        (Net.sim_time_s e.Campaign.Artifact.p50_ns)
        (Net.sim_time_s e.Campaign.Artifact.p99_ns)
        (Net.sim_time_s e.Campaign.Artifact.max_ns))
    (Campaign.Artifact.sim_stats a);
  Printf.printf "\n  net.* event counts from the artifact's obs section:\n";
  Printf.printf "  %-6s %14s %16s %14s\n" "algo" "links sampled"
    "total link ns" "sim ns";
  List.iter
    (fun (b : Campaign.Stats.algo_stats) ->
      let c name =
        Campaign.Stats.counter a.Campaign.Artifact.stats
          ~algo:b.Campaign.Stats.algo name
      in
      Printf.printf "  %-6s %14d %16d %14d\n" b.Campaign.Stats.algo
        (c "net.link_ns.count") (c "net.link_ns.sum") (c "net.sim_ns"))
    a.Campaign.Artifact.stats;
  Printf.printf
    "\n  -> round counts are profile-invariant (the synchronous barrier \
     hides latency);\n\
    \     the simulated tail is what degrades — satellite and heavy-tail \
     dominate p99.\n"

(* E17: the crash-survivable campaign core under its three stress axes —
   a straggler grid for the work-stealing scheduler, a kill/resume cycle
   for the verdict journal, and an overlapping re-run for the result
   cache. On the skewed grid at 4 domains the stealing wall should stay
   near the critical path (the slowest single scenario): the other
   workers drain the straggler's block while it runs. *)
let e17 () =
  header "E17" "campaign robustness: stealing, kill/resume, result cache";
  let sizes =
    (* Eleven cheap cycles and one ~10x straggler; at 4 domains the
       straggler's block holds two cheap scenarios that the other three
       workers steal while it runs. *)
    if quick then [ 5; 7; 5; 7; 25 ]
    else [ 5; 7; 9; 5; 7; 9; 5; 7; 9; 5; 7; 25 ]
  in
  let skew () = Campaign.Grids.e5 ~sizes () in
  let run ?journal ?cache ?kill ~domains grid =
    let config =
      {
        Campaign.Runner.default with
        domains;
        journal;
        cache;
        kill_after_verdicts = kill;
      }
    in
    Campaign.Runner.run_exn ~config grid
  in
  let a_steal = run ~domains:4 (skew ()) in
  let wall (a : Campaign.Artifact.t) =
    a.Campaign.Artifact.run.Campaign.Artifact.wall_s
  in
  let critical =
    List.fold_left
      (fun acc (_, w) -> Float.max acc w)
      0.0 a_steal.Campaign.Artifact.run.Campaign.Artifact.slowest
  in
  (* Kill/resume: crash after three journaled verdicts (exit path the
     fuzzer drives through the CLI), then resume from the journal and
     read the adopted-record count off the artifact. *)
  let journal = Filename.temp_file "lbc_e17_journal" ".jsonl" in
  (match
     run ~journal ~kill:(3, false) ~domains:1 (skew ())
   with
  | _ -> failwith "E17: kill point did not fire"
  | exception Campaign.Journal.Killed _ -> ());
  let a_resumed = run ~journal ~domains:1 (skew ()) in
  let recovered =
    a_resumed.Campaign.Artifact.run.Campaign.Artifact.recovery
      .Campaign.Artifact.recovered_records
  in
  (if
     Campaign.Artifact.deterministic_string a_resumed
     <> Campaign.Artifact.deterministic_string a_steal
   then failwith "E17: resumed artifact diverges from uninterrupted run");
  (* Result cache: a cold run populates the directory, an overlapping
     re-run answers every scenario from it. The cold run is serial so
     that its miss count is one per distinct scenario: on several
     domains two copies of one scenario can run at once and both miss. *)
  let cachedir =
    let probe = Filename.temp_file "lbc_e17_cache" "" in
    Sys.remove probe;
    probe
  in
  let a_cold = run ~cache:cachedir ~domains:1 (skew ()) in
  let a_warm = run ~cache:cachedir ~domains:2 (skew ()) in
  let info (a : Campaign.Artifact.t) =
    a.Campaign.Artifact.run.Campaign.Artifact.cache
  in
  (if
     Campaign.Artifact.deterministic_string a_warm
     <> Campaign.Artifact.deterministic_string a_cold
   then failwith "E17: cached artifact diverges from cold run");
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat cachedir f))
       (Sys.readdir cachedir);
     Sys.rmdir cachedir
   with Sys_error _ -> ());
  let steals =
    a_steal.Campaign.Artifact.run.Campaign.Artifact.steal
      .Campaign.Artifact.steals
  in
  Printf.printf "  %-40s %10s\n" "metric" "value";
  Printf.printf "  %-40s %9.0fms\n" "wall, stealing (4 domains)"
    (wall a_steal *. 1e3);
  Printf.printf "  %-40s %9.0fms\n" "critical path (slowest scenario)"
    (critical *. 1e3);
  Printf.printf "  %-40s %9.2fx\n" "stealing wall / critical path"
    (if critical > 0.0 then wall a_steal /. critical else 0.0);
  Printf.printf "  %-40s %10d\n" "tasks stolen" steals;
  Printf.printf "  %-40s %10d\n" "journal records adopted on resume" recovered;
  Printf.printf "  %-40s %10d\n" "cache hits (warm re-run)" (info a_warm).Campaign.Artifact.hits;
  Printf.printf "  %-40s %10d\n" "cache misses (cold run, 1 domain)" (info a_cold).Campaign.Artifact.misses

let () =
  Printf.printf
    "lbcast experiment harness -- Khan, Naqvi, Vaidya (PODC 2019) \
     reproduction%s\n"
    (if quick then " [quick mode]" else "");
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e6b ();
  e7 ();
  e8 ();
  e8b ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e17 ();
  Printf.printf "\nAll experiments complete.\n"
