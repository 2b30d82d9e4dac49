(* lbcast: command-line front end for the local-broadcast Byzantine
   consensus library (Khan-Naqvi-Vaidya, PODC 2019 reproduction).

   Subcommands:
     check    - evaluate the feasibility conditions of all three models
     gen      - emit a built-in graph (edge list or Graphviz)
     run      - simulate a consensus algorithm under an adversary
     attack   - execute a necessity gadget (Lemma A.1 / A.2)
     sweep    - print the hybrid equivocation trade-off tables
     campaign - run a declarative scenario grid on a domain pool,
                checkpointed and resumable, emitting a JSON artifact
     report   - parse a campaign artifact, print its summary             *)

module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module D = Lbc_graph.Disjoint
module Cond = Lbc_graph.Conditions
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module A1 = Lbc_consensus.Algorithm1
module A2 = Lbc_consensus.Algorithm2
module A3 = Lbc_consensus.Algorithm3
module EIG = Lbc_consensus.Baseline_eig
module Relay = Lbc_consensus.Baseline_relay
module S = Lbc_adversary.Strategy
module Gadget = Lbc_lowerbound.Gadget
module Perturb = Lbc_sim.Perturb
module Engine = Lbc_sim.Engine
module Net = Lbc_net.Net

(* ------------------------------------------------------------------ *)
(* Parsers                                                              *)
(* ------------------------------------------------------------------ *)

let parse_graph spec =
  let fail msg = Error (`Msg msg) in
  let int s = int_of_string_opt s in
  match String.split_on_char ':' spec with
  | [ "fig1a" ] -> Ok (B.fig1a ())
  | [ "fig1b" ] -> Ok (B.fig1b ())
  | [ "petersen" ] -> Ok (B.petersen ())
  | [ "cycle"; n ] | [ "ring"; n ] -> (
      match int n with Some n -> Ok (B.cycle n) | None -> fail "bad n")
  | [ "path"; n ] -> (
      match int n with Some n -> Ok (B.path_graph n) | None -> fail "bad n")
  | [ "complete"; n ] | [ "k"; n ] -> (
      match int n with Some n -> Ok (B.complete n) | None -> fail "bad n")
  | [ "star"; n ] -> (
      match int n with Some n -> Ok (B.star n) | None -> fail "bad n")
  | [ "wheel"; n ] -> (
      match int n with Some n -> Ok (B.wheel n) | None -> fail "bad n")
  | [ "hypercube"; d ] -> (
      match int d with Some d -> Ok (B.hypercube d) | None -> fail "bad d")
  | [ "tight"; f ] -> (
      match int f with Some f -> Ok (B.tight f) | None -> fail "bad f")
  | [ "torus"; wh ] | [ "grid"; wh ] -> (
      match String.split_on_char 'x' wh with
      | [ w; h ] -> (
          match (int w, int h) with
          | Some w, Some h ->
              if String.length spec >= 5 && String.sub spec 0 5 = "torus" then
                Ok (B.torus w h)
              else Ok (B.grid w h)
          | _ -> fail "bad dimensions")
      | _ -> fail "expected WxH")
  | [ "circulant"; n; jumps ] -> (
      match int n with
      | Some n -> (
          let js =
            String.split_on_char ',' jumps |> List.filter_map int_of_string_opt
          in
          match js with [] -> fail "bad jumps" | _ -> Ok (B.circulant n js))
      | None -> fail "bad n")
  | [ "harary"; k; n ] -> (
      match (int k, int n) with
      | Some k, Some n -> Ok (B.harary k n)
      | _ -> fail "bad k/n")
  | [ "gnp"; n; p; seed ] -> (
      match (int n, float_of_string_opt p, int seed) with
      | Some n, Some p, Some seed -> Ok (B.random_gnp ~seed n p)
      | _ -> fail "bad gnp parameters")
  | [ "file"; path ] -> (
      match Lbc_graph.Graphio.of_file path with
      | Ok g -> Ok g
      | Error msg -> fail (path ^ ": " ^ msg))
  | [ "edges"; n; es ] -> (
      match int n with
      | Some n -> (
          try
            let edges =
              String.split_on_char ',' es
              |> List.map (fun e ->
                     match String.split_on_char '-' e with
                     | [ u; v ] -> (int_of_string u, int_of_string v)
                     | _ -> failwith "bad edge")
            in
            Ok (G.of_edges n edges)
          with Failure _ | Invalid_argument _ -> fail "bad edge list")
      | None -> fail "bad n")
  | _ ->
      fail
        (spec
       ^ ": unknown graph. Try fig1a, fig1b, petersen, cycle:N, path:N, \
          complete:N, star:N, wheel:N, hypercube:D, tight:F, torus:WxH, \
          grid:WxH, circulant:N:J1,J2, harary:K:N, gnp:N:P:SEED, \
          edges:N:0-1,1-2,..., file:PATH")

let graph_conv =
  Cmdliner.Arg.conv (parse_graph, fun fmt g -> G.pp fmt g)

let parse_id_list s =
  try
    Some
      (Nodeset.of_list (List.map int_of_string (String.split_on_char ',' s)))
  with Failure _ -> None

let parse_strategy s =
  match String.split_on_char ':' s with
  | [ "silent" ] -> Ok S.Silent
  | [ "honest" ] -> Ok S.Honest_behavior
  | [ "lie" ] -> Ok S.Lie
  | [ "flip" ] | [ "flip-forwards" ] -> Ok S.Flip_forwards
  | [ "equivocate" ] -> Ok S.Equivocate
  | [ "crash"; r ] -> (
      match int_of_string_opt r with
      | Some r -> Ok (S.Crash_at r)
      | None -> Error (`Msg "bad round"))
  | [ "spurious"; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (S.Spurious k)
      | None -> Error (`Msg "bad count"))
  | [ "noise"; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (S.Noise k)
      | None -> Error (`Msg "bad count"))
  | [ "omit"; ids ] -> (
      match parse_id_list ids with
      | Some set -> Ok (S.Omit_from set)
      | None -> Error (`Msg "bad node list"))
  | [ "flip-from"; ids ] -> (
      match parse_id_list ids with
      | Some set -> Ok (S.Flip_from set)
      | None -> Error (`Msg "bad node list"))
  | [ "omit-sampled"; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (S.Omit_sampled k)
      | None -> Error (`Msg "bad salt"))
  | _ ->
      Error
        (`Msg
          (s
         ^ ": unknown strategy (silent, honest, lie, flip, equivocate, \
            crash:R, spurious:K, noise:K, omit:IDS, flip-from:IDS, \
            omit-sampled:K)"))

let strategy_conv = Cmdliner.Arg.conv (parse_strategy, S.pp_kind)

let parse_nodeset s =
  if s = "" then Ok Nodeset.empty
  else
    try
      Ok
        (Nodeset.of_list
           (List.map int_of_string (String.split_on_char ',' s)))
    with Failure _ -> Error (`Msg "expected comma-separated node ids")

let nodeset_conv = Cmdliner.Arg.conv (parse_nodeset, Nodeset.pp)

let parse_inputs s =
  try
    Ok
      (Array.init (String.length s) (fun i ->
           Bit.of_int (Char.code s.[i] - Char.code '0')))
  with Invalid_argument _ ->
    Error (`Msg "expected a 01-string, e.g. 01011")

let inputs_conv =
  Cmdliner.Arg.conv
    ( parse_inputs,
      fun fmt a ->
        Array.iter (fun b -> Format.pp_print_string fmt (Bit.to_string b)) a )

let chaos_conv =
  Cmdliner.Arg.conv
    ( (fun s ->
        match Perturb.parse s with
        | Ok spec -> Ok spec
        | Error m -> Error (`Msg m)),
      Perturb.pp )

let net_conv =
  Cmdliner.Arg.conv
    ( (fun s ->
        match Net.parse s with Ok p -> Ok p | Error m -> Error (`Msg m)),
      Net.pp )

(* ------------------------------------------------------------------ *)
(* check                                                                *)
(* ------------------------------------------------------------------ *)

let do_check g f t =
  Printf.printf "nodes          : %d\n" (G.size g);
  Printf.printf "edges          : %d\n" (G.num_edges g);
  Printf.printf "min degree     : %d\n" (G.min_degree g);
  Printf.printf "connectivity   : %d\n" (D.connectivity g);
  Printf.printf "\nper-model feasibility at f=%d:\n" f;
  Printf.printf "  local broadcast : %b  (needs min degree >= %d, κ >= %d)\n"
    (Cond.lbc_feasible g ~f) (2 * f)
    (Cond.lbc_required_connectivity f);
  Printf.printf "  point-to-point  : %b  (needs n >= %d, κ >= %d)\n"
    (Cond.p2p_feasible g ~f)
    ((3 * f) + 1)
    (Cond.p2p_required_connectivity f);
  if t <= f then
    Printf.printf "  hybrid (t=%d)    : %b  (needs κ >= %d%s)\n" t
      (Cond.hybrid_feasible g ~f ~t)
      (Cond.hybrid_required_connectivity ~f ~t)
      (if t = 0 then Printf.sprintf ", min degree >= %d" (2 * f)
       else Printf.sprintf ", |N(S)| >= %d for |S| <= %d" ((2 * f) + 1) t);
  let explain name verdict =
    match verdict with
    | Cond.Feasible -> ()
    | v -> Printf.printf "    %s: %s\n" name (Format.asprintf "%a" Cond.pp_verdict v)
  in
  explain "lbc witness" (Cond.lbc_explain g ~f);
  explain "p2p witness" (Cond.p2p_explain g ~f);
  if t <= f then explain "hybrid witness" (Cond.hybrid_explain g ~f ~t);
  Printf.printf "\nmaximum tolerable f:\n";
  Printf.printf "  local broadcast : %d\n" (Cond.max_f_lbc g);
  Printf.printf "  point-to-point  : %d\n" (Cond.max_f_p2p g);
  Printf.printf "  hybrid (t=%d)    : %d\n" t (Cond.max_f_hybrid g ~t);
  0

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let do_gen g dot =
  if dot then print_string (G.to_dot g)
  else begin
    Printf.printf "# %d nodes\n" (G.size g);
    List.iter (fun (u, v) -> Printf.printf "%d %d\n" u v) (G.edges g)
  end;
  0

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let do_run g algo f t inputs faulty equivocators strategy seed chaos net
    max_rounds stats trace =
  let n = G.size g in
  let inputs =
    match inputs with
    | Some a when Array.length a = n -> a
    | Some _ ->
        Printf.eprintf "inputs length must equal graph size %d\n" n;
        exit 2
    | None ->
        Array.init n (fun v -> if Nodeset.mem v faulty then Bit.One else Bit.Zero)
  in
  let strat _ = strategy in
  let execute () =
    match algo with
    | "auto" -> (
        match
          Lbc_consensus.Solve.run ~g ~f ~inputs ~faulty ~strategy:strat ~seed
            ()
        with
        | Ok (choice, o) ->
            Printf.printf "selected: %s\n"
              (Format.asprintf "%a" Lbc_consensus.Solve.pp_choice choice);
            o
        | Error verdict ->
            Printf.eprintf "graph infeasible for f=%d: %s\n" f
              (Format.asprintf "%a" Cond.pp_verdict verdict);
            exit 3)
    | "a1" -> A1.run ~g ~f ~inputs ~faulty ~strategy:strat ~seed ()
    | "a2" -> A2.run ~g ~f ~inputs ~faulty ~strategy:strat ~seed ()
    | "a3" ->
        A3.run ~g ~f ~t ~inputs ~faulty ~equivocators ~strategy:strat ~seed ()
    | "eig" -> EIG.run ~n ~f ~inputs ~faulty ~attack:(EIG.Equivocate seed) ()
    | "relay" -> Relay.run ~g ~f ~inputs ~faulty ~strategy:strat ~seed ()
    | other ->
        Printf.eprintf "unknown algorithm %s (auto, a1, a2, a3, eig, relay)\n"
          other;
        exit 2
  in
  let execute () =
    let perturbed () =
      match chaos with
      | None -> execute ()
      | Some spec -> Perturb.with_chaos spec ~seed execute
    in
    let networked () =
      match net with
      | None -> (perturbed (), 0)
      | Some p -> Net.with_net p ~seed perturbed
    in
    match max_rounds with
    | None -> networked ()
    | Some budget -> Engine.with_fuel ~budget networked
  in
  (* Observability is opt-in: without --stats/--trace no recorder is
     installed and the instrumentation stays on its zero-cost path. *)
  let observe = stats || trace <> None in
  let (o, sim_ns), report =
    try
      if observe then
        Lbc_obs.Obs.record ~trace:(trace <> None) execute
      else
        ( execute (),
          { Lbc_obs.Obs.counters = []; stats = []; events = [] } )
    with Engine.Fuel_exhausted { budget } ->
      Printf.eprintf "run exceeded the %d-round budget (--max-rounds)\n" budget;
      exit 4
  in
  (match chaos with
  | Some spec when not (Perturb.is_zero spec) ->
      Printf.printf "chaos    : %s\n" (Perturb.to_string spec)
  | _ -> ());
  Printf.printf "inputs   : %s\n"
    (String.concat "" (Array.to_list (Array.map Bit.to_string inputs)));
  Printf.printf "faulty   : %s (strategy %s)\n" (Nodeset.to_string faulty)
    (Format.asprintf "%a" S.pp_kind strategy);
  Array.iteri
    (fun v out ->
      match out with
      | Some b -> Printf.printf "node %2d  : decides %s\n" v (Bit.to_string b)
      | None -> Printf.printf "node %2d  : faulty\n" v)
    o.Spec.outputs;
  Printf.printf "agreement: %b\nvalidity : %b\n" (Spec.agreement o)
    (Spec.validity o);
  Printf.printf "cost     : %d phases, %d rounds, %d transmissions\n"
    o.Spec.phases o.Spec.rounds o.Spec.transmissions;
  (match net with
  | Some p when not (Net.is_ideal p) ->
      Printf.printf "sim time : %.6f s (net profile %s)\n"
        (Net.sim_time_s sim_ns) (Net.name p)
  | Some _ | None -> ());
  if stats then begin
    Printf.printf "counters :\n";
    List.iter
      (fun (k, v) -> Printf.printf "  %-32s %d\n" k v)
      report.Lbc_obs.Obs.counters;
    List.iter
      (fun (k, (s : Lbc_obs.Obs.stat)) ->
        Printf.printf "  %-32s count=%d sum=%d min=%d max=%d\n" k s.count
          s.sum s.min s.max)
      report.Lbc_obs.Obs.stats
  end;
  (match trace with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          let fmt = Format.formatter_of_out_channel oc in
          Lbc_sim.Tracefmt.pp_events fmt report.Lbc_obs.Obs.events;
          Format.pp_print_flush fmt ());
      Printf.printf "trace    : %d events -> %s\n"
        (List.length report.Lbc_obs.Obs.events)
        path);
  if Spec.consensus_ok o then 0 else 1

(* ------------------------------------------------------------------ *)
(* attack                                                               *)
(* ------------------------------------------------------------------ *)

let do_attack g lemma f t =
  let gadget =
    match lemma with
    | "degree" -> Gadget.degree_gadget g ~f ()
    | "connectivity" -> Gadget.connectivity_gadget g ~f ()
    | "hybrid-neighborhood" -> Gadget.hybrid_neighborhood_gadget g ~f ~t ()
    | "hybrid-connectivity" -> Gadget.hybrid_connectivity_gadget g ~f ~t ()
    | other ->
        Printf.eprintf
          "unknown lemma %s (degree, connectivity, hybrid-neighborhood, \
           hybrid-connectivity)\n"
          other;
        exit 2
  in
  Printf.printf "%s\n" (Gadget.describe gadget);
  let hybrid = t > 0 in
  let proc =
    if hybrid then A3.proc ~g ~f ~t else A1.proc ~g ~f
  in
  let rounds =
    if hybrid then A3.phases ~g ~f ~t * G.size g else A1.rounds ~g ~f
  in
  Printf.printf "running Algorithm 1 on the doubled network (%d nodes, %d \
                 rounds)...\n"
    (Gadget.network_size gadget)
    rounds;
  let v = Gadget.run gadget ~proc ~rounds in
  Printf.printf "validity groups: zero=%b one=%b -> forced split=%b\n"
    v.Gadget.group_zero_ok v.Gadget.group_one_ok v.Gadget.split;
  let o = Gadget.replay_e2 gadget ~proc ~rounds in
  Printf.printf "replaying execution E2 on the original graph:\n";
  Array.iteri
    (fun u out ->
      match out with
      | Some b -> Printf.printf "  node %2d decides %s\n" u (Bit.to_string b)
      | None -> Printf.printf "  node %2d faulty (replaying)\n" u)
    o.Spec.outputs;
  Printf.printf "agreement: %b (with %d faults <= f=%d): the condition is \
                 necessary.\n"
    (Spec.agreement o)
    (Nodeset.cardinal (Gadget.e2_faulty gadget))
    f;
  if Spec.agreement o then 1 else 0

(* ------------------------------------------------------------------ *)
(* predict                                                              *)
(* ------------------------------------------------------------------ *)

let do_predict g f =
  let n = G.size g in
  Printf.printf "graph               : %d nodes, %d edges\n" n (G.num_edges g);
  (match Lbc_consensus.Solve.choose ~g ~f with
  | Ok choice ->
      Printf.printf "selected algorithm  : %s\n"
        (Format.asprintf "%a" Lbc_consensus.Solve.pp_choice choice)
  | Error v ->
      Printf.printf "infeasible for f=%d  : %s\n" f
        (Format.asprintf "%a" Cond.pp_verdict v));
  let phases = Lbc_graph.Combi.phase_count ~n ~f in
  let per_phase = Lbc_flood.Flood.predicted_transmissions g in
  Printf.printf "algorithm 1         : %d phases, %d rounds\n" phases
    (phases * n);
  Printf.printf "algorithm 2         : 3 phases, %d rounds (needs κ >= %d)\n"
    ((3 * n) + 1)
    (2 * f);
  Printf.printf "flood transmissions : %d per all-honest phase (n + Σ simple \
                 paths)\n"
    per_phase;
  Printf.printf "algorithm 1 total   : ~%d transmissions (all-honest bound)\n"
    (phases * per_phase);
  0

(* ------------------------------------------------------------------ *)
(* forensics                                                            *)
(* ------------------------------------------------------------------ *)

let do_forensics g f inputs faulty strategy seed =
  let n = G.size g in
  let inputs =
    match inputs with
    | Some a when Array.length a = n -> a
    | Some _ ->
        Printf.eprintf "inputs length must equal graph size %d\n" n;
        exit 2
    | None ->
        Array.init n (fun v ->
            if Nodeset.mem v faulty then Bit.One else Bit.Zero)
  in
  let o, reports =
    A2.run_detailed ~g ~f ~inputs ~faulty
      ~strategy:(fun _ -> strategy)
      ~seed ()
  in
  Printf.printf
    "Algorithm 2 fault forensics (f=%d, faulty=%s, strategy %s):\n" f
    (Nodeset.to_string faulty)
    (Format.asprintf "%a" S.pp_kind strategy);
  Array.iteri
    (fun v rep ->
      match rep with
      | None -> Printf.printf "node %2d : FAULTY\n" v
      | Some r ->
          Printf.printf "node %2d : decides %s  %-6s identified %s\n" v
            (Bit.to_string r.A2.decision)
            (if r.A2.type_a then "type A" else "type B")
            (Nodeset.to_string r.A2.detected))
    reports;
  Printf.printf "agreement: %b  validity: %b  (%d rounds)\n"
    (Spec.agreement o) (Spec.validity o) o.Spec.rounds;
  if Spec.consensus_ok o then 0 else 1

(* ------------------------------------------------------------------ *)
(* fuzz                                                                 *)
(* ------------------------------------------------------------------ *)

let do_fuzz g algo f t runs seed =
  let module Fuzz = Lbc_consensus.Fuzz in
  let target =
    match algo with
    | "a1" -> Fuzz.A1
    | "a2" -> Fuzz.A2
    | "a3" -> Fuzz.A3 t
    | "relay" -> Fuzz.Relay
    | other ->
        Printf.eprintf "unknown fuzz target %s (a1, a2, a3, relay)\n" other;
        exit 2
  in
  let r = Fuzz.run ~g ~f ~target ~runs ~seed () in
  Printf.printf "%s\n" (Format.asprintf "%a" Fuzz.pp_report r);
  if r.Fuzz.violations = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* campaign / report                                                    *)
(* ------------------------------------------------------------------ *)

module Campaign = Lbc_campaign

let custom_grid spec f algo =
  let build () =
    match parse_graph spec with
    | Ok g -> g
    | Error (`Msg m) ->
        Printf.eprintf "%s\n" m;
        exit 2
  in
  let algos =
    match algo with
    | "a1" -> [ Campaign.Scenario.A1 ]
    | "a2" -> [ Campaign.Scenario.A2 ]
    | "both" -> [ Campaign.Scenario.A1; Campaign.Scenario.A2 ]
    | other ->
        Printf.eprintf "unknown campaign algorithm %s (a1, a2, both)\n" other;
        exit 2
  in
  Campaign.Grid.product ~name:"custom"
    ~graphs:[ (spec, f, build) ]
    ~algos ~placements:Campaign.Grid.placements_up_to_f
    ~strategies:S.kinds_lbc ~inputs:Campaign.Grid.unanimous_inputs ()

let warn_recovery (r : Campaign.Journal.recovery) =
  if r.Campaign.Journal.dropped_bytes > 0 then
    Printf.eprintf
      "warning: journal recovery truncated %d corrupt byte%s%s (a torn \
       trailing record is expected after a crash; more suggests corruption)\n"
      r.Campaign.Journal.dropped_bytes
      (if r.Campaign.Journal.dropped_bytes = 1 then "" else "s")
      (match r.Campaign.Journal.first_corrupt with
      | Some n -> Printf.sprintf " at record %d" n
      | None -> "")

let do_campaign exp gspec algo f quick domains seed out max_scenarios chaos
    net max_rounds deadline retries strict cache no_cache kill_after =
  let grid =
    match (exp, gspec) with
    | Some name, _ -> (
        match Campaign.Grids.by_name ~quick name with
        | Some grid -> grid
        | None ->
            Printf.eprintf "unknown experiment %s (try %s)\n" name
              (String.concat ", " Campaign.Grids.names);
            exit 2)
    | None, Some spec -> custom_grid spec f algo
    | None, None ->
        Printf.eprintf "campaign needs --exp NAME or -g GRAPH\n";
        exit 2
  in
  let grid =
    match chaos with
    | None -> grid
    | Some spec -> Campaign.Grid.with_chaos spec grid
  in
  let grid =
    match net with
    | None -> grid
    | Some p -> Campaign.Grid.with_net p grid
  in
  let out =
    match out with
    | Some path -> path
    | None -> Printf.sprintf "campaign-%s.json" grid.Campaign.Grid.name
  in
  let config =
    {
      Campaign.Runner.domains;
      base_seed = seed;
      journal = Some (out ^ ".journal");
      cache = (if no_cache then None else cache);
      stop_after = max_scenarios;
      progress =
        Some
          (fun ~done_scenarios ~total ->
            Printf.eprintf "\r  scenario %d/%d%!" done_scenarios total);
      max_rounds;
      deadline_s = deadline;
      retries;
      strict;
      kill_after_verdicts = Option.map (fun k -> (k, true)) kill_after;
    }
  in
  match Campaign.Runner.run ~config grid with
  | exception Campaign.Journal.Killed { appended } ->
      Printf.eprintf
        "\nsimulated crash: killed after %d journal append%s; resume with \
         the same command\n"
        appended
        (if appended = 1 then "" else "s");
      70
  | exception Campaign.Pool.Task_failed fl ->
      Printf.eprintf "\nstrict: %s: %s\n" fl.Campaign.Pool.description
        fl.Campaign.Pool.message;
      1
  | Campaign.Runner.Partial { completed; total; recovery } ->
      Printf.eprintf "\n";
      warn_recovery recovery;
      Printf.printf
        "campaign %s interrupted at %d/%d scenarios; progress saved to %s — \
         re-run the same command to resume\n"
        grid.Campaign.Grid.name completed total (out ^ ".journal");
      0
  | Campaign.Runner.Complete artifact ->
      Printf.eprintf "\n";
      let run = artifact.Campaign.Artifact.run in
      warn_recovery
        {
          Campaign.Journal.recovered =
            run.Campaign.Artifact.recovery.Campaign.Artifact.recovered_records;
          dropped_bytes =
            run.Campaign.Artifact.recovery.Campaign.Artifact.dropped_bytes;
          first_corrupt =
            run.Campaign.Artifact.recovery
              .Campaign.Artifact.first_corrupt_record;
          stale = false;
        };
      Campaign.Artifact.save ~path:out artifact;
      let s = Campaign.Artifact.summarize artifact in
      Printf.printf "campaign   : %s (%d scenarios)\n"
        artifact.Campaign.Artifact.campaign s.Campaign.Artifact.total;
      Printf.printf "domains    : %d  (resumed scenarios: %d, steals: %d)\n"
        domains run.Campaign.Artifact.resumed_scenarios
        run.Campaign.Artifact.steal.Campaign.Artifact.steals;
      (let c = run.Campaign.Artifact.cache in
       if
         c.Campaign.Artifact.hits + c.Campaign.Artifact.misses
         + c.Campaign.Artifact.stores
         > 0
       then
         Printf.printf "cache      : %d hits, %d misses, %d stored\n"
           c.Campaign.Artifact.hits c.Campaign.Artifact.misses
           c.Campaign.Artifact.stores);
      (let r = run.Campaign.Artifact.recovery in
       if r.Campaign.Artifact.recovered_records > 0 then
         Printf.printf "recovery   : %d journal records adopted%s\n"
           r.Campaign.Artifact.recovered_records
           (if r.Campaign.Artifact.dropped_bytes > 0 then
              Printf.sprintf ", %d torn bytes truncated"
                r.Campaign.Artifact.dropped_bytes
            else ""));
      Printf.printf "wall       : %.3f s\n" run.Campaign.Artifact.wall_s;
      Printf.printf "summary    : %s\n"
        (Format.asprintf "%a" Campaign.Artifact.pp_summary s);
      Printf.printf "artifact   : %s\n" out;
      List.iter
        (fun (q : Campaign.Artifact.quarantined) ->
          Printf.printf "quarantined: scenario %d (%s): %s\n"
            q.Campaign.Artifact.index q.Campaign.Artifact.id
            q.Campaign.Artifact.message)
        artifact.Campaign.Artifact.quarantined;
      let bad =
        s.Campaign.Artifact.violations + s.Campaign.Artifact.crashed
        + s.Campaign.Artifact.timeouts
        + s.Campaign.Artifact.quarantined
      in
      if bad > 0 then begin
        Printf.printf "failures:\n";
        let shown = ref 0 in
        Array.iter
          (fun (v : Campaign.Scenario.verdict) ->
            if (not v.Campaign.Scenario.ok) && !shown < 10 then begin
              incr shown;
              Printf.printf "  %s\n"
                (Format.asprintf "%a" Campaign.Scenario.pp_verdict v)
            end)
          artifact.Campaign.Artifact.verdicts;
        1
      end
      else 0

let do_report path fingerprint stats =
  match Campaign.Artifact.load ~path with
  | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      2
  | Ok artifact ->
      if fingerprint then begin
        (* Digest of the deterministic portion (everything but timing):
           identical across domain counts and resume boundaries. *)
        print_endline
          (Digest.to_hex
             (Digest.string (Campaign.Artifact.deterministic_string artifact)));
        0
      end
      else begin
        let s = Campaign.Artifact.summarize artifact in
        let run = artifact.Campaign.Artifact.run in
        Printf.printf "campaign   : %s\n" artifact.Campaign.Artifact.campaign;
        Printf.printf "grid       : %d scenarios, seed %d, fingerprint %s\n"
          artifact.Campaign.Artifact.count
          artifact.Campaign.Artifact.base_seed
          artifact.Campaign.Artifact.grid_fingerprint;
        Printf.printf
          "run        : %d domains, %.3f s wall, %d resumed scenarios, %d \
           steals, %d retried\n"
          run.Campaign.Artifact.domains run.Campaign.Artifact.wall_s
          run.Campaign.Artifact.resumed_scenarios
          run.Campaign.Artifact.steal.Campaign.Artifact.steals
          run.Campaign.Artifact.steal.Campaign.Artifact.retried;
        (let c = run.Campaign.Artifact.cache in
         if
           c.Campaign.Artifact.hits + c.Campaign.Artifact.misses
           + c.Campaign.Artifact.stores
           > 0
         then
           Printf.printf "cache      : %d hits, %d misses, %d stored\n"
             c.Campaign.Artifact.hits c.Campaign.Artifact.misses
             c.Campaign.Artifact.stores);
        (let r = run.Campaign.Artifact.recovery in
         if
           r.Campaign.Artifact.recovered_records > 0
           || r.Campaign.Artifact.dropped_bytes > 0
         then
           Printf.printf
             "recovery   : %d journal records adopted, %d torn bytes \
              truncated%s\n"
             r.Campaign.Artifact.recovered_records
             r.Campaign.Artifact.dropped_bytes
             (match r.Campaign.Artifact.first_corrupt_record with
             | Some n -> Printf.sprintf " (first corrupt record %d)" n
             | None -> ""));
        Printf.printf "summary    : %s\n"
          (Format.asprintf "%a" Campaign.Artifact.pp_summary s);
        if stats then begin
          Printf.printf "stats      :\n";
          print_string
            (Format.asprintf "%a" Campaign.Stats.pp
               artifact.Campaign.Artifact.stats)
        end;
        (match Campaign.Artifact.sim_stats artifact with
        | [] -> ()
        | entries ->
            Printf.printf "sim time   : per scenario family (simulated, from \
                           the artifact's deterministic portion)\n";
            Printf.printf "  %-28s %9s %12s %12s %12s\n" "family" "scenarios"
              "p50 (s)" "p99 (s)" "max (s)";
            List.iter
              (fun (e : Campaign.Artifact.sim_entry) ->
                Printf.printf "  %-28s %9d %12.6f %12.6f %12.6f\n"
                  e.Campaign.Artifact.family e.Campaign.Artifact.scenarios
                  (Net.sim_time_s e.Campaign.Artifact.p50_ns)
                  (Net.sim_time_s e.Campaign.Artifact.p99_ns)
                  (Net.sim_time_s e.Campaign.Artifact.max_ns))
              entries);
        List.iter
          (fun (q : Campaign.Artifact.quarantined) ->
            Printf.printf "quarantined: scenario %d (%s): %s\n"
              q.Campaign.Artifact.index q.Campaign.Artifact.id
              q.Campaign.Artifact.message)
          artifact.Campaign.Artifact.quarantined;
        Array.iter
          (fun (v : Campaign.Scenario.verdict) ->
            if not v.Campaign.Scenario.ok then
              Printf.printf "  %s\n"
                (Format.asprintf "%a" Campaign.Scenario.pp_verdict v))
          artifact.Campaign.Artifact.verdicts;
        if
          s.Campaign.Artifact.violations + s.Campaign.Artifact.crashed
          + s.Campaign.Artifact.timeouts
          + s.Campaign.Artifact.quarantined
          > 0
        then 1
        else 0
      end

(* ------------------------------------------------------------------ *)
(* sweep                                                                *)
(* ------------------------------------------------------------------ *)

let do_sweep fmax =
  Printf.printf "required connectivity floor(3(f-t)/2) + 2t + 1:\n%-6s" "f\\t";
  for t = 0 to fmax do
    Printf.printf "%6d" t
  done;
  print_newline ();
  for f = 1 to fmax do
    Printf.printf "%-6d" f;
    for t = 0 to fmax do
      if t <= f then
        Printf.printf "%6d" (Cond.hybrid_required_connectivity ~f ~t)
      else Printf.printf "%6s" "-"
    done;
    print_newline ()
  done;
  0

(* ------------------------------------------------------------------ *)
(* Command definitions                                                  *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let graph_arg =
  Arg.(
    required
    & opt (some graph_conv) None
    & info [ "g"; "graph" ] ~docv:"GRAPH" ~doc:"Graph specification.")

let f_arg =
  Arg.(value & opt int 1 & info [ "f" ] ~docv:"F" ~doc:"Fault budget.")

let t_arg =
  Arg.(
    value & opt int 0
    & info [ "t" ] ~docv:"T" ~doc:"Equivocation budget (hybrid model).")

let check_cmd =
  let doc = "Evaluate the feasibility conditions of all three models." in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(const do_check $ graph_arg $ f_arg $ t_arg)

let gen_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of an edge list.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a built-in graph.")
    Term.(const do_gen $ graph_arg $ dot)

let run_cmd =
  let algo =
    Arg.(
      value & opt string "a1"
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:"Algorithm: a1, a2, a3, eig, relay.")
  in
  let inputs =
    Arg.(
      value
      & opt (some inputs_conv) None
      & info [ "inputs"; "i" ] ~docv:"BITS"
          ~doc:"Input assignment as a 01-string (default: faulty get 1).")
  in
  let faulty =
    Arg.(
      value
      & opt nodeset_conv Nodeset.empty
      & info [ "faulty" ] ~docv:"IDS" ~doc:"Comma-separated faulty node ids.")
  in
  let equivocators =
    Arg.(
      value
      & opt nodeset_conv Nodeset.empty
      & info [ "equivocators" ] ~docv:"IDS"
          ~doc:"Subset of the faulty nodes allowed to equivocate (a3).")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv S.Flip_forwards
      & info [ "strategy"; "s" ] ~docv:"STRAT" ~doc:"Adversarial strategy.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let chaos =
    Arg.(
      value
      & opt (some chaos_conv) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Environment perturbation around the run: a comma-separated \
             key=value list with keys drop, dup, delay, delay-p, crash, \
             crash-len (e.g. drop=0.1,delay=2,delay-p=0.25). Deterministic \
             given --seed; 'none' disables.")
  in
  let net =
    Arg.(
      value
      & opt (some net_conv) None
      & info [ "net" ] ~docv:"PROFILE"
          ~doc:
            (Printf.sprintf
               "Network latency profile (%s, or const:NS): every delivery is \
                assigned a sampled link latency and the run reports its \
                simulated wall-time alongside round counts. Deterministic \
                given --seed; composes with --chaos."
               (String.concat ", " Net.names)))
  in
  let max_rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rounds" ] ~docv:"N"
          ~doc:
            "Round budget: abort with exit code 4 once the engine has \
             executed N rounds (catches livelock under --chaos).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print observability counters and histograms (flood store \
             sizes, packing search effort, fault-discovery evidence, \
             perturbation tallies, per-phase tallies) after the run.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write per-round trace events (transmissions/deliveries per \
             engine round) to FILE, one event per line.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a consensus algorithm under an adversary.")
    Term.(
      const do_run $ graph_arg $ algo $ f_arg $ t_arg $ inputs $ faulty
      $ equivocators $ strategy $ seed $ chaos $ net $ max_rounds $ stats
      $ trace)

let attack_cmd =
  let lemma =
    Arg.(
      value & opt string "connectivity"
      & info [ "lemma" ] ~docv:"LEMMA" ~doc:"degree or connectivity.")
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Execute a necessity gadget on a condition-violating graph.")
    Term.(const do_attack $ graph_arg $ lemma $ f_arg $ t_arg)

let predict_cmd =
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Predict algorithm choice, round counts and message complexity \
          for a graph and fault budget.")
    Term.(const do_predict $ graph_arg $ f_arg)

let forensics_cmd =
  let inputs =
    Arg.(
      value
      & opt (some inputs_conv) None
      & info [ "inputs"; "i" ] ~docv:"BITS"
          ~doc:"Input assignment as a 01-string.")
  in
  let faulty =
    Arg.(
      value
      & opt nodeset_conv Nodeset.empty
      & info [ "faulty" ] ~docv:"IDS" ~doc:"Comma-separated faulty node ids.")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv S.Flip_forwards
      & info [ "strategy"; "s" ] ~docv:"STRAT" ~doc:"Adversarial strategy.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  Cmd.v
    (Cmd.info "forensics"
       ~doc:
         "Run Algorithm 2 and show, per node, its type (A/B) and the \
          faulty nodes it identified.")
    Term.(
      const do_forensics $ graph_arg $ f_arg $ inputs $ faulty $ strategy
      $ seed)

let fuzz_cmd =
  let algo =
    Arg.(
      value & opt string "a2"
      & info [ "algo"; "a" ] ~docv:"ALGO" ~doc:"Fuzz target: a1, a2, a3, relay.")
  in
  let runs =
    Arg.(
      value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc:"Number of cases.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Base seed.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Randomised falsification campaign: random inputs, fault \
          placements and strategies; exits non-zero on any \
          agreement/validity violation.")
    Term.(const do_fuzz $ graph_arg $ algo $ f_arg $ t_arg $ runs $ seed)

let sweep_cmd =
  let fmax =
    Arg.(value & opt int 6 & info [ "fmax" ] ~docv:"N" ~doc:"Largest f.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Print the hybrid equivocation trade-off table.")
    Term.(const do_sweep $ fmax)

let campaign_cmd =
  let exp =
    Arg.(
      value
      & opt (some string) None
      & info [ "exp"; "e" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Predefined experiment grid (%s)."
               (String.concat ", " Lbc_campaign.Grids.names)))
  in
  let gspec =
    Arg.(
      value
      & opt (some string) None
      & info [ "g"; "graph" ] ~docv:"GRAPH"
          ~doc:
            "Custom campaign: sweep this graph over all fault placements of \
             size <= F, every broadcast-bound strategy and both unanimous \
             input polarities.")
  in
  let algo =
    Arg.(
      value & opt string "both"
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:"Custom-campaign algorithm: a1, a2 or both.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweep axes.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains. The result artifact is byte-identical (modulo \
             its timing section) at any domain count.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign base seed; folded with each scenario id into that \
             scenario's RNG seed, so randomised adversaries are \
             reproducible per scenario.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Artifact path (default campaign-NAME.json).")
  in
  let max_scenarios =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-scenarios" ] ~docv:"N"
          ~doc:
            "Stop after completing N new scenarios, leaving the journal for \
             a later resume.")
  in
  let chaos =
    Arg.(
      value
      & opt (some chaos_conv) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Install this environment perturbation (see $(b,run --chaos)) \
             on every scenario of the grid, overriding any per-scenario \
             spec. The determinism contract still holds: perturbation is \
             seeded per scenario.")
  in
  let net =
    Arg.(
      value
      & opt (some net_conv) None
      & info [ "net" ] ~docv:"PROFILE"
          ~doc:
            "Install this network latency profile (see $(b,run --net)) on \
             every scenario of the grid, overriding any per-scenario \
             profile. Verdicts then carry per-scenario simulated wall-time \
             and the artifact a per-family sim-time section — both in the \
             deterministic portion.")
  in
  let max_rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rounds" ] ~docv:"N"
          ~doc:
            "Per-scenario engine-round budget; an execution that exhausts \
             it gets a timeout verdict instead of hanging its worker \
             domain.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-scenario wall-clock deadline: a watchdog converts an \
             execution exceeding it into a timeout verdict by cancelling \
             its round budget. Wall-clock dependent — fingerprints are \
             only reproducible when no deadline fires.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Infrastructure-failure retries per scenario (with capped \
             exponential backoff) before quarantining it.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Fail fast: abort the whole campaign on the first crashed or \
             timed-out scenario (including one stopped by $(b,--deadline)) \
             instead of recording a verdict and continuing. The abort \
             prints $(i,strict: DESCRIPTION: MESSAGE) naming the scenario \
             and exits 1; verdicts journaled before it are kept for a \
             resume.")
  in
  let cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache: scenarios whose (id, seed, \
             round budget) key is already present are not re-executed; new \
             verdicts are stored for future runs. Safe to share between \
             concurrent campaigns.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Ignore $(b,--cache): execute every scenario afresh.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after-verdicts" ] ~docv:"K"
          ~doc:
            "Crash injection (for the recovery test harness): abort with \
             exit 70 at the K-th journal append of this invocation, \
             leaving a torn half-record at the journal tail. Resuming must \
             reproduce the uninterrupted artifact byte-for-byte.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run an experiment campaign (a deterministic scenario grid) on a \
          work-stealing OCaml 5 domain pool, streaming every verdict to a \
          crash-survivable journal (automatic resume), and write a \
          versioned JSON results artifact.")
    Term.(
      const do_campaign $ exp $ gspec $ algo $ f_arg $ quick $ domains $ seed
      $ out $ max_scenarios $ chaos $ net $ max_rounds $ deadline $ retries
      $ strict $ cache $ no_cache $ kill_after)

let report_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ARTIFACT" ~doc:"Campaign artifact to inspect.")
  in
  let fingerprint =
    Arg.(
      value & flag
      & info [ "fingerprint" ]
          ~doc:
            "Print only the digest of the artifact's deterministic portion \
             (everything except the timing section).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Also print the per-algorithm counter aggregates from the \
             artifact's deterministic stats section.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Parse a campaign artifact, print its summary and any violations; \
          exits non-zero when the artifact fails to parse or records \
          violations.")
    Term.(const do_report $ path $ fingerprint $ stats)

let () =
  let doc = "Byzantine consensus under the local broadcast model (PODC'19)." in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "lbcast" ~version:"1.0.0" ~doc)
          [
            check_cmd; gen_cmd; run_cmd; attack_cmd; forensics_cmd;
            predict_cmd; fuzz_cmd; sweep_cmd; campaign_cmd; report_cmd;
          ]))
