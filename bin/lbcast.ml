(* lbcast: command-line front end for the local-broadcast Byzantine
   consensus library (Khan-Naqvi-Vaidya, PODC 2019 reproduction).

   Subcommands:
     check     - evaluate the feasibility conditions of all three models
     gen       - emit a built-in graph (edge list or Graphviz)
     run       - simulate a consensus algorithm under an adversary: the
                 flags describe one Lbc_campaign.Scenario, executed by
                 Scenario.run, the executor campaigns use
     attack    - execute a necessity gadget (Lemma A.1 / A.2, or the
                 hybrid Lemma D.1 / D.2)
     forensics - run Algorithm 2 and show each node's type (A/B) and the
                 faulty nodes it identified
     predict   - predict algorithm choice, round counts and message
                 complexity
     fuzz      - randomised falsification campaign
     sweep     - print the hybrid equivocation trade-off tables
     campaign  - run a declarative scenario grid on a domain pool,
                 journaled and resumable, emitting a JSON artifact
     report    - parse a campaign artifact, print its summary             *)

module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module D = Lbc_graph.Disjoint
module Cond = Lbc_graph.Conditions
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module Solve = Lbc_consensus.Solve
module A2 = Lbc_consensus.Algorithm2
module A3 = Lbc_consensus.Algorithm3
module S = Lbc_adversary.Strategy
module Gadget = Lbc_lowerbound.Gadget
module Perturb = Lbc_sim.Perturb
module Engine = Lbc_sim.Engine
module Net = Lbc_net.Net
module Campaign = Lbc_campaign
module Scenario = Lbc_campaign.Scenario

(* ------------------------------------------------------------------ *)
(* Parsers                                                              *)
(* ------------------------------------------------------------------ *)

(* A graph spec is outside input: one its builder rejects is a usage
   error (exit 2), never an uncaught exception. *)
let graph_of_spec spec =
  match B.of_spec spec with
  | Ok g -> g
  | Error msg ->
      Printf.eprintf "lbcast: option '-g': %s\n" msg;
      exit 2

let conv parse pp =
  Cmdliner.Arg.conv
    ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), pp)

(* The printer only renders the (uniform) default in --help. *)
let strategy_conv =
  conv Scenario.strategy_of_string (fun fmt (k, _) -> S.pp_kind fmt k)

let nodeset_conv = conv Nodeset.of_csv Nodeset.pp

let inputs_conv =
  conv Bit.array_of_string (fun fmt a ->
      Format.pp_print_string fmt (Bit.array_to_string a))

let chaos_conv = conv Perturb.parse Perturb.pp
let net_conv = conv Net.parse Net.pp

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

(* What one run or forensics invocation executes, beyond graph and
   algorithm: both commands share these flags. *)
type execution = {
  inputs : Bit.t array option;
  faulty : Nodeset.t;
  strategy : S.kind * (int * S.kind) list;  (** [-s], uniform or per node *)
  seed : int;
}

(* Default inputs: faulty nodes get 1, the others 0. *)
let inputs_for g x =
  let n = G.size g in
  match x.inputs with
  | Some a when Array.length a = n -> a
  | Some _ ->
      Printf.eprintf "inputs length must equal graph size %d\n" n;
      exit 2
  | None -> Array.init n (fun v -> Bit.of_bool (Nodeset.mem v x.faulty))

let resolve_algo g ~f ~t = function
  | "auto" -> (
      match Solve.choose ~g ~f with
      | Ok Solve.Efficient -> (Scenario.A2, Some Solve.Efficient)
      | Ok Solve.Exponential -> (Scenario.A1, Some Solve.Exponential)
      | Error verdict ->
          Printf.eprintf "graph infeasible for f=%d: %s\n" f
            (Format.asprintf "%a" Cond.pp_verdict verdict);
          exit 3)
  | name -> (
      match Scenario.algo_of_name ~t name with
      | Ok algo -> (algo, None)
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 2)

let do_run spec algo f t x equivocators chaos net max_rounds stats trace =
  let g = graph_of_spec spec in
  let inputs = inputs_for g x in
  let algo, selected = resolve_algo g ~f ~t algo in
  let strategy, per_node = x.strategy in
  let scenario =
    Scenario.make ~gname:spec
      ~build:(fun () -> g)
      ~algo ~f ~faulty:x.faulty ~equivocators ~strategy ~per_node ~inputs
      ?chaos ?net ()
  in
  let execute () = Scenario.run ?max_rounds scenario ~seed:x.seed in
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
    with
    | Engine.Fuel_exhausted { budget } ->
        Printf.eprintf "run exceeded the %d-round budget (--max-rounds)\n"
          budget;
        exit 4
    | Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    | exn ->
        (* A campaign records this as a Crashed verdict; its repro line
           must reproduce it as a crash, not as an internal error. *)
        Printf.eprintf "crashed: %s\n" (Printexc.to_string exn);
        exit 5
  in
  Option.iter
    (fun choice ->
      Printf.printf "selected: %s\n"
        (Format.asprintf "%a" Solve.pp_choice choice))
    selected;
  (match chaos with
  | Some spec when not (Perturb.is_zero spec) ->
      Printf.printf "chaos    : %s\n" (Perturb.to_string spec)
  | _ -> ());
  Printf.printf "inputs   : %s\n" (Bit.array_to_string inputs);
  Printf.printf "faulty   : %s (strategy %s)\n" (Nodeset.to_string x.faulty)
    (Scenario.strategy_label scenario);
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
  (* Each gadget, and the condition its graph must violate. *)
  let build, needs =
    match lemma with
    | "degree" ->
        ( (fun () -> Gadget.degree_gadget g ~f ()),
          Printf.sprintf "Lemma A.1 needs f >= 1 and a node of degree < 2f = %d"
            (2 * f) )
    | "connectivity" ->
        ( (fun () -> Gadget.connectivity_gadget g ~f ()),
          Printf.sprintf
            "Lemma A.2 needs f >= 1 and a vertex cut of at most floor(3f/2) = \
             %d nodes"
            (3 * f / 2) )
    | "hybrid-neighborhood" ->
        ( (fun () -> Gadget.hybrid_neighborhood_gadget g ~f ~t ()),
          Printf.sprintf
            "Lemma D.1 needs 1 <= t <= f and a set of at most t nodes with 1 \
             to 2f = %d neighbours"
            (2 * f) )
    | "hybrid-connectivity" ->
        ( (fun () -> Gadget.hybrid_connectivity_gadget g ~f ~t ()),
          Printf.sprintf
            "Lemma D.2 needs 1 <= t <= f and a vertex cut of at most \
             floor(3(f-t)/2) + 2t = %d nodes"
            ((3 * (f - t) / 2) + (2 * t)) )
    | other ->
        Printf.eprintf
          "unknown lemma %s (degree, connectivity, hybrid-neighborhood, \
           hybrid-connectivity)\n"
          other;
        exit 2
  in
  let gadget =
    try build ()
    with Invalid_argument msg ->
      Printf.eprintf "lbcast attack: no %s gadget on this graph: %s (%s)\n"
        lemma needs msg;
      exit 2
  in
  Printf.printf "%s\n" (Gadget.describe gadget);
  (* Algorithm 3 with t = 0 is Algorithm 1: same schedule, same rounds. *)
  let proc = A3.proc ~g ~f ~t in
  let rounds = A3.phases ~g ~f ~t * G.size g in
  Printf.printf "running Algorithm %d on the doubled network (%d nodes, %d \
                 rounds)...\n"
    (if t > 0 then 3 else 1)
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

let do_forensics spec f x =
  let g = graph_of_spec spec in
  let inputs = inputs_for g x in
  let strategy, per_node = x.strategy in
  let scenario =
    Scenario.make ~gname:spec
      ~build:(fun () -> g)
      ~algo:Scenario.A2 ~f ~faulty:x.faulty ~strategy ~per_node ~inputs ()
  in
  (* The node-id checks [run] makes, so a bad --faulty is a usage error
     here too. *)
  (try Scenario.validate scenario g
   with Invalid_argument msg ->
     Printf.eprintf "%s\n" msg;
     exit 2);
  let o, reports =
    A2.run_detailed ~g ~f ~inputs ~faulty:x.faulty
      ~strategy:(Scenario.node_strategy scenario)
      ~seed:x.seed ()
  in
  Printf.printf
    "Algorithm 2 fault forensics (f=%d, faulty=%s, strategy %s):\n" f
    (Nodeset.to_string x.faulty)
    (Scenario.strategy_label scenario);
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

let do_fuzz spec algo f t runs seed =
  ignore (graph_of_spec spec);
  if runs < 0 then begin
    Printf.eprintf "lbcast: option '--runs': %d is negative\n" runs;
    exit 2
  end;
  let algo, label =
    match algo with
    | "a1" -> (Scenario.A1, "algorithm1")
    | "a2" -> (Scenario.A2, "algorithm2")
    | "a3" -> (Scenario.A3 t, Printf.sprintf "algorithm3(t=%d)" t)
    | "relay" -> (Scenario.Relay, "relay-eig")
    | other ->
        Printf.eprintf "unknown fuzz target %s (a1, a2, a3, relay)\n" other;
        exit 2
  in
  let a =
    Campaign.Runner.run_exn
      ~config:{ Campaign.Runner.default with base_seed = seed }
      (Campaign.Grids.fuzz ~gname:spec ~f ~algo ~runs ~seed ())
  in
  let bad =
    List.filter
      (fun (v : Scenario.verdict) -> not v.Scenario.ok)
      (Array.to_list a.Campaign.Artifact.verdicts)
  in
  Printf.printf "fuzz %s: %d runs, %d violations\n" label runs
    (List.length bad);
  List.iter
    (fun v ->
      Printf.printf "  %s\n" (Format.asprintf "%a" Scenario.pp_verdict v))
    bad;
  if bad = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* campaign / report                                                    *)
(* ------------------------------------------------------------------ *)

let custom_grid spec f algo =
  ignore (graph_of_spec spec);
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
    ~graphs:[ (spec, f) ]
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

(* Every rejected command line exits 2 (see the evaluation at the end),
   so the man pages list 2 in place of cmdliner's 123 and 124. *)
let exits =
  Cmd.Exit.info 2
    ~doc:"a usage error: an unknown option, or a bad or out-of-range value."
  :: List.filter
       (fun i -> not (List.mem (Cmd.Exit.info_code i) [ 123; 124 ]))
       Cmd.Exit.defaults

let graph_spec_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"GRAPH" ~doc:"Graph specification.")

let graph_arg = Term.(const graph_of_spec $ graph_spec_arg)

let f_arg =
  Arg.(value & opt int 1 & info [ "f" ] ~docv:"F" ~doc:"Fault budget.")

let t_arg =
  Arg.(
    value & opt int 0
    & info [ "t" ] ~docv:"T" ~doc:"Equivocation budget (hybrid model).")

let check_cmd =
  let doc = "Evaluate the feasibility conditions of all three models." in
  Cmd.v
    (Cmd.info "check" ~exits ~doc)
    Term.(const do_check $ graph_arg $ f_arg $ t_arg)

let gen_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of an edge list.")
  in
  Cmd.v
    (Cmd.info "gen" ~exits ~doc:"Emit a built-in graph.")
    Term.(const do_gen $ graph_arg $ dot)

let execution_term =
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
  let strategy =
    Arg.(
      value
      & opt strategy_conv (S.Flip_forwards, [])
      & info [ "strategy"; "s" ] ~docv:"STRAT"
          ~doc:
            "Adversarial strategy of every faulty node, or one per faulty \
             node as NODE=STRAT items joined by '/' (e.g. \
             1=noise:2/3=omit:1,4).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  Term.(
    const (fun inputs faulty strategy seed ->
        { inputs; faulty; strategy; seed })
    $ inputs $ faulty $ strategy $ seed)

let chaos_arg =
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Environment perturbation: a comma-separated key=value list with \
           keys drop, dup, delay, delay-p, crash, crash-len (e.g. \
           drop=0.1,delay=2,delay-p=0.25); 'none' disables. Deterministic \
           given the seed. A campaign installs it on every scenario of the \
           grid, overriding any per-scenario spec.")

let net_arg =
  Arg.(
    value
    & opt (some net_conv) None
    & info [ "net" ] ~docv:"PROFILE"
        ~doc:
          (Printf.sprintf
             "Network latency profile (%s, or const:NS): every delivery is \
              assigned a sampled link latency, and the run reports its \
              simulated wall-time alongside round counts. Deterministic \
              given the seed; composes with $(b,--chaos). A campaign \
              installs it on every scenario of the grid, overriding any \
              per-scenario profile; verdicts then carry simulated wall-time \
              and the artifact a per-family sim-time section, both in the \
              deterministic portion."
             (String.concat ", " Net.names)))

let max_rounds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rounds" ] ~docv:"N"
        ~doc:
          "Engine-round budget per execution (catches livelock under \
           $(b,--chaos)). $(b,run) aborts with exit code 4 once the engine \
           has executed N rounds; a campaign scenario that exhausts it gets \
           a timeout verdict instead of hanging its worker domain.")

let run_cmd =
  let algo =
    Arg.(
      value & opt string "a1"
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:
            "Algorithm: a1, a2, a3, eig, relay, or auto (a2 when the graph \
             is 2f-connected, else a1 when it meets the condition, else \
             exit 3).")
  in
  let equivocators =
    Arg.(
      value
      & opt nodeset_conv Nodeset.empty
      & info [ "equivocators" ] ~docv:"IDS"
          ~doc:"Subset of the faulty nodes allowed to equivocate (a3).")
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
  let exits =
    Cmd.Exit.info 1 ~doc:"the run did not reach consensus."
    :: Cmd.Exit.info 3 ~doc:"$(b,--algo auto) on an infeasible graph."
    :: Cmd.Exit.info 4 ~doc:"the $(b,--max-rounds) budget ran out."
    :: Cmd.Exit.info 5
         ~doc:
           "the execution crashed (e.g. a model violation): $(i,crashed: \
            EXN) on stderr, as a campaign records a crashed verdict."
    :: exits
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:"Simulate a consensus algorithm under an adversary.")
    Term.(
      const do_run $ graph_spec_arg $ algo $ f_arg $ t_arg $ execution_term
      $ equivocators $ chaos_arg $ net_arg $ max_rounds_arg $ stats $ trace)

let attack_cmd =
  let lemma =
    Arg.(
      value & opt string "connectivity"
      & info [ "lemma" ] ~docv:"LEMMA"
          ~doc:
            "degree (Lemma A.1), connectivity (Lemma A.2), \
             hybrid-neighborhood (Lemma D.1) or hybrid-connectivity \
             (Lemma D.2). With $(b,-t) > 0 the gadget runs Algorithm 3, \
             otherwise Algorithm 1.")
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:"the replayed execution E2 kept agreement: no split was forced."
    :: exits
  in
  Cmd.v
    (Cmd.info "attack" ~exits
       ~doc:"Execute a necessity gadget on a condition-violating graph.")
    Term.(const do_attack $ graph_arg $ lemma $ f_arg $ t_arg)

let predict_cmd =
  Cmd.v
    (Cmd.info "predict" ~exits
       ~doc:
         "Predict algorithm choice, round counts and message complexity \
          for a graph and fault budget.")
    Term.(const do_predict $ graph_arg $ f_arg)

let forensics_cmd =
  Cmd.v
    (Cmd.info "forensics" ~exits
       ~doc:
         "Run Algorithm 2 and show, per node, its type (A/B) and the \
          faulty nodes it identified.")
    Term.(const do_forensics $ graph_spec_arg $ f_arg $ execution_term)

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
  let exits =
    Cmd.Exit.info 1
      ~doc:"some case violated agreement or validity (each is printed)."
    :: exits
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:
         "Randomised falsification campaign: random inputs, fault \
          placements and strategies; exits non-zero on any \
          agreement/validity violation.")
    Term.(const do_fuzz $ graph_spec_arg $ algo $ f_arg $ t_arg $ runs $ seed)

let sweep_cmd =
  let fmax =
    Arg.(value & opt int 6 & info [ "fmax" ] ~docv:"N" ~doc:"Largest f.")
  in
  Cmd.v
    (Cmd.info "sweep" ~exits ~doc:"Print the hybrid equivocation trade-off table.")
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
  let exits =
    Cmd.Exit.info 1
      ~doc:
        "the campaign recorded a violation, crash, timeout or quarantined \
         scenario, or a $(b,--strict) run aborted on one."
    :: Cmd.Exit.info 70
         ~doc:
           "the simulated crash of $(b,--kill-after-verdicts) fired; the \
            journal is left for the resuming run."
    :: exits
  in
  Cmd.v
    (Cmd.info "campaign" ~exits
       ~doc:
         "Run an experiment campaign (a deterministic scenario grid) on a \
          work-stealing OCaml 5 domain pool, streaming every verdict to a \
          crash-survivable journal (automatic resume), and write a \
          versioned JSON results artifact.")
    Term.(
      const do_campaign $ exp $ gspec $ algo $ f_arg $ quick $ domains $ seed
      $ out $ max_scenarios $ chaos_arg $ net_arg $ max_rounds_arg $ deadline
      $ retries
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
  let exits =
    Cmd.Exit.info 1
      ~doc:
        "the artifact records a violation, crash, timeout or quarantined \
         scenario."
    :: exits
  in
  Cmd.v
    (Cmd.info "report" ~exits
       ~doc:
         "Parse a campaign artifact, print its summary and any violations; \
          exits non-zero when the artifact fails to parse or records \
          violations.")
    Term.(const do_report $ path $ fingerprint $ stats)

let () =
  let doc = "Byzantine consensus under the local broadcast model (PODC'19)." in
  let cmd =
    Cmd.group
      (Cmd.info "lbcast" ~exits ~version:"1.0.0" ~doc)
      [
        check_cmd; gen_cmd; run_cmd; attack_cmd; forensics_cmd; predict_cmd;
        fuzz_cmd; sweep_cmd; campaign_cmd; report_cmd;
      ]
  in
  (* Cmdliner has already printed the error: a rejected command line is a
     usage error like a bad -g spec, exit 2. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
