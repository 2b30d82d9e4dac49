module C = Lbc_campaign
module Clock = C.Clock
module G = Lbc_graph.Graph
module Disjoint = Lbc_graph.Disjoint
module A2 = Lbc_consensus.Algorithm2
module Bit = Lbc_consensus.Bit
module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module Engine = Lbc_sim.Engine
module Net = Lbc_net.Net
module Obs = Lbc_obs.Obs

type result = {
  workload : string;
  seed : int;
  rounds : int;
  attempted : int;
  problems : string list;
  values : Metric.value list;
}

(* Seconds summed over the sample, per probe. *)
type probe = {
  mutable exec : float;
  mutable observed : float;
  mutable build : float;
  mutable chaos : float;
  mutable net : float;
  mutable attribution : float;
  mutable discover : float;
  mutable disjoint : float;
  mutable disjoint_calls : int;
  mutable steps : float;
  mutable engine_self : float;
  mutable words : float;
  mutable flood_tx : int;
  mutable packing : float;
  mutable counters : (string * int) list;
}

let new_probe () =
  {
    exec = 0.;
    observed = 0.;
    build = 0.;
    chaos = 0.;
    net = 0.;
    attribution = 0.;
    discover = 0.;
    disjoint = 0.;
    disjoint_calls = 0;
    steps = 0.;
    engine_self = 0.;
    words = 0.;
    flood_tx = 0;
    packing = 0.;
    counters = [];
  }

(* Algorithm 2's fault discovery at every honest node, split into the
   attribution index, the discovery scan, and a replay of the scan's
   disjoint-path queries (discover's self time = its span minus those). *)
let a2_probe spans p ~base_seed (s : C.Scenario.t) =
  let g = s.C.Scenario.build () in
  let n = G.size g and f = s.C.Scenario.f in
  let seed = C.Scenario.scenario_seed ~base:base_seed s in
  let tr, _ =
    Spans.time spans ~cat:"core" "Algorithm2.run_traced" (fun () ->
        A2.run_traced ~g ~f ~inputs:s.C.Scenario.inputs
          ~faulty:s.C.Scenario.faulty
          ~strategy:(fun _ -> s.C.Scenario.strategy)
          ~seed ())
  in
  Array.iteri
    (fun me store1 ->
      match (store1, tr.A2.store2.(me)) with
      | Some store1, Some store2 ->
          let learns, dt =
            Spans.time spans ~cat:"core" "Algorithm2.attribution_index"
              (fun () -> A2.attribution_index g ~me ~heard:tr.A2.heard.(me) ~store2)
          in
          p.attribution <- p.attribution +. dt;
          let _, dt =
            Spans.time spans ~cat:"core" "Algorithm2.discover" (fun () ->
                A2.discover g ~f ~me ~store1 ~learns ())
          in
          p.discover <- p.discover +. dt;
          let origins =
            List.init n (fun w -> (w, Flood.reliable_values ~f store1 ~origin:w))
          in
          let (), dt =
            Spans.time spans ~cat:"graph" "Disjoint.disjoint_uv_paths" (fun () ->
                List.iter
                  (fun (w, values) ->
                    List.iter
                      (fun _ ->
                        for u = 0 to n - 1 do
                          if u <> w then begin
                            ignore
                              (Disjoint.disjoint_uv_paths ~limit:(2 * f) g ~u:w
                                 ~v:u);
                            p.disjoint_calls <- p.disjoint_calls + 1
                          end
                        done)
                      values)
                  origins)
          in
          p.disjoint <- p.disjoint +. dt
      | _ -> ())
    tr.A2.store1

(* An all-honest flood of the scenario's inputs on its graph: once plain
   for allocation per transmission, once with every step timed for the
   flood/engine split; then uncached packing over the resulting stores. *)
let flood_probe spans p (s : C.Scenario.t) =
  let g = s.C.Scenario.build () in
  let n = G.size g and f = s.C.Scenario.f in
  let topo = Engine.topology_of_graph g in
  let rounds = Flood.rounds_needed g in
  let procs () =
    Array.init n (fun me ->
        Flood.proc
          (Flood.create g ~me ~vcompare:Bit.compare
             ~initiate:s.C.Scenario.inputs.(me) ~default:Bit.default ()))
  in
  let roles = Array.map (fun pr -> Engine.Honest pr) (procs ()) in
  let w0 = Gc.minor_words () in
  let plain = Engine.run topo ~model:Engine.Local_broadcast ~rounds ~roles in
  p.words <- p.words +. (Gc.minor_words () -. w0);
  p.flood_tx <- p.flood_tx + plain.Engine.stats.Engine.transmissions;
  let steps = ref 0. in
  let timed (pr : _ Engine.proc) =
    Engine.Honest
      {
        pr with
        Engine.step =
          (fun ~round ~inbox ->
            let t0 = Clock.now_s () in
            let out = pr.Engine.step ~round ~inbox in
            steps := !steps +. (Clock.now_s () -. t0);
            out);
      }
  in
  let start_s = Clock.now_s () in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds
      ~roles:(Array.map timed (procs ()))
  in
  let dur_s = Clock.now_s () -. start_s in
  Spans.add spans ~cat:"sim" "Engine.run (all-honest flood)"
    ~args:[ ("flood_steps_ms", 1e3 *. !steps) ]
    ~start_s ~dur_s;
  p.steps <- p.steps +. !steps;
  p.engine_self <- p.engine_self +. (dur_s -. !steps);
  let groups =
    Array.to_list r.Engine.outputs
    |> List.mapi (fun me store ->
           match store with
           | None -> []
           | Some store ->
               let by_key = Array.make (2 * n) [] in
               Flood.iter_records store (fun ~origin ~path:_ ~sans_me ~value ->
                   if origin <> me then begin
                     let k = (2 * origin) + Bit.to_int value in
                     by_key.(k) <- sans_me :: by_key.(k)
                   end);
               List.filter (function [] -> false | _ -> true) (Array.to_list by_key))
    |> List.concat
  in
  let (), dt =
    Spans.time spans ~cat:"packing" "Packing.count (uncached)" (fun () ->
        List.iter (fun masks -> ignore (Packing.count masks ~limit:(f + 1))) groups)
  in
  p.packing <- p.packing +. dt

let scenario_probes spans p ~base_seed i (s : C.Scenario.t) =
  let execute cat name s =
    snd
      (Spans.time spans ~cat name (fun () ->
           C.Scenario.execute ~base_seed ~index:i s))
  in
  let full = execute "sim" "Scenario.execute" s in
  p.exec <- p.exec +. full;
  let (_, counters), dt =
    Spans.time spans ~cat:"obs" "Scenario.execute_observed" (fun () ->
        C.Scenario.execute_observed ~base_seed ~index:i s)
  in
  p.observed <- p.observed +. dt;
  p.counters <- Obs.merge_counters p.counters counters;
  let _, dt = Spans.time spans ~cat:"graph" "Scenario.build" s.C.Scenario.build in
  p.build <- p.build +. dt;
  let no_net = { s with C.Scenario.net = None } in
  let has_net =
    match s.C.Scenario.net with Some prof -> not (Net.is_ideal prof) | None -> false
  in
  let net_stripped =
    lazy (execute "net" "Scenario.execute (net stripped)" no_net)
  in
  if has_net then p.net <- p.net +. (full -. Lazy.force net_stripped);
  (match s.C.Scenario.chaos with
  | None -> ()
  | Some _ ->
      let bare =
        execute "sim" "Scenario.execute (chaos and net stripped)"
          { no_net with C.Scenario.chaos = None }
      in
      p.chaos <- p.chaos +. (Lazy.force net_stripped -. bare));
  if E2e.is_a2 s then a2_probe spans p ~base_seed s;
  flood_probe spans p s

(* Counts the comparison gates by equality: every count except the
   scheduler's steal tally, which depends on timing. *)
let deterministic (d : Metric.def) =
  String.equal d.Metric.unit_ "count" && not (String.equal d.Metric.name "campaign.steal")

let ratio a b = if b = 0. then 0. else a /. b

let round spans (w : Workloads.t) ~seed ~grid ~scenarios ~dir =
  let n = float_of_int (Array.length scenarios) in
  let base_seed = w.Workloads.base_seed ~seed ~pass:0 in
  let config = { C.Runner.default with base_seed } in
  let camp name f = Spans.time spans ~cat:"campaign" name f in
  let _, conditions_s =
    Spans.time spans ~cat:"graph" "Conditions.lbc_feasible" (fun () ->
        E2e.precondition_problems scenarios)
  in
  let plain, run_s = camp "Runner.run_exn" (fun () -> C.Runner.run_exn ~config grid) in
  let (), save_s =
    camp "Artifact.save" (fun () ->
        C.Artifact.save ~path:(Filename.concat dir "artifact.json") plain)
  in
  (* The same pass again, with one span per scenario: the difference to
     the untraced pass is the cost of tracing. *)
  let traced_s =
    let last = ref (Clock.now_s ()) in
    let progress ~done_scenarios ~total:_ =
      let t = Clock.now_s () in
      Spans.add spans ~cat:"campaign" "scenario"
        ~args:[ ("done", float_of_int done_scenarios) ]
        ~start_s:!last ~dur_s:(t -. !last);
      last := t
    in
    let t0 = Clock.now_s () in
    last := t0;
    ignore (C.Runner.run_exn ~config:{ config with C.Runner.progress = Some progress } grid);
    Clock.now_s () -. t0
  in
  let cache = Filename.concat dir "cache" in
  let durable =
    {
      config with
      C.Runner.journal = Some (Filename.concat dir "journal");
      cache = Some cache;
    }
  in
  let cold, cold_s =
    camp "Runner.run_exn (journal, cold cache)" (fun () ->
        C.Runner.run_exn ~config:durable grid)
  in
  let warm, warm_s =
    camp "Runner.run_exn (journal, warm cache)" (fun () ->
        C.Runner.run_exn ~config:durable grid)
  in
  E2e.remove_tree cache;
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let par, par_s =
    camp
      (Printf.sprintf "Runner.run_exn (%d domains)" domains)
      (fun () -> C.Runner.run_exn ~config:{ config with C.Runner.domains } grid)
  in
  let same =
    List.for_all
      (fun (a : C.Artifact.t) ->
        String.equal
          (C.Artifact.deterministic_string a)
          (C.Artifact.deterministic_string plain))
      [ cold; par ]
  in
  let problems =
    E2e.check w ~cold ~warm ()
    @ if same then [] else [ "artifacts differ across cache state or domain count" ]
  in
  let p = new_probe () in
  Array.iteri (scenario_probes spans p ~base_seed) scenarios;
  let cnt name =
    float_of_int
      (Option.value ~default:0 (List.assoc_opt name p.counters))
  in
  let per_scenario_ms s = 1e3 *. s /. n in
  let cache_info (a : C.Artifact.t) = a.C.Artifact.run.C.Artifact.cache in
  let value = function
    | "campaign.overhead_ms" -> per_scenario_ms (run_s -. p.observed)
    | "campaign.save_ms" -> per_scenario_ms save_s
    | "campaign.persist_ms" -> per_scenario_ms (cold_s -. run_s)
    | "campaign.cache_read_ms" -> per_scenario_ms warm_s
    | "campaign.cached_scenarios_per_s" -> n /. warm_s
    | "campaign.parallel_speedup" -> run_s /. par_s
    | "campaign.steal" ->
        float_of_int par.C.Artifact.run.C.Artifact.steal.C.Artifact.steals
    | "cache.store" -> float_of_int (cache_info cold).C.Artifact.stores
    | "cache.hit" ->
        float_of_int ((cache_info cold).C.Artifact.hits + (cache_info warm).C.Artifact.hits)
    | "cache.miss" ->
        float_of_int
          ((cache_info cold).C.Artifact.misses + (cache_info warm).C.Artifact.misses)
    | "obs.record_ms" -> per_scenario_ms (p.observed -. p.exec)
    | "core.a2.attribution_ms" -> per_scenario_ms p.attribution
    | "core.a2.discover_ms" -> per_scenario_ms (p.discover -. p.disjoint)
    | "graph.disjoint_paths_ms" -> per_scenario_ms p.disjoint
    | "graph.disjoint_calls" -> float_of_int p.disjoint_calls
    | "graph.build_ms" -> per_scenario_ms p.build
    | "graph.conditions_ms" -> 1e3 *. conditions_s
    | "flood.step_ms" -> per_scenario_ms p.steps
    | "flood.minor_words_per_tx" -> ratio p.words (float_of_int p.flood_tx)
    | "flood.accept_ratio" -> ratio (cnt "flood.accept") (cnt "engine.rx")
    | "packing.count_ms" -> per_scenario_ms p.packing
    | "packing.cache_hit_ratio" ->
        ratio (cnt "packing.cache_hit")
          (cnt "packing.cache_hit" +. cnt "packing.cache_miss")
    | "sim.engine_self_ms" -> per_scenario_ms p.engine_self
    | "sim.chaos_ms" -> per_scenario_ms p.chaos
    | "net.model_ms" -> per_scenario_ms p.net
    | "trace.overhead_frac" -> (traced_s /. run_s) -. 1.
    | counter -> cnt counter
  in
  (List.map (fun (d : Metric.def) -> (d, value d.Metric.name)) Metric.per_layer, problems)

let trace ?limit (w : Workloads.t) ~seed ~seconds ~spans =
  let grid, scenarios = E2e.sample ?limit w ~seed in
  let dir = E2e.temp_dir () in
  (* One untimed pass first, so heap growth and first-touch costs do not
     land on whichever probe happens to run first. *)
  ignore
    (C.Runner.run_exn
       ~config:{ C.Runner.default with base_seed = w.Workloads.base_seed ~seed ~pass:0 }
       grid);
  let start = Clock.now_s () in
  let rec loop k acc =
    if k > 0 && Clock.now_s () -. start >= seconds then List.rev acc
    else begin
      Spans.set_keep spans (k = 0);
      loop (k + 1) (round spans w ~seed ~grid ~scenarios ~dir :: acc)
    end
  in
  let rounds =
    Fun.protect ~finally:(fun () -> E2e.remove_tree dir) (fun () -> loop 0 [])
  in
  Spans.set_keep spans true;
  let first, _ = List.hd rounds in
  let drift =
    List.concat_map
      (fun (vs, _) ->
        List.filter_map
          (fun ((d : Metric.def), v) ->
            let v0 = List.assq d first in
            if deterministic d && not (Float.equal v v0) then
              Some
                (Printf.sprintf "count %s changed between rounds: %.0f then %.0f"
                   d.Metric.name v0 v)
            else None)
          vs)
      (List.tl rounds)
  in
  let value (d : Metric.def) =
    let per_round = List.map (fun (vs, _) -> List.assq d vs) rounds in
    let v = if deterministic d then List.hd per_round else Quant.median per_round in
    { Metric.def = d; value = v; n = List.length rounds }
  in
  {
    workload = w.Workloads.name;
    seed;
    rounds = List.length rounds;
    attempted = Array.length scenarios * List.length rounds;
    problems = List.concat_map snd rounds @ drift;
    values = List.map value Metric.per_layer;
  }
