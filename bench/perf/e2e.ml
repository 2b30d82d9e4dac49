module C = Lbc_campaign
module Clock = C.Clock

type result = {
  workload : string;
  seed : int;
  seconds : float;
  passes : int;
  attempted : int;
  problems : string list;
  values : Metric.value list;
  service_ms : float list;
  counters : (string * int) list;
  digest : string;
}

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let temp_dir () = Filename.temp_dir "lbcbench-" ""

(* VmHWM; the major heap's peak where /proc is missing. *)
let peak_rss_mb () =
  let from_proc =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | status ->
        List.find_map
          (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
          (String.split_on_char '\n' status)
  in
  match from_proc with
  | Some kb -> float_of_int kb /. 1024.
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let is_a2 (s : C.Scenario.t) =
  match s.C.Scenario.algo with C.Scenario.A2 -> true | _ -> false

let precondition_problems scenarios =
  let key (s : C.Scenario.t) = (s.C.Scenario.gname, s.C.Scenario.f, is_a2 s) in
  let compare_key (g1, f1, a1) (g2, f2, a2) =
    match String.compare g1 g2 with
    | 0 -> ( match Int.compare f1 f2 with 0 -> Bool.compare a1 a2 | c -> c)
    | c -> c
  in
  let firsts =
    List.sort_uniq
      (fun a b -> compare_key (key a) (key b))
      (Array.to_list scenarios)
  in
  List.concat_map
    (fun (s : C.Scenario.t) ->
      let g = s.C.Scenario.build () in
      let f = s.C.Scenario.f in
      (if Lbc_graph.Conditions.lbc_feasible g ~f then []
       else [ Printf.sprintf "%s is infeasible at f=%d" s.C.Scenario.gname f ])
      @
      if is_a2 s && not (Lbc_graph.Disjoint.connectivity_at_least g (2 * f))
      then [ Printf.sprintf "%s is not %d-connected" s.C.Scenario.gname (2 * f) ]
      else [])
    firsts

let check (w : Workloads.t) ~(cold : C.Artifact.t) ?warm () =
  let problems = ref [] in
  let fail msg = problems := msg :: !problems in
  Array.iter
    (fun (v : C.Scenario.verdict) ->
      match v.C.Scenario.status with
      | C.Scenario.Timed_out _ -> fail ("timed out: " ^ v.C.Scenario.id)
      | C.Scenario.Crashed { exn; _ } ->
          fail (Printf.sprintf "crashed: %s (%s)" v.C.Scenario.id exn)
      | C.Scenario.Checked ->
          if w.Workloads.kind = Workloads.Exact && not v.C.Scenario.ok then
            fail ("violation: " ^ v.C.Scenario.id))
    cold.C.Artifact.verdicts;
  (match (w.Workloads.kind, warm) with
  | Workloads.Exact, _ -> ()
  | Workloads.Durable, None -> fail "no warm pass"
  | Workloads.Durable, Some (warm : C.Artifact.t) ->
      let cache = warm.C.Artifact.run.C.Artifact.cache in
      if cache.C.Artifact.misses > 0 || cache.C.Artifact.hits <> warm.C.Artifact.count
      then
        fail
          (Printf.sprintf "warm pass: %d cache hits, %d misses for %d scenarios"
             cache.C.Artifact.hits cache.C.Artifact.misses warm.C.Artifact.count);
      if
        not
          (String.equal
             (C.Artifact.deterministic_string warm)
             (C.Artifact.deterministic_string cold))
      then fail "warm pass differs from the cold pass");
  List.rev !problems

let sample ?limit (w : Workloads.t) ~seed =
  let grid = w.Workloads.grid ~seed in
  let scenarios = C.Grid.to_array grid in
  let scenarios =
    match limit with
    | Some k when k < Array.length scenarios -> Array.sub scenarios 0 (max 1 k)
    | _ -> scenarios
  in
  (C.Grid.make ~name:grid.C.Grid.name (Array.to_seq scenarios), scenarios)

(* Set-up is the program's work before the first scenario: grid
   enumeration and the precondition checks (the scratch directory is made
   outside it; its file-system latency is not the program's). It is
   repeated at least 11 times and for at least half a second (at most 201
   times), so that even a sub-millisecond set-up reports a steady median.
   Only the first set-up is kept. *)
let timed_setups ?limit w ~seed =
  let start = Clock.now_s () in
  let timed () =
    let t0 = Clock.now_s () in
    let grid, scenarios = sample ?limit w ~seed in
    let problems = precondition_problems scenarios in
    ((grid, Array.length scenarios, problems), Clock.now_s () -. t0)
  in
  let first, t = timed () in
  let rec go k times =
    if k >= 201 || (k >= 11 && Clock.now_s () -. start >= 0.5) then (first, times)
    else go (k + 1) (snd (timed ()) :: times)
  in
  go 1 [ t ]

type pass = {
  service_s : float array;  (** per scenario, in completion order *)
  tail_s : float;  (** after the last scenario: aggregation and save *)
  problems : string list;
}

(* Pass caches stay on disk until the run ends: deleting them between
   passes would interleave file-system work with the timed passes. *)
let run_pass (w : Workloads.t) ~grid ~dir ~base_seed ~k =
  let service = ref [] and last = ref (Clock.now_s ()) in
  let progress ~done_scenarios:_ ~total:_ =
    let t = Clock.now_s () in
    service := (t -. !last) :: !service;
    last := t
  in
  let durable = w.Workloads.kind = Workloads.Durable in
  let cache = Filename.concat dir (Printf.sprintf "cache-%d" k) in
  let config =
    {
      C.Runner.default with
      base_seed;
      journal =
        (if durable then Some (Filename.concat dir (Printf.sprintf "journal-%d" k))
         else None);
      cache = (if durable then Some cache else None);
    }
  in
  (* Every pass starts from a collected heap, as a fresh [lbcast campaign]
     process would, instead of paying for the previous pass's garbage. *)
  Gc.full_major ();
  let t0 = Clock.now_s () in
  last := t0;
  let cold =
    C.Runner.run_exn ~config:{ config with C.Runner.progress = Some progress } grid
  in
  C.Artifact.save ~path:(Filename.concat dir "artifact.json") cold;
  let tail_s = Clock.now_s () -. !last in
  let warm = if durable then Some (C.Runner.run_exn ~config grid) else None in
  let problems = check w ~cold ?warm () in
  (cold, { service_s = Array.of_list (List.rev !service); tail_s; problems })

let counters_of (a : C.Artifact.t) =
  List.concat_map
    (fun (b : C.Stats.algo_stats) ->
      (b.C.Stats.algo ^ ".scenarios", b.C.Stats.scenarios)
      :: List.map (fun (k, v) -> (b.C.Stats.algo ^ "." ^ k, v)) b.C.Stats.counters)
    a.C.Artifact.stats

let run ?limit (w : Workloads.t) ~seed ~seconds =
  let (grid, count, pre_problems), setup_times = timed_setups ?limit w ~seed in
  let setup_s = Quant.median setup_times in
  let dir = temp_dir () in
  let start = Clock.now_s () in
  let rec loop k acc first =
    if k > 0 && Clock.now_s () -. start >= seconds then (List.rev acc, first)
    else
      let base_seed = w.Workloads.base_seed ~seed ~pass:k in
      let artifact, p = run_pass w ~grid ~dir ~base_seed ~k in
      let first =
        match first with
        | Some _ -> first
        | None ->
            Some
              ( Quant.fnv1a_hex (C.Artifact.deterministic_string artifact),
                counters_of artifact )
      in
      loop (k + 1) (p :: acc) first
  in
  let passes, first =
    if pre_problems = [] then loop 0 [] None else ([], None)
  in
  remove_tree dir;
  (* Each scenario's service time is its median over the passes, and a
     pass's time is the sum of those plus the median tail: a burst of
     load from outside that slows part of one pass moves neither. *)
  let median_over_passes get =
    Quant.median (List.filter_map get passes)
  in
  let typical =
    Array.init count (fun i ->
        median_over_passes (fun p ->
            if i < Array.length p.service_s then Some p.service_s.(i) else None))
  in
  let pass_s =
    Array.fold_left ( +. ) (median_over_passes (fun p -> Some p.tail_s)) typical
  in
  let value (d : Metric.def) =
    let v, n =
      match d.Metric.name with
      | "scenarios_per_s" -> (float_of_int count /. pass_s, List.length passes)
      | "scenario_p50_ms" -> (1e3 *. Quant.nearest_rank typical ~p:0.5, count)
      | "scenario_p90_ms" -> (1e3 *. Quant.nearest_rank typical ~p:0.9, count)
      | "setup_s" -> (setup_s, List.length setup_times)
      | "peak_rss_mb" -> (peak_rss_mb (), 1)
      | other -> invalid_arg ("E2e: no measurement for " ^ other)
    in
    { Metric.def = d; value = v; n }
  in
  let digest, counters = Option.value ~default:("", []) first in
  {
    workload = w.Workloads.name;
    seed;
    seconds;
    passes = List.length passes;
    attempted = max 1 (count * List.length passes);
    problems = pre_problems @ List.concat_map (fun p -> p.problems) passes;
    values = List.map value Metric.end_to_end;
    service_ms =
      List.concat_map
        (fun p -> List.map (fun s -> 1e3 *. s) (Array.to_list p.service_s))
        passes;
    counters;
    digest;
  }
