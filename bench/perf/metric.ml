module J = Lbc_campaign.Jsonio

type better = Higher | Lower

type def = { name : string; unit_ : string; better : better }

let hi name unit_ = { name; unit_; better = Higher }
let lo name unit_ = { name; unit_; better = Lower }

let end_to_end =
  [
    hi "scenarios_per_s" "scen/s";
    lo "scenario_p50_ms" "ms";
    lo "scenario_p90_ms" "ms";
    lo "setup_s" "s";
    lo "peak_rss_mb" "MB";
  ]

(* Times are per scenario of the traced sample, so a layer's share of a
   scenario reads directly against scenario_p50_ms. Counts are sums over
   the sample and repeat exactly at a seed (campaign.steal excepted). *)
let per_layer =
  [
    lo "campaign.overhead_ms" "ms";
    lo "campaign.save_ms" "ms";
    lo "campaign.persist_ms" "ms";
    lo "campaign.cache_read_ms" "ms";
    hi "campaign.cached_scenarios_per_s" "scen/s";
    hi "campaign.parallel_speedup" "ratio";
    lo "campaign.steal" "count";
    lo "cache.store" "count";
    hi "cache.hit" "count";
    lo "cache.miss" "count";
    lo "obs.record_ms" "ms";
    lo "core.a2.attribution_ms" "ms";
    lo "core.a2.discover_ms" "ms";
    hi "a2.evidence.tamper" "count";
    hi "a2.evidence.omission" "count";
    hi "a2.type_a" "count";
    lo "a2.type_b" "count";
    lo "graph.disjoint_paths_ms" "ms";
    lo "graph.disjoint_calls" "count";
    lo "graph.build_ms" "ms";
    lo "graph.conditions_ms" "ms";
    lo "flood.step_ms" "ms";
    lo "flood.minor_words_per_tx" "words/tx";
    hi "flood.accept_ratio" "ratio";
    lo "flood.accept" "count";
    lo "flood.reject_own" "count";
    lo "flood.dedup_hit" "count";
    lo "packing.count_ms" "ms";
    hi "packing.cache_hit_ratio" "ratio";
    lo "packing.dfs_visited" "count";
    hi "packing.cache_hit" "count";
    lo "packing.cache_miss" "count";
    lo "sim.engine_self_ms" "ms";
    lo "engine.rounds" "count";
    lo "engine.tx" "count";
    lo "engine.rx" "count";
    lo "sim.chaos_ms" "ms";
    lo "perturb.dropped" "count";
    lo "net.model_ms" "ms";
    lo "net.link_ns.count" "count";
    lo "trace.overhead_frac" "ratio";
  ]

type value = { def : def; value : float; n : int }

let result_json ~correct ~attempted ~failed values =
  J.Obj
    [
      ("correct", J.Bool correct);
      ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun v ->
               ( v.def.name,
                 J.Obj
                   [
                     (* an empty sample (the run failed before measuring)
                        must still print valid JSON *)
                     ( "value",
                       J.Float (if Float.is_finite v.value then v.value else 0.)
                     );
                     ("unit", J.Str v.def.unit_);
                   ]
               ))
             values) );
    ]

let print_table values =
  List.iter
    (fun v ->
      Printf.printf "  %-32s %16s %-8s N=%d\n" v.def.name
        (if String.equal v.def.unit_ "count" then Printf.sprintf "%.0f" v.value
         else Printf.sprintf "%.6g" v.value)
        v.def.unit_ v.n)
    values
