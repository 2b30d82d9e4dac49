(* E1 — whole-program nondeterminism taint.

   Seeds: call-graph definitions that hit a D1/D2/D3 primitive directly
   (wall clock, unordered Hashtbl traversal, ambient Random). A seed is
   cut when the primitive's own line carries a matching inline
   suppression — an already-justified site must not re-fire through
   every caller.

   Sinks: the definitions whose output the repo treats as ground truth —
   everything in the campaign's verdict/serialization units
   (Scenario, Artifact, Stats) plus any definition whose
   name mentions "fingerprint". Only lib-scope sinks fire: an
   executable printing the wall clock in its banner is not a finding.

   A finding names the sink and the full call chain down to the
   primitive, so the fix (thread a clock/RNG handle, sort the fold) can
   start at the right layer. *)

let sink_units =
  [
    "Lbc_campaign__Scenario";
    "Lbc_campaign__Artifact";
    "Lbc_campaign__Stats";
  ]

let is_sink (d : Callgraph.def) =
  List.mem d.unit_name sink_units
  || Callgraph.contains_sub (String.lowercase_ascii d.name) "fingerprint"

let lib_scope file = List.mem "lib" (String.split_on_char '/' file)

(* Seed primitives surviving inline suppression: [suppressed_at file rule
   line] consults the per-file directive cache owned by the deep
   orchestrator. *)
let run (g : Callgraph.t) ~suppressed_at =
  let seed_of (d : Callgraph.def) =
    List.filter
      (fun (rule, _, line) -> not (suppressed_at d.file rule line))
      d.prims
  in
  let seeds = Hashtbl.create 16 in
  List.iter
    (fun (d : Callgraph.def) ->
      match seed_of d with
      | [] -> ()
      | prims -> Hashtbl.replace seeds d.key prims)
    (Callgraph.defs_in_order g);
  if Hashtbl.length seeds = 0 then []
  else
    List.filter_map
      (fun (d : Callgraph.def) ->
        if not (is_sink d && lib_scope d.file) then None
        else
          (* forward BFS from the sink over its callees; first tainted
             definition reached (deterministic: BFS over source-ordered
             uses) names the finding *)
          let parent = Callgraph.reachable g ~roots:[ d.key ] in
          let hit =
            List.find_opt
              (fun k -> Hashtbl.mem seeds k)
              (Hashtbl.fold (fun k _ acc -> k :: acc) parent []
              |> List.sort String.compare)
          in
          match hit with
          | None -> None
          | Some tainted ->
              let chain = Callgraph.chain parent tainted in
              let rule, prim, _ = List.hd (Hashtbl.find seeds tainted) in
              Some
                {
                  Rules.rule = Rules.E1;
                  file = d.file;
                  line = d.line;
                  col = d.col;
                  message =
                    Printf.sprintf
                      "%s reaches nondeterministic %s (%s) via %s" d.name
                      prim (Rules.id rule)
                      (Callgraph.pp_chain g chain);
                })
      (Callgraph.defs_in_order g)
