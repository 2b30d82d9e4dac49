(* Tests for the whole-program --deep pass (lib/lint: Cmt_load,
   Callgraph, Taint/E1, Domsafe/E2, Model/M1, Deadexport/X1).

   The fixtures under deep_fixtures/ are real dune libraries — the deep
   pass reads .cmt/.cmti typed ASTs, so unlike the lint_fixtures
   snippets they must actually compile. The test binary lives in
   _build/default/test, where the fixture annotations sit under
   deep_fixtures/ and the (dune-copied) sources are reachable via
   ".." from the build root — which is also why every finding path
   below is build-root-relative (test/deep_fixtures/...). Both are
   resolved from the executable's location, so the suite runs from any
   working directory. *)

module Rules = Lbc_lint.Rules
module Deep = Lbc_lint.Deep
module Baseline = Lbc_lint.Baseline
module Driver = Lbc_lint.Driver

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fixture_file name = "test/deep_fixtures/lib/" ^ name

let contains s needle =
  let nl = String.length needle and hl = String.length s in
  let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

let test_dir = Filename.dirname Sys.executable_name
let fixture_dir = Filename.concat test_dir "deep_fixtures"
let source_root = Filename.concat test_dir Filename.parent_dir_name

(* One Deep.run over the fixture tree, shared by all cases. *)
let result = lazy (Deep.run ~build_dirs:[ fixture_dir ] ~source_root ())

let kept_in file =
  List.filter
    (fun (f : Rules.finding) -> f.Rules.file = file)
    (Lazy.force result).Deep.kept

let suppressed_in file =
  List.filter
    (fun (f : Rules.finding) -> f.Rules.file = file)
    (Lazy.force result).Deep.suppressed

let summarize fs =
  String.concat ";"
    (List.map
       (fun (f : Rules.finding) ->
         Printf.sprintf "%s:%d" (Rules.id f.Rules.rule) f.Rules.line)
       fs)

let test_loads_cleanly () =
  let r = Lazy.force result in
  check "no cmt load errors" true (r.Deep.errors = []);
  check "analyzed some units" true (r.Deep.units >= 10)

let test_e1_fires () =
  match kept_in (fixture_file "e1_taint.ml") with
  | [ f ] ->
      check "rule" true (f.Rules.rule = Rules.E1);
      check_int "at the sink definition" 3 f.Rules.line;
      (* the message names the primitive and the call chain to it *)
      let has = contains f.Rules.message in
      check "names the primitive" true (has "Stdlib.Sys.time");
      check "gives the chain" true (has "fingerprint_run -> now")
  | fs -> Alcotest.failf "expected one E1, got [%s]" (summarize fs)

let test_e1_seed_cut_by_inline_suppression () =
  (* the D1 site in e1_sup.ml carries a justified directive, so the
     taint never seeds: no finding, not even a suppressed one *)
  check_str "no kept" "" (summarize (kept_in (fixture_file "e1_sup.ml")));
  check_str "no suppressed" ""
    (summarize (suppressed_in (fixture_file "e1_sup.ml")))

let test_e2_fires () =
  (* E3 co-fires: an unguarded write is also an empty-lockset write *)
  check_str "unguarded spawn-reachable mutation" "E2:4;E3:4"
    (summarize (kept_in (fixture_file "e2_spawn.ml")))

let test_e2_readonly () =
  (* the case E3 does not cover: E3 intersects accesses from the
     spawn-reachable region only, and the one write is outside it *)
  check_str "spawn-reachable read, write outside the region" "E2:4"
    (summarize (kept_in (fixture_file "e2_readonly.ml")))

let test_e2_guarded_clean () =
  check_str "no kept" "" (summarize (kept_in (fixture_file "e2_guarded.ml")));
  check_str "no suppressed" ""
    (summarize (suppressed_in (fixture_file "e2_guarded.ml")))

let test_e2_suppressed () =
  (* one comma-list directive silences both rules at the mutation *)
  check_str "no kept" "" (summarize (kept_in (fixture_file "e2_sup.ml")));
  check_str "suppressed at the mutation" "E2:7;E3:7"
    (summarize (suppressed_in (fixture_file "e2_sup.ml")))

let test_e3_unlocked () =
  check_str "never-locked write" "E2:4;E3:4"
    (summarize (kept_in (fixture_file "e3_unlocked.ml")))

let test_e3_twolocks () =
  (* every access is guarded (E2 silent) but under different mutexes *)
  match kept_in (fixture_file "e3_twolocks.ml") with
  | [ f ] ->
      check "rule" true (f.Rules.rule = Rules.E3);
      let has = contains f.Rules.message in
      check "empty intersection called out" true (has "no common mutex");
      check "names first lock" true (has "lock_a");
      check "names second lock" true (has "lock_b");
      check "gives both paths" true (has "(path: ")
  | fs -> Alcotest.failf "expected one E3, got [%s]" (summarize fs)

let test_e3_atomic_clean () =
  check_str "Atomic.t cell is a guard" ""
    (summarize (kept_in (fixture_file "e3_atomic.ml")))

let test_e3_dls_clean () =
  check_str "DLS cell is domain-local" ""
    (summarize (kept_in (fixture_file "e3_dls.ml")))

let test_e3_escape () =
  (* the engine fuel-cell shape: DLS cell leaked through an accessor,
     written cross-domain through a registry handle *)
  match kept_in (fixture_file "e3_escape.ml") with
  | [ f ] ->
      check "rule" true (f.Rules.rule = Rules.E3);
      let has = contains f.Rules.message in
      check "names the leaking accessor" true (has "current_fuel_cell");
      check "escaped-cell wording" true (has "escaped mutable cell");
      check "suggests the fix" true (has "Atomic.t")
  | fs -> Alcotest.failf "expected one escape E3, got [%s]" (summarize fs)

let test_e3_baselinable () =
  let file = fixture_file "e3_twolocks.ml" in
  let baseline =
    match Baseline.of_string ("E3 " ^ file ^ " 1") with
    | Ok b -> b
    | Error m -> Alcotest.failf "baseline rejected: %s" m
  in
  let actionable, baselined, stale = Baseline.apply baseline (kept_in file) in
  check_str "absorbed" "" (summarize actionable);
  check_int "baselined one E3" 1 (List.length baselined);
  check "no stale" true (stale = [])

let test_e4_checkact () =
  match kept_in (fixture_file "e4_checkact.ml") with
  | [ f ] ->
      check "rule" true (f.Rules.rule = Rules.E4);
      check_int "at the dependent write" 12 f.Rules.line;
      check "check-then-act wording" true
        (contains f.Rules.message "check-then-act")
  | fs -> Alcotest.failf "expected one E4, got [%s]" (summarize fs)

let test_e4_get_then_set () =
  match kept_in (fixture_file "e4_atomic.ml") with
  | [ f ] ->
      check "rule" true (f.Rules.rule = Rules.E4);
      check_int "at the Atomic.set" 7 f.Rules.line;
      check "suggests RMW primitives" true
        (contains f.Rules.message "compare_and_set")
  | fs -> Alcotest.failf "expected one E4, got [%s]" (summarize fs)

let test_e4_cas_clean () =
  check_str "compare_and_set loop is the fix, not a finding" ""
    (summarize (kept_in (fixture_file "e4_cas.ml")))

(* A fresh, private cache directory per test: concurrent test runs
   (two checkouts, say) must not share one. *)
let with_cache_dir f =
  let dir = Filename.temp_file "lbclint-cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f -> Sys.remove (Filename.concat dir f))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let cached_run dir =
  Deep.run ~cache_dir:dir ~build_dirs:[ fixture_dir ] ~source_root ()

let test_cache_warm_identical () =
  (* cold run stores, warm run hits everything and reproduces the exact
     same findings *)
  with_cache_dir (fun dir ->
      let cold = cached_run dir in
      let warm = cached_run dir in
      check "cold run misses" true (cold.Deep.cache_misses > 0);
      check_int "cold run has no hits" 0 cold.Deep.cache_hits;
      check "warm run hits" true (warm.Deep.cache_hits > 0);
      check_int "warm run misses nothing" 0 warm.Deep.cache_misses;
      check "identical kept findings" true (cold.Deep.kept = warm.Deep.kept);
      check "identical suppressed findings" true
        (cold.Deep.suppressed = warm.Deep.suppressed);
      check_int "same unit count" cold.Deep.units warm.Deep.units)

(* Flip bytes in the tail of every cached summary: the last 16 bytes of
   a file always lie in its marshalled payload. Unmarshalling such bytes
   can crash the process, so the cache must reject them unread: every
   unit misses and the findings equal the cold run's. *)
let test_cache_corrupt_is_miss () =
  with_cache_dir (fun dir ->
      let cold = cached_run dir in
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          let b =
            Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
          in
          let n = Bytes.length b in
          List.iter
            (fun back ->
              Bytes.set b (n - back)
                (Char.chr (Char.code (Bytes.get b (n - back)) lxor 0xa5)))
            [ 1; 4; 9; 16 ];
          (* a new file rather than an in-place overwrite, which on ext4
             makes the later unlink wait for a flush *)
          Sys.remove path;
          Out_channel.with_open_bin path (fun oc -> output_bytes oc b))
        (Sys.readdir dir);
      let warm = cached_run dir in
      check_int "no hits" 0 warm.Deep.cache_hits;
      check_int "every unit misses" cold.Deep.cache_misses
        warm.Deep.cache_misses;
      check "identical kept findings" true (cold.Deep.kept = warm.Deep.kept);
      check "identical suppressed findings" true
        (cold.Deep.suppressed = warm.Deep.suppressed))

let test_m1_fires () =
  check_str "unicast outside sanctioned dirs" "M1:3"
    (summarize (kept_in (fixture_file "m1_unicast.ml")))

let test_m1_suppressed () =
  check_str "no kept" "" (summarize (kept_in (fixture_file "m1_sup.ml")));
  check_str "suppressed" "M1:4"
    (summarize (suppressed_in (fixture_file "m1_sup.ml")))

let test_x1_dead_vs_used () =
  (* [dead] has no user outside its unit; [used] is referenced from the
     lbc_deepfix_user library and must stay alive *)
  match kept_in (fixture_file "x1_dead.mli") with
  | [ f ] ->
      check "rule" true (f.Rules.rule = Rules.X1);
      check_int "flags [dead] only" 4 f.Rules.line
  | fs -> Alcotest.failf "expected one X1, got [%s]" (summarize fs)

let test_x1_alias_chain () =
  (* [chained] (line 5) is used only as [X1.chained], where
     [module Deepfix = Lbc_deepfix] and [module X1 = Deepfix.X1_dead] *)
  check "no X1 on a use through an alias of an alias" false
    (List.exists
       (fun (f : Rules.finding) -> f.Rules.line = 5)
       (kept_in (fixture_file "x1_dead.mli")))

let test_x1_let_module () =
  (* [via_let_module] (line 6) is used only as [M.via_let_module], inside
     [let module M = Lbc_deepfix.X1_dead in ...] *)
  check "no X1 on a use through a let-module alias" false
    (List.exists
       (fun (f : Rules.finding) -> f.Rules.line = 6)
       (kept_in (fixture_file "x1_dead.mli")))

let test_deep_rules_baselinable () =
  (* an E1 finding can be grandfathered via the baseline machinery *)
  let baseline =
    match Baseline.of_string ("E1 " ^ fixture_file "e1_taint.ml" ^ " 1") with
    | Ok b -> b
    | Error m -> Alcotest.failf "baseline rejected: %s" m
  in
  let actionable, baselined, stale =
    Baseline.apply baseline (kept_in (fixture_file "e1_taint.ml"))
  in
  check_str "absorbed" "" (summarize actionable);
  check_str "baselined" "E1:3" (summarize baselined);
  check "no stale" true (stale = [])

let test_x1_does_not_gate () =
  (* X1 is advisory: an outcome whose only findings are X1 exits 0 *)
  check "X1 non-gating" true (not (Rules.gating Rules.X1));
  List.iter
    (fun r -> check (Rules.id r ^ " gates") true (Rules.gating r))
    [ Rules.E1; Rules.E2; Rules.M1 ];
  let x1_only =
    {
      Driver.files = 0;
      actionable = kept_in (fixture_file "x1_dead.mli");
      suppressed = [];
      baselined = [];
      stale = [];
      errors = [];
      deep = None;
    }
  in
  check_int "exit 0 on X1-only outcome" 0 (Driver.exit_code x1_only);
  let with_m1 =
    { x1_only with Driver.actionable = kept_in (fixture_file "m1_unicast.ml") }
  in
  check_int "exit 1 on M1" 1 (Driver.exit_code with_m1)

let test_rule_metadata () =
  check "deep rule set" true
    (Rules.deep
    = [ Rules.E1; Rules.E2; Rules.E3; Rules.E4; Rules.M1; Rules.X1 ]);
  List.iter
    (fun r -> check (Rules.id r ^ " described") true (Rules.describe r <> ""))
    Rules.all;
  (* the E1 sink set is the campaign verdict/artifact surface *)
  check "sinks include the artifact unit" true
    (List.mem "Lbc_campaign__Artifact" Lbc_lint.Taint.sink_units)

let test_deep_severities () =
  List.iter
    (fun (r, want) ->
      check_str (Rules.id r ^ " severity") want
        (Rules.severity_string (Rules.severity r)))
    [
      (Rules.E1, "error");
      (Rules.E2, "error");
      (Rules.E3, "error");
      (Rules.E4, "error");
      (Rules.M1, "error");
      (Rules.X1, "warning");
    ]

let () =
  Alcotest.run "deep"
    [
      ( "infrastructure",
        [
          Alcotest.test_case "cmt units load" `Quick test_loads_cleanly;
          Alcotest.test_case "rule metadata" `Quick test_rule_metadata;
          Alcotest.test_case "severities" `Quick test_deep_severities;
          Alcotest.test_case "X1 is advisory" `Quick test_x1_does_not_gate;
          Alcotest.test_case "deep rules baselinable" `Quick
            test_deep_rules_baselinable;
        ] );
      ( "e1",
        [
          Alcotest.test_case "taint reaches fingerprint sink" `Quick
            test_e1_fires;
          Alcotest.test_case "justified primitive cuts the seed" `Quick
            test_e1_seed_cut_by_inline_suppression;
        ] );
      ( "e2",
        [
          Alcotest.test_case "unguarded cross-domain mutation" `Quick
            test_e2_fires;
          Alcotest.test_case "Mutex.protect guards" `Quick
            test_e2_guarded_clean;
          Alcotest.test_case "inline suppression" `Quick test_e2_suppressed;
          Alcotest.test_case "read-only spawned region (E3 silent)" `Quick
            test_e2_readonly;
        ] );
      ( "e3",
        [
          Alcotest.test_case "never-locked write" `Quick test_e3_unlocked;
          Alcotest.test_case "disjoint locksets" `Quick test_e3_twolocks;
          Alcotest.test_case "Atomic.t negative" `Quick test_e3_atomic_clean;
          Alcotest.test_case "DLS negative" `Quick test_e3_dls_clean;
          Alcotest.test_case "escaped fuel-cell shape" `Quick test_e3_escape;
          Alcotest.test_case "baselinable" `Quick test_e3_baselinable;
        ] );
      ( "e4",
        [
          Alcotest.test_case "released-lock check-then-act" `Quick
            test_e4_checkact;
          Alcotest.test_case "Atomic get-then-set" `Quick test_e4_get_then_set;
          Alcotest.test_case "compare_and_set negative" `Quick
            test_e4_cas_clean;
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm run identical to cold" `Quick
            test_cache_warm_identical;
          Alcotest.test_case "corrupt summaries are misses" `Quick
            test_cache_corrupt_is_miss;
        ] );
      ( "m1",
        [
          Alcotest.test_case "unicast outside adversary" `Quick test_m1_fires;
          Alcotest.test_case "inline suppression" `Quick test_m1_suppressed;
        ] );
      ( "x1",
        [
          Alcotest.test_case "dead vs used export" `Quick test_x1_dead_vs_used;
          Alcotest.test_case "use through an alias chain" `Quick
            test_x1_alias_chain;
          Alcotest.test_case "let-module alias" `Quick test_x1_let_module;
        ] );
    ]
