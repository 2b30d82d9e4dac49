(* Tests for lib/campaign: JSON printing/parsing, grid enumeration and
   sharding (the qcheck partition property), the domain pool, artifact
   round-trips, and the determinism / resume contracts of the runner. *)

module C = Lbc_campaign
module J = C.Jsonio
module Scenario = C.Scenario
module Grid = C.Grid
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module S = Lbc_adversary.Strategy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Jsonio                                                              *)
(* ------------------------------------------------------------------ *)

let test_json_print () =
  let v =
    J.Obj
      [
        ("a", J.Int 1);
        ("b", J.List [ J.Bool true; J.Null; J.Str "x\"y\n" ]);
        ("c", J.Float 0.5);
      ]
  in
  check_str "deterministic rendering"
    "{\"a\":1,\"b\":[true,null,\"x\\\"y\\n\"],\"c\":0.5}" (J.to_string v)

let test_json_roundtrip () =
  let values =
    [
      J.Null;
      J.Bool false;
      J.Int (-42);
      J.Int max_int;
      J.Float 3.25;
      J.Str "";
      J.Str "tab\there \\ quote\" slash/";
      J.List [];
      J.Obj [];
      J.Obj [ ("k", J.List [ J.Int 1; J.Obj [ ("n", J.Null) ] ]) ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' -> check ("roundtrip " ^ J.to_string v) true (v = v')
      | Error e -> Alcotest.failf "parse error on %s: %s" (J.to_string v) e)
    values

let test_json_parse () =
  (match J.of_string " { \"a\" : [ 1 , 2.5 , \"\\u0041\\n\" ] } " with
  | Ok (J.Obj [ ("a", J.List [ J.Int 1; J.Float f; J.Str s ]) ]) ->
      check "float" true (f = 2.5);
      check_str "unicode escape decoded" "A\n" s
  | Ok j -> Alcotest.failf "unexpected parse: %s" (J.to_string j)
  | Error e -> Alcotest.failf "parse error: %s" e);
  check "trailing garbage rejected" true
    (Result.is_error (J.of_string "[1] x"));
  check "unterminated string rejected" true
    (Result.is_error (J.of_string "\"abc"));
  check "bare word rejected" true (Result.is_error (J.of_string "flurb"))

(* ------------------------------------------------------------------ *)
(* Scenario ids and seeds                                              *)
(* ------------------------------------------------------------------ *)

let scenario ?(strategy = S.Flip_forwards) ?(faulty = Nodeset.singleton 2)
    ?(inputs = [| Bit.Zero; Bit.Zero; Bit.One; Bit.Zero; Bit.Zero |]) () =
  Scenario.make ~gname:"cycle:5" ~build:(fun () -> B.cycle 5) ~algo:Scenario.A1
    ~f:1 ~faulty ~strategy ~inputs ()

let test_scenario_id () =
  check_str "canonical id" "a1|cycle:5|f=1|faulty=2|s=flip-forwards|in=00100"
    (Scenario.id (scenario ()));
  check "id depends on content" true
    (Scenario.id (scenario ()) <> Scenario.id (scenario ~strategy:S.Lie ()))

let test_scenario_seed () =
  let s = scenario () in
  check "seed stable" true
    (Scenario.scenario_seed ~base:7 s = Scenario.scenario_seed ~base:7 s);
  check "seed varies with base" true
    (Scenario.scenario_seed ~base:0 s <> Scenario.scenario_seed ~base:1 s);
  check "seed varies with content" true
    (Scenario.scenario_seed ~base:0 s
    <> Scenario.scenario_seed ~base:0 (scenario ~strategy:S.Lie ()));
  check "seed non-negative" true (Scenario.scenario_seed ~base:(-3) s >= 0)

let test_verdict_roundtrip () =
  let v = Scenario.execute ~base_seed:0 ~index:5 (scenario ()) in
  (match Scenario.verdict_of_json (Scenario.verdict_to_json v) with
  | Ok v' -> check "verdict roundtrip" true (v = v')
  | Error e -> Alcotest.failf "verdict parse: %s" e);
  check "a1 on cycle5 f=1 is ok" true v.Scenario.ok;
  check "no counterexample when ok" true (v.Scenario.counterexample = None)

let test_failing_verdict_counterexample () =
  (* f=2 on the 5-cycle violates the condition: expect a counterexample
     carrying a reproduction command. *)
  let s =
    Scenario.make ~gname:"cycle:5"
      ~build:(fun () -> B.cycle 5)
      ~algo:Scenario.A1 ~f:2
      ~faulty:(Nodeset.of_list [ 1; 2 ])
      ~strategy:S.Lie
      ~inputs:[| Bit.One; Bit.Zero; Bit.Zero; Bit.One; Bit.One |]
      ()
  in
  let v = Scenario.execute ~base_seed:0 ~index:0 s in
  if not v.Scenario.ok then begin
    match v.Scenario.counterexample with
    | None -> Alcotest.fail "failing verdict lacks counterexample"
    | Some c ->
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        check "repro command embedded" true (contains "lbcast run" c);
        (* roundtrip with the optional field present *)
        match Scenario.verdict_of_json (Scenario.verdict_to_json v) with
        | Ok v' -> check "failing verdict roundtrip" true (v = v')
        | Error e -> Alcotest.failf "verdict parse: %s" e
  end

(* ------------------------------------------------------------------ *)
(* Grid: qcheck partition property                                     *)
(* ------------------------------------------------------------------ *)

(* Build a small grid from three integers, exercising multiple graphs,
   algorithms and strategy subsets. *)
let grid_of_ints (n, mask, extra) =
  let strategies =
    List.filteri
      (fun i _ -> (mask lsr i) land 1 = 1)
      [ S.Flip_forwards; S.Lie; S.Silent ]
  in
  let strategies = if strategies = [] then [ S.Flip_forwards ] else strategies in
  let algos =
    if extra land 1 = 1 then [ Scenario.A1; Scenario.A2 ] else [ Scenario.A2 ]
  in
  Grid.product ~name:"prop"
    ~graphs:
      (( Printf.sprintf "cycle:%d" n, 1, fun () -> B.cycle n )
      ::
      (if extra land 2 = 2 then [ ("fig1a", 1, B.fig1a) ] else []))
    ~algos ~placements:Grid.singleton_placements ~strategies
    ~inputs:Grid.unanimous_inputs ()

let prop_sharding_is_partition =
  QCheck.Test.make ~name:"sharding partitions the enumeration" ~count:60
    QCheck.(
      triple (int_range 4 8) (int_range 0 7)
        (pair (int_range 0 3) (int_range 1 23)))
    (fun (n, mask, (extra, shard_size)) ->
      let grid = grid_of_ints (n, mask, extra) in
      let scenarios = Grid.to_array grid in
      let ids = Array.map Scenario.id scenarios in
      (* ids stable across independent enumerations *)
      let ids2 = Array.map Scenario.id (Grid.to_array grid) in
      if ids <> ids2 then QCheck.Test.fail_report "enumeration not stable";
      (* no duplicate ids within the enumeration *)
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun id ->
          if Hashtbl.mem seen id then
            QCheck.Test.fail_reportf "duplicate id %s" id;
          Hashtbl.add seen id ())
        ids;
      (* union of shards = full enumeration, in order, no overlap *)
      let shards = Grid.shards ~shard_size scenarios in
      let reassembled =
        Array.concat (Array.to_list (Array.map snd shards))
      in
      if Array.map Scenario.id reassembled <> ids then
        QCheck.Test.fail_report "shards do not reassemble the enumeration";
      (* shard indices are 0..k-1 in order; sizes are shard_size except
         possibly the last, which is non-empty *)
      Array.iteri
        (fun i (idx, chunk) ->
          if idx <> i then QCheck.Test.fail_report "shard index mismatch";
          let expected =
            if i < Array.length shards - 1 then shard_size
            else Array.length scenarios - (i * shard_size)
          in
          if Array.length chunk <> expected then
            QCheck.Test.fail_report "shard size mismatch")
        shards;
      (* fingerprint is a function of the ordered ids *)
      Grid.fingerprint scenarios = Grid.fingerprint (Grid.to_array grid))

let test_shards_reject_bad_size () =
  check "shard_size 0 rejected" true
    (match Grid.shards ~shard_size:0 [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_fingerprint_order_sensitive () =
  let a = Grid.to_array (grid_of_ints (5, 3, 1)) in
  let rev = Array.of_list (List.rev (Array.to_list a)) in
  check "reversal changes fingerprint" true
    (Grid.fingerprint a <> Grid.fingerprint rev)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_executes_all () =
  List.iter
    (fun domains ->
      let n = 53 in
      let hits = Array.make n 0 in
      let m = Mutex.create () in
      C.Pool.run ~domains
        ~tasks:(Array.init n (fun i -> i))
        (fun i ->
          Mutex.lock m;
          hits.(i) <- hits.(i) + 1;
          Mutex.unlock m);
      check
        (Printf.sprintf "every task ran exactly once (domains=%d)" domains)
        true
        (Array.for_all (( = ) 1) hits))
    [ 1; 2; 4 ]

(* Regression: the pool used to re-raise the bare scenario exception,
   losing which task crashed. [Task_failed] now carries the task index,
   the caller's description and the original message. *)
let test_pool_propagates_exception () =
  List.iter
    (fun domains ->
      match
        C.Pool.run ~domains
          ~describe:(fun i _ -> Printf.sprintf "task-%d" i)
          ~tasks:(Array.init 20 (fun i -> i))
          (fun i -> if i = 7 then failwith "boom")
      with
      | () -> Alcotest.fail "expected Task_failed"
      | exception C.Pool.Task_failed fl ->
          check_int
            (Printf.sprintf "failing task identified (domains=%d)" domains)
            7 fl.C.Pool.index;
          check_str "description carried" "task-7" fl.C.Pool.description;
          check "original message carried" true
            (fl.C.Pool.message = "Failure(\"boom\")");
          check_int "single attempt" 1 fl.C.Pool.attempts)
    (* domains=1 exercises the former fast path, which used to bypass
       exception capture entirely; it must behave like the worker path. *)
    [ 1; 3 ]

let test_pool_contained_quarantines_after_retry () =
  let attempts = Atomic.make 0 in
  let ran = Array.make 10 false in
  let failures =
    C.Pool.run_contained ~domains:2
      ~describe:(fun i _ -> Printf.sprintf "task-%d" i)
      ~tasks:(Array.init 10 (fun i -> i))
      (fun i ->
        if i = 3 then begin
          Atomic.incr attempts;
          failwith "deterministic"
        end
        else ran.(i) <- true)
  in
  (match failures with
  | [ fl ] ->
      check_int "failed task index" 3 fl.C.Pool.index;
      check_int "retried once" 2 fl.C.Pool.attempts;
      check_str "description names the task" "task-3" fl.C.Pool.description
  | fls -> Alcotest.failf "expected 1 failure, got %d" (List.length fls));
  check_int "both attempts executed" 2 (Atomic.get attempts);
  check "all other tasks completed" true
    (Array.for_all Fun.id (Array.init 10 (fun i -> i = 3 || ran.(i))))

let test_pool_contained_retry_heals_transient () =
  let first = Atomic.make true in
  let failures =
    C.Pool.run_contained ~domains:1
      ~tasks:(Array.init 5 (fun i -> i))
      (fun i ->
        if i = 2 && Atomic.exchange first false then failwith "transient")
  in
  check_int "transient failure healed silently" 0 (List.length failures)

(* Satellite regression: a quarantine after a transient-then-different
   failure must surface both attempts' messages, not just the last. *)
let test_pool_contained_records_prior_messages () =
  let first = Atomic.make true in
  let failures =
    C.Pool.run_contained ~domains:1
      ~tasks:(Array.init 4 (fun i -> i))
      (fun i ->
        if i = 1 then
          if Atomic.exchange first false then failwith "transient I/O"
          else failwith "persistent")
  in
  match failures with
  | [ fl ] ->
      check_str "final message" "Failure(\"persistent\")" fl.C.Pool.message;
      check "first attempt's message kept" true
        (fl.C.Pool.prior_messages = [ "Failure(\"transient I/O\")" ]);
      check_int "two attempts" 2 fl.C.Pool.attempts
  | fls -> Alcotest.failf "expected 1 failure, got %d" (List.length fls)

let test_stealing_executes_all () =
  List.iter
    (fun (domains, steal) ->
      let n = 47 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let report, failures =
        C.Pool.run_stealing ~steal ~domains
          ~tasks:(Array.init n (fun i -> i))
          (fun pos i ->
            check_int "position matches task" i pos;
            Atomic.incr hits.(i))
      in
      check
        (Printf.sprintf "exactly once (domains=%d steal=%b)" domains steal)
        true
        (Array.for_all (fun h -> Atomic.get h = 1) hits);
      check_int "no failures" 0 (List.length failures);
      if not steal then
        check_int "contiguous baseline never steals" 0 report.C.Pool.steals)
    [ (1, true); (4, true); (1, false); (4, false) ]

(* Satellite property: the stealing pool under contention — random task
   counts, domain counts, deterministic failure sets and an optional
   poison (fatal) task. Must never deadlock (the test completing is the
   assertion), must run every task at most retries+1 and — absent poison
   — non-failing tasks exactly once, and must report failures sorted by
   task index with the earlier attempt's message preserved. *)
exception Poison

let prop_stealing_poison_and_exactly_once =
  QCheck.Test.make
    ~name:"stealing pool: poison broadcast, exactly-once, sorted failures"
    ~count:40
    QCheck.(
      triple (int_range 1 60) (int_range 1 6) (pair (int_range 0 63) bool))
    (fun (n, domains, (mask, poison)) ->
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let fails i = (mask lsr (i mod 6)) land 1 = 1 in
      let poison_at = if poison then Some (n / 2) else None in
      let f _pos i =
        Atomic.incr hits.(i);
        if poison_at = Some i then raise Poison;
        if fails i then failwith "task failure"
      in
      match
        C.Pool.run_stealing ~seed:mask ~retries:1 ~backoff_s:(0.0001, 0.001)
          ~fatal:(function Poison -> true | _ -> false)
          ~domains
          ~tasks:(Array.init n (fun i -> i))
          f
      with
      | exception Poison ->
          (* the fatal exception was broadcast: the pool unwound (we got
             here), and no task ran beyond its retry allowance *)
          poison_at <> None
          && Array.for_all (fun h -> Atomic.get h <= 2) hits
      | _report, failures ->
          poison_at = None
          && List.map (fun (fl : C.Pool.failure) -> fl.C.Pool.index) failures
             = List.filter fails (List.init n Fun.id)
          && List.for_all
               (fun (fl : C.Pool.failure) ->
                 fl.C.Pool.attempts = 2
                 && fl.C.Pool.prior_messages
                    = [ "Failure(\"task failure\")" ])
               failures
          && List.for_all
               (fun i -> Atomic.get hits.(i) = if fails i then 2 else 1)
               (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Runner: determinism, artifacts, journal/resume                      *)
(* ------------------------------------------------------------------ *)

let small_grid () = grid_of_ints (5, 7, 3)

let config ?(domains = 1) ?journal ?cache ?stop_after ?max_rounds
    ?(strict = false) ?(steal = true) ?kill () =
  {
    C.Runner.default with
    C.Runner.domains;
    journal;
    cache;
    stop_after;
    max_rounds;
    strict;
    steal;
    kill_after_verdicts = kill;
  }

let test_runner_deterministic_across_domains () =
  let a1 = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
  let a3 = C.Runner.run_exn ~config:(config ~domains:3 ()) (small_grid ()) in
  check_str "byte-identical modulo run section"
    (C.Artifact.deterministic_string a1)
    (C.Artifact.deterministic_string a3);
  check_int "run section records domains" 3 a3.C.Artifact.run.C.Artifact.domains;
  let s = C.Artifact.summarize a1 in
  check_int "all scenarios ok" s.C.Artifact.total s.C.Artifact.ok

let test_artifact_roundtrip () =
  let a = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
  (match C.Artifact.of_string (C.Artifact.to_string a) with
  | Ok a' ->
      check_str "deterministic part survives"
        (C.Artifact.deterministic_string a)
        (C.Artifact.deterministic_string a');
      check_int "resumed count survives"
        a.C.Artifact.run.C.Artifact.resumed_scenarios
        a'.C.Artifact.run.C.Artifact.resumed_scenarios
  | Error e -> Alcotest.failf "artifact parse: %s" e);
  (match C.Artifact.of_string (C.Artifact.deterministic_string a) with
  | Ok a' ->
      check_int "run section optional (zeroed)" 0
        a'.C.Artifact.run.C.Artifact.domains
  | Error e -> Alcotest.failf "deterministic-part parse: %s" e);
  check "version mismatch rejected" true
    (Result.is_error
       (C.Artifact.of_string "{\"format\":\"lbc-campaign/999\",\"campaign\":\"x\"}"))

let test_artifact_save_load () =
  let a = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
  let path = Filename.temp_file "lbc-artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      C.Artifact.save ~path a;
      match C.Artifact.load ~path with
      | Ok a' ->
          check_str "save/load identity"
            (C.Artifact.deterministic_string a)
            (C.Artifact.deterministic_string a')
      | Error e -> Alcotest.failf "load: %s" e)

let test_resume_matches_uninterrupted () =
  let path = Filename.temp_file "lbc-journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let baseline = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
      (* interrupt deterministically after 2 scenarios *)
      (match
         C.Runner.run
           ~config:(config ~journal:path ~stop_after:2 ())
           (small_grid ())
       with
      | C.Runner.Partial { completed; total; _ } ->
          check "partial progress" true (completed = 2 && total > 2)
      | C.Runner.Complete _ -> Alcotest.fail "expected Partial");
      check "journal file exists while incomplete" true (Sys.file_exists path);
      (* resume with a different domain count *)
      match
        C.Runner.run ~config:(config ~domains:2 ~journal:path ()) (small_grid ())
      with
      | C.Runner.Partial _ -> Alcotest.fail "expected Complete"
      | C.Runner.Complete resumed ->
          check_str "resumed = uninterrupted"
            (C.Artifact.deterministic_string baseline)
            (C.Artifact.deterministic_string resumed);
          check "resumed scenarios recorded" true
            (resumed.C.Artifact.run.C.Artifact.resumed_scenarios = 2);
          check_int "recovery reports the adopted records" 2
            resumed.C.Artifact.run.C.Artifact.recovery
              .C.Artifact.recovered_records;
          check "journal removed on completion" false (Sys.file_exists path))

let test_journal_header_mismatch_discards () =
  let path = Filename.temp_file "lbc-journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* leave a partial journal for the small grid... *)
      (match
         C.Runner.run
           ~config:(config ~journal:path ~stop_after:1 ())
           (small_grid ())
       with
      | C.Runner.Partial _ -> ()
      | C.Runner.Complete _ -> Alcotest.fail "expected Partial");
      (* ...then run a different grid against the same path: the stale
         file must be discarded, not mixed in. *)
      let other = grid_of_ints (6, 1, 0) in
      let baseline = C.Runner.run_exn ~config:(config ()) (grid_of_ints (6, 1, 0)) in
      match C.Runner.run ~config:(config ~journal:path ()) other with
      | C.Runner.Partial _ -> Alcotest.fail "expected Complete"
      | C.Runner.Complete a ->
          check_int "no stale scenarios resumed" 0
            a.C.Artifact.run.C.Artifact.resumed_scenarios;
          check_str "result matches fresh run"
            (C.Artifact.deterministic_string baseline)
            (C.Artifact.deterministic_string a))

let test_corrupt_journal_tail_truncated () =
  let path = Filename.temp_file "lbc-journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match
         C.Runner.run
           ~config:(config ~journal:path ~stop_after:2 ())
           (small_grid ())
       with
      | C.Runner.Partial _ -> ()
      | C.Runner.Complete _ -> Alcotest.fail "expected Partial");
      (* simulate a kill mid-append: garbage bytes after the last intact
         frame — the scan must reject them (absurd length prefix) and
         truncate *)
      let garbage = "{\"scenario\":2,\"verd" in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc garbage;
      close_out oc;
      let baseline = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
      match C.Runner.run ~config:(config ~journal:path ()) (small_grid ()) with
      | C.Runner.Partial _ -> Alcotest.fail "expected Complete"
      | C.Runner.Complete a ->
          check "intact records still resumed" true
            (a.C.Artifact.run.C.Artifact.resumed_scenarios = 2);
          let rc = a.C.Artifact.run.C.Artifact.recovery in
          (* exactly the garbage bytes are counted dropped, and the
             damage is located at the first corrupt record ordinal *)
          check_int "dropped bytes surfaced" (String.length garbage)
            rc.C.Artifact.dropped_bytes;
          check "first corrupt record named" true
            (rc.C.Artifact.first_corrupt_record = Some 3);
          check_str "corrupt tail ignored, result intact"
            (C.Artifact.deterministic_string baseline)
            (C.Artifact.deterministic_string a))

(* A raising progress callback used to leave the sink mutex locked,
   deadlocking every other worker. Now the callback runs outside the
   lock, the failing scenario's first attempt records its result before
   the callback fires, and the retry finds the result recorded — so the
   campaign self-heals to [Complete] with no scenario lost and the
   callback not replayed. A regressed implementation hangs here. *)
let test_raising_progress_callback_self_heals () =
  let calls = Atomic.make 0 in
  let cfg =
    {
      (config ~domains:4 ()) with
      C.Runner.progress =
        Some
          (fun ~done_scenarios:_ ~total:_ ->
            if Atomic.fetch_and_add calls 1 = 0 then failwith "progress boom");
    }
  in
  (match C.Runner.run ~config:cfg (small_grid ()) with
  | C.Runner.Partial _ -> Alcotest.fail "expected Complete"
  | C.Runner.Complete a ->
      let s = C.Artifact.summarize a in
      check_int "no scenario lost" s.C.Artifact.total s.C.Artifact.ok;
      check_int "no quarantine for a post-record failure" 0
        (List.length a.C.Artifact.quarantined));
  check "callback was invoked" true (Atomic.get calls >= 1)

(* Satellite regression: a grid containing a deliberately-raising
   scenario (Equivocate is per-neighbour unicast, illegal under the pure
   local broadcast model — Algorithm 1 hits [Engine.Model_violation]). *)
let raising_scenario () =
  Scenario.make ~gname:"cycle:5"
    ~build:(fun () -> B.cycle 5)
    ~algo:Scenario.A1 ~f:1 ~faulty:(Nodeset.singleton 2)
    ~strategy:S.Equivocate
    ~inputs:[| Bit.One; Bit.One; Bit.Zero; Bit.One; Bit.One |]
    ()

let mixed_grid () =
  Grid.append ~name:"mixed"
    [ small_grid (); Grid.of_list ~name:"raising" [ raising_scenario () ] ]

let test_crashed_scenario_contained () =
  List.iter
    (fun domains ->
      match C.Runner.run ~config:(config ~domains ()) (mixed_grid ()) with
      | C.Runner.Partial _ -> Alcotest.fail "expected Complete"
      | C.Runner.Complete a ->
          let s = C.Artifact.summarize a in
          check_int "one crashed verdict" 1 s.C.Artifact.crashed;
          check_int "everything else checked ok" (s.C.Artifact.total - 1)
            s.C.Artifact.ok;
          let crashed =
            Array.to_list a.C.Artifact.verdicts
            |> List.filter (fun (v : Scenario.verdict) ->
                   match v.Scenario.status with
                   | Scenario.Crashed _ -> true
                   | _ -> false)
          in
          match crashed with
          | [ v ] -> (
              check_str "crashed verdict names the scenario"
                (Scenario.id (raising_scenario ()))
                v.Scenario.id;
              match v.Scenario.status with
              | Scenario.Crashed { exn; repro; _ } ->
                  let contains needle hay =
                    let nl = String.length needle and hl = String.length hay in
                    let rec go i =
                      i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
                    in
                    go 0
                  in
                  check "exception recorded" true
                    (contains "Model_violation" exn || exn <> "");
                  check "repro command recorded" true (contains "lbcast run" repro)
              | _ -> assert false)
          | vs -> Alcotest.failf "expected 1 crashed verdict, got %d" (List.length vs))
    [ 1; 4 ]

let test_strict_mode_reports_scenario_id () =
  match
    C.Runner.run ~config:(config ~strict:true ()) (mixed_grid ())
  with
  | exception C.Pool.Task_failed fl ->
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i =
          i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
        in
        go 0
      in
      check "failure message names the scenario id" true
        (contains (Scenario.id (raising_scenario ())) fl.C.Pool.message);
      check "description names the scenario" true
        (contains "scenario" fl.C.Pool.description)
  | _ -> Alcotest.fail "strict mode must poison the pool"

let test_max_rounds_times_out () =
  (* A1 on the Petersen graph needs 110 rounds; a 60-round budget must
     yield a timeout verdict, not a hang or a crash. *)
  let slow =
    Scenario.make ~gname:"petersen" ~build:B.petersen ~algo:Scenario.A1 ~f:1
      ~faulty:(Nodeset.singleton 3) ~strategy:S.Flip_forwards
      ~inputs:(Array.make 10 Bit.One) ()
  in
  let grid = Grid.of_list ~name:"slow" [ slow ] in
  match C.Runner.run ~config:(config ~max_rounds:60 ()) grid with
  | C.Runner.Partial _ -> Alcotest.fail "expected Complete"
  | C.Runner.Complete a -> (
      let s = C.Artifact.summarize a in
      check_int "one timeout" 1 s.C.Artifact.timeouts;
      check_int "no crash" 0 s.C.Artifact.crashed;
      match a.C.Artifact.verdicts.(0).Scenario.status with
      | Scenario.Timed_out { budget } -> check_int "budget recorded" 60 budget
      | _ -> Alcotest.fail "expected Timed_out status");
      (* Unbudgeted, the same scenario checks out fine. *)
      let a' = C.Runner.run_exn ~config:(config ()) grid in
      check_int "no budget, no timeout" 0
        (C.Artifact.summarize a').C.Artifact.timeouts

(* Satellite property: failure verdicts obey the determinism contract —
   an artifact containing crashed and timed-out verdicts is still
   byte-identical across domain counts. *)
let test_failure_verdicts_deterministic_across_domains () =
  let run domains =
    C.Runner.run_exn
      ~config:(config ~domains ~max_rounds:60 ())
      (Grid.append ~name:"mixed-budget"
         [
           mixed_grid ();
           Grid.of_list ~name:"slow"
             [
               Scenario.make ~gname:"petersen" ~build:B.petersen
                 ~algo:Scenario.A1 ~f:1 ~faulty:(Nodeset.singleton 3)
                 ~strategy:S.Flip_forwards
                 ~inputs:(Array.make 10 Bit.One) ();
             ];
         ])
  in
  check_str "crashed/timeout verdicts byte-identical across domains"
    (C.Artifact.deterministic_string (run 1))
    (C.Artifact.deterministic_string (run 4))

let test_wall_s_clamped_on_parse () =
  let a = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
  let negated =
    {
      a with
      C.Artifact.run =
        {
          a.C.Artifact.run with
          C.Artifact.wall_s = -5.0;
          slowest = [ (0, -1.0); (1, 0.25) ];
        };
    }
  in
  match C.Artifact.of_string (C.Artifact.to_string negated) with
  | Error e -> Alcotest.failf "artifact parse: %s" e
  | Ok a' ->
      check "negative wall_s clamped" true
        (a'.C.Artifact.run.C.Artifact.wall_s = 0.0);
      check "negative scenario wall clamped" true
        (List.assoc 0 a'.C.Artifact.run.C.Artifact.slowest = 0.0);
      check "positive scenario wall kept" true
        (List.assoc 1 a'.C.Artifact.run.C.Artifact.slowest = 0.25)

let test_old_artifacts_rejected () =
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun old ->
      match
        C.Artifact.of_string
          (Printf.sprintf
             "{\"format\":%S,\"campaign\":\"old\",\"grid\":{},\"verdicts\":[]}"
             old)
      with
      | Ok _ -> Alcotest.failf "%s artifact must be rejected" old
      | Error msg ->
          check ("error names " ^ old ^ " and the expected version") true
            (contains old msg && contains "lbc-campaign/5" msg))
    [ "lbc-campaign/1"; "lbc-campaign/2"; "lbc-campaign/3"; "lbc-campaign/4" ]

let test_quarantined_section_roundtrip () =
  let a = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
  let a =
    {
      a with
      C.Artifact.quarantined =
        [
          { C.Artifact.index = 1; id = "a1|x"; message = "Stack_overflow" };
          { C.Artifact.index = 3; id = "a2|y"; message = "worker died" };
        ];
    }
  in
  (match C.Artifact.of_string (C.Artifact.to_string a) with
  | Ok a' ->
      check "quarantined entries survive the roundtrip" true
        (a'.C.Artifact.quarantined = a.C.Artifact.quarantined)
  | Error e -> Alcotest.failf "artifact parse: %s" e);
  let s = C.Artifact.summarize a in
  check_int "summary counts quarantined scenarios" 2 s.C.Artifact.quarantined;
  check "quarantine is part of the deterministic portion" true
    (C.Artifact.deterministic_string a
    <> C.Artifact.deterministic_string { a with C.Artifact.quarantined = [] })

let test_sim_stats_percentiles () =
  let a = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
  (* latency-free campaigns expose no sim section at all *)
  check "no sim entries without a network profile" true
    (C.Artifact.sim_stats a = []);
  let fam_id = "a1|cycle:5" in
  let in_family (v : Scenario.verdict) =
    String.length v.Scenario.id >= String.length fam_id
    && String.sub v.Scenario.id 0 (String.length fam_id) = fam_id
  in
  let k =
    Array.fold_left
      (fun acc v -> if in_family v then acc + 1 else acc)
      0 a.C.Artifact.verdicts
  in
  check "family large enough for a mostly-zero median" true (k >= 8);
  (* charge exactly four members of one family: 10, 20, 30, 40 ns *)
  let charged = ref 0 in
  let verdicts =
    Array.map
      (fun (v : Scenario.verdict) ->
        if in_family v && !charged < 4 then (
          incr charged;
          { v with Scenario.sim_ns = !charged * 10 })
        else v)
      a.C.Artifact.verdicts
  in
  match C.Artifact.sim_stats { a with C.Artifact.verdicts } with
  | [ e ] ->
      check_str "only the charged family appears" fam_id
        e.C.Artifact.family;
      check_int "entry counts every checked scenario of the family" k
        e.C.Artifact.scenarios;
      (* sorted samples are k-4 zeros then 10 20 30 40: the nearest-rank
         median lands in the zeros, the p99 on the last sample *)
      check_int "p50 of a mostly-zero family" 0 e.C.Artifact.p50_ns;
      check_int "p99 picks the tail sample" 40 e.C.Artifact.p99_ns;
      check_int "max" 40 e.C.Artifact.max_ns
  | entries ->
      Alcotest.failf "expected one sim entry, got %d" (List.length entries)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_merge () =
  let a = C.Stats.single ~algo:"a2" [ ("x", 2); ("y", 1) ] in
  let b = C.Stats.single ~algo:"a1" [ ("x", 5) ] in
  let c = C.Stats.single ~algo:"a2" [ ("z", 3); ("x", 1) ] in
  let m1 = C.Stats.merge (C.Stats.merge a b) c in
  let m2 = C.Stats.merge c (C.Stats.merge b a) in
  check "merge commutes" true (m1 = m2);
  check_int "buckets sorted and summed" 3 (C.Stats.counter m1 ~algo:"a2" "x");
  check_int "other algo untouched" 5 (C.Stats.counter m1 ~algo:"a1" "x");
  check_int "absent counter is zero" 0 (C.Stats.counter m1 ~algo:"a1" "zzz");
  match C.Stats.of_json (C.Stats.to_json m1) with
  | Ok m' -> check "stats json roundtrip" true (m1 = m')
  | Error e -> Alcotest.failf "stats parse: %s" e

let test_artifact_carries_stats () =
  let a = C.Runner.run_exn ~config:(config ()) (small_grid ()) in
  check "stats nonempty" true (a.C.Artifact.stats <> C.Stats.empty);
  (* every executed scenario lands in exactly one bucket *)
  let folded =
    List.fold_left (fun k (b : C.Stats.algo_stats) -> k + b.C.Stats.scenarios)
      0 a.C.Artifact.stats
  in
  check_int "scenario counts partition" a.C.Artifact.count folded;
  (* the instrumentation actually fired: engine rounds were counted *)
  check "engine counters present" true
    (C.Stats.counter a.C.Artifact.stats ~algo:"a2" "engine.rounds" > 0);
  check "verdict tallies match summary" true
    (C.Stats.counter a.C.Artifact.stats ~algo:"a2" "verdict.tx" > 0)

(* Satellite property: the stats section is byte-identical across domain
   counts — counter aggregation commutes with scheduling. *)
let prop_stats_deterministic_across_domains =
  QCheck.Test.make ~name:"stats byte-identical for domains 1 vs 4" ~count:6
    QCheck.(pair (int_range 4 6) (int_range 0 7))
    (fun (n, mask) ->
      let grid () = grid_of_ints (n, mask, 1) in
      let a1 = C.Runner.run_exn ~config:(config ~domains:1 ()) (grid ()) in
      let a4 = C.Runner.run_exn ~config:(config ~domains:4 ()) (grid ()) in
      C.Jsonio.to_string (C.Stats.to_json a1.C.Artifact.stats)
      = C.Jsonio.to_string (C.Stats.to_json a4.C.Artifact.stats)
      && C.Artifact.deterministic_string a1
         = C.Artifact.deterministic_string a4)

(* Satellite property: with the same chaos seed, perturbation decisions
   are a pure function of (scenario, campaign seed) — never of worker
   scheduling — so chaos-perturbed artifacts stay byte-identical at any
   domain count. *)
let chaos_grid_of_ints (n, mask, drop_i) =
  let spec =
    { Lbc_sim.Perturb.zero with Lbc_sim.Perturb.drop = float_of_int drop_i /. 20. }
  in
  Grid.with_chaos spec (grid_of_ints (n, mask, 1))

let prop_chaos_deterministic_across_domains =
  QCheck.Test.make ~name:"chaos artifacts byte-identical for domains 1 vs 4"
    ~count:6
    QCheck.(triple (int_range 4 6) (int_range 0 7) (int_range 1 4))
    (fun (n, mask, drop_i) ->
      let grid () = chaos_grid_of_ints (n, mask, drop_i) in
      let a1 = C.Runner.run_exn ~config:(config ~domains:1 ()) (grid ()) in
      let a4 = C.Runner.run_exn ~config:(config ~domains:4 ()) (grid ()) in
      C.Artifact.deterministic_string a1 = C.Artifact.deterministic_string a4)

let test_chaos_resume_matches_uninterrupted () =
  let path = Filename.temp_file "lbc-chaos-journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let grid () = chaos_grid_of_ints (5, 7, 3) in
      let baseline = C.Runner.run_exn ~config:(config ()) (grid ()) in
      (match
         C.Runner.run
           ~config:(config ~journal:path ~stop_after:2 ())
           (grid ())
       with
      | C.Runner.Partial _ -> ()
      | C.Runner.Complete _ -> Alcotest.fail "expected Partial");
      match
        C.Runner.run ~config:(config ~domains:3 ~journal:path ()) (grid ())
      with
      | C.Runner.Partial _ -> Alcotest.fail "expected Complete"
      | C.Runner.Complete resumed ->
          check_str "chaos campaign resumed = uninterrupted"
            (C.Artifact.deterministic_string baseline)
            (C.Artifact.deterministic_string resumed))

let test_chaos_segment_in_scenario_id () =
  let spec = { Lbc_sim.Perturb.zero with Lbc_sim.Perturb.drop = 0.1 } in
  let plain = scenario () in
  let chaotic = { plain with Scenario.chaos = Some spec } in
  check_str "chaos id appends a segment"
    (Scenario.id plain ^ "|chaos=drop=0.1")
    (Scenario.id chaotic);
  check "chaotic scenarios get distinct seeds" true
    (Scenario.scenario_seed ~base:0 plain
    <> Scenario.scenario_seed ~base:0 chaotic)

(* Every chaos spec a predefined grid sweeps must survive its own repro
   line: [Perturb.parse] accepts integer literals only for [delay] and
   [crash-len], so the canonical spelling printed after [--chaos] has to
   parse back to the same spec. *)
let test_grid_chaos_specs_parse_back () =
  let module P = Lbc_sim.Perturb in
  let seen = ref 0 and delayed = ref 0 in
  List.iter
    (fun name ->
      match C.Grids.by_name name with
      | None -> Alcotest.failf "grid %s missing" name
      | Some g ->
          Array.iter
            (fun s ->
              match s.Scenario.chaos with
              | None -> ()
              | Some spec ->
                  incr seen;
                  if spec.P.delay > 0 then incr delayed;
                  let str = P.to_string spec in
                  (match P.parse str with
                  | Ok back when back = spec -> ()
                  | Ok _ -> Alcotest.failf "%s: %S parses to another spec" name str
                  | Error e -> Alcotest.failf "%s: %S rejected: %s" name str e);
                  let cmd = Scenario.repro_command s ~seed:0 in
                  let flag = "--chaos " ^ str ^ " " in
                  let n = String.length flag in
                  let rec has i =
                    i + n <= String.length cmd
                    && (String.sub cmd i n = flag || has (i + 1))
                  in
                  if not (has 0) then
                    Alcotest.failf "%s: repro line lacks %S: %s" name flag cmd)
            (Grid.to_array g))
    C.Grids.names;
  check "some grid sweeps chaos" true (!seen > 0);
  check "some grid sweeps a bounded delay" true (!delayed > 0)

let test_n100_grid_registered () =
  match C.Grids.by_name "n100" with
  | None -> Alcotest.fail "n100 grid missing"
  | Some g ->
      let scenarios = Grid.to_array g in
      check_int "single scenario" 1 (Array.length scenarios);
      let s = scenarios.(0) in
      check_str "100-node graph" "cycle:100" s.Scenario.gname;
      check "ids above one bitset word" true
        (Lbc_graph.Graph.size (s.Scenario.build ()) = 100)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "campaign"
    [
      ( "jsonio",
        [
          Alcotest.test_case "printing" `Quick test_json_print;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parsing" `Quick test_json_parse;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "canonical id" `Quick test_scenario_id;
          Alcotest.test_case "seeds" `Quick test_scenario_seed;
          Alcotest.test_case "verdict roundtrip" `Quick test_verdict_roundtrip;
          Alcotest.test_case "counterexample" `Quick
            test_failing_verdict_counterexample;
        ] );
      ( "grid",
        Alcotest.test_case "shard_size validation" `Quick
          test_shards_reject_bad_size
        :: Alcotest.test_case "fingerprint order" `Quick
             test_fingerprint_order_sensitive
        :: qt [ prop_sharding_is_partition ] );
      ( "pool",
        Alcotest.test_case "executes all tasks" `Quick test_pool_executes_all
        :: Alcotest.test_case "propagates exceptions" `Quick
             test_pool_propagates_exception
        :: Alcotest.test_case "quarantine after retry" `Quick
             test_pool_contained_quarantines_after_retry
        :: Alcotest.test_case "retry heals transient" `Quick
             test_pool_contained_retry_heals_transient
        :: Alcotest.test_case "prior messages recorded" `Quick
             test_pool_contained_records_prior_messages
        :: Alcotest.test_case "stealing executes all" `Quick
             test_stealing_executes_all
        :: qt [ prop_stealing_poison_and_exactly_once ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic across domains" `Quick
            test_runner_deterministic_across_domains;
          Alcotest.test_case "artifact roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "artifact save/load" `Quick test_artifact_save_load;
          Alcotest.test_case "resume = uninterrupted" `Quick
            test_resume_matches_uninterrupted;
          Alcotest.test_case "stale journal discarded" `Quick
            test_journal_header_mismatch_discards;
          Alcotest.test_case "corrupt journal tail truncated" `Quick
            test_corrupt_journal_tail_truncated;
          Alcotest.test_case "raising progress callback" `Quick
            test_raising_progress_callback_self_heals;
          Alcotest.test_case "wall_s clamped" `Quick test_wall_s_clamped_on_parse;
          Alcotest.test_case "old artifacts rejected" `Quick
            test_old_artifacts_rejected;
          Alcotest.test_case "quarantined section roundtrip" `Quick
            test_quarantined_section_roundtrip;
          Alcotest.test_case "sim stats percentiles" `Quick
            test_sim_stats_percentiles;
        ] );
      ( "containment",
        [
          Alcotest.test_case "crashed scenario contained" `Quick
            test_crashed_scenario_contained;
          Alcotest.test_case "strict mode reports scenario id" `Quick
            test_strict_mode_reports_scenario_id;
          Alcotest.test_case "max_rounds times out" `Quick
            test_max_rounds_times_out;
          Alcotest.test_case "failure verdicts deterministic" `Quick
            test_failure_verdicts_deterministic_across_domains;
        ] );
      ( "chaos",
        Alcotest.test_case "chaos id segment" `Quick
          test_chaos_segment_in_scenario_id
        :: Alcotest.test_case "chaos resume = uninterrupted" `Quick
             test_chaos_resume_matches_uninterrupted
        :: qt [ prop_chaos_deterministic_across_domains ] );
      ( "chaos-repro-parse",
        [
          Alcotest.test_case "grid chaos specs parse back" `Quick
            test_grid_chaos_specs_parse_back;
        ] );
      ( "stats",
        Alcotest.test_case "merge" `Quick test_stats_merge
        :: Alcotest.test_case "artifact stats" `Quick test_artifact_carries_stats
        :: Alcotest.test_case "n100 grid" `Quick test_n100_grid_registered
        :: qt [ prop_stats_deterministic_across_domains ] );
    ]
