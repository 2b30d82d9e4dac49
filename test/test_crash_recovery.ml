(* Crash-recovery proof: the kill-point fuzzer plus unit coverage for
   the journal framing, the result cache and the stealing scheduler's
   watchdog. The fuzzer is the PR's acceptance test — it simulates a
   crash at every early journal position (including mid-record torn
   writes), resumes, and asserts the final artifact is byte-identical to
   an uninterrupted single-domain run. *)

module C = Lbc_campaign
module Scenario = C.Scenario
module Grid = C.Grid
module Journal = C.Journal
module B = Lbc_graph.Builders
module S = Lbc_adversary.Strategy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A 20-scenario grid: small enough that the fuzzer's ~20 kill/resume
   cycles stay fast, large enough that every kill point leaves real work
   behind. *)
let fuzz_grid () =
  Grid.product ~name:"fuzz"
    ~graphs:[ ("cycle:5", 1) ]
    ~algos:[ Scenario.A2 ] ~placements:Grid.singleton_placements
    ~strategies:[ S.Flip_forwards; S.Lie ]
    ~inputs:Grid.unanimous_inputs ()

let config ?(domains = 1) ?journal ?cache ?stop_after ?kill ?deadline_s () =
  {
    C.Runner.default with
    C.Runner.domains;
    journal;
    cache;
    stop_after;
    kill_after_verdicts = kill;
    deadline_s;
  }

let with_temp ?(suffix = ".journal") f =
  let path = Filename.temp_file "lbc-crash" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Journal framing                                                     *)
(* ------------------------------------------------------------------ *)

let sample_header =
  {
    Journal.campaign = "unit";
    count = 4;
    base_seed = 3;
    budget = 0;
    fingerprint = "cafe";
  }

let sample_record i =
  let v =
    Scenario.crashed_verdict ~index:i
      ~id:(Printf.sprintf "a2|unit|%d" i)
      ~repro:"lbcast run ..." ~message:"sample"
  in
  {
    Journal.index = i;
    wall_s = 0.25;
    entry =
      {
        C.Cache.algo = "a2";
        counters = [ ("engine.rounds", 7); ("engine.tx", i) ];
        verdict = v;
      };
  }

let test_journal_roundtrip () =
  with_temp (fun path ->
      Sys.remove path;
      let w = Journal.open_writer ~path ~header:sample_header () in
      Journal.append w (sample_record 0);
      Journal.append w (sample_record 2);
      Journal.close w;
      let records, recovery = Journal.read ~path ~header:sample_header in
      check_int "both records back" 2 (List.length records);
      check "records intact" true (records = [ sample_record 0; sample_record 2 ]);
      check_int "no damage" 0 recovery.Journal.dropped_bytes;
      check "no corruption" true (recovery.Journal.first_corrupt = None);
      (* appends resume cleanly on an existing file *)
      let w = Journal.open_writer ~path ~header:sample_header () in
      Journal.append w (sample_record 3);
      Journal.close w;
      let records, _ = Journal.read ~path ~header:sample_header in
      check_int "third record framed after reopen" 3 (List.length records))

let test_journal_crc_flip_truncates () =
  with_temp (fun path ->
      Sys.remove path;
      let w = Journal.open_writer ~path ~header:sample_header () in
      Journal.append w (sample_record 0);
      Journal.append w (sample_record 1);
      Journal.close w;
      (* flip one payload byte inside the second record: its CRC check
         must fail, dropping that record (and everything after) *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      ignore (Unix.lseek fd (size - 10) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      let records, recovery = Journal.recover ~path ~header:sample_header in
      check_int "first record survives" 1 (List.length records);
      check "corrupt record identified" true
        (recovery.Journal.first_corrupt = Some 2);
      check "damage measured" true (recovery.Journal.dropped_bytes > 0);
      (* the tail was physically truncated: a fresh append re-frames *)
      let w = Journal.open_writer ~path ~header:sample_header () in
      Journal.append w (sample_record 1);
      Journal.close w;
      let records, recovery = Journal.read ~path ~header:sample_header in
      check_int "repaired journal reads clean" 2 (List.length records);
      check_int "no residual damage" 0 recovery.Journal.dropped_bytes)

let test_journal_header_mismatch_is_stale () =
  with_temp (fun path ->
      Sys.remove path;
      let w = Journal.open_writer ~path ~header:sample_header () in
      Journal.append w (sample_record 0);
      Journal.close w;
      let other = { sample_header with Journal.fingerprint = "beef" } in
      let records, recovery = Journal.recover ~path ~header:other in
      check_int "no records adopted" 0 (List.length records);
      check "marked stale" true recovery.Journal.stale;
      check "stale file removed" false (Sys.file_exists path))

let test_journal_kill_shim () =
  with_temp (fun path ->
      Sys.remove path;
      let w =
        Journal.open_writer ~path ~header:sample_header
          ~kill:{ Journal.after = 1; torn = true } ()
      in
      Journal.append w (sample_record 0);
      (match Journal.append w (sample_record 1) with
      | () -> Alcotest.fail "kill point did not fire"
      | exception Journal.Killed { appended } ->
          check_int "kill reports journaled records" 1 appended);
      Journal.close w;
      (* the torn half-record is truncated away; the intact one stays *)
      let records, recovery = Journal.recover ~path ~header:sample_header in
      check_int "intact record survives the torn tail" 1 (List.length records);
      check "torn bytes dropped" true (recovery.Journal.dropped_bytes > 0))

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let temp_dir () =
  let probe = Filename.temp_file "lbc-cache" "" in
  Sys.remove probe;
  probe

let rm_rf dir =
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
   with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let test_cache_store_find () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c = C.Cache.create ~dir in
      let key = C.Cache.key ~id:"a2|cycle:5|x" ~base_seed:0 ~budget:0 in
      check "cold lookup misses" true (C.Cache.find c ~key = None);
      let entry =
        {
          C.Cache.algo = "a2";
          counters = [ ("engine.rounds", 11) ];
          verdict = (sample_record 5).Journal.entry.C.Cache.verdict;
        }
      in
      C.Cache.store c ~key entry;
      (match C.Cache.find c ~key with
      | Some e -> check "stored entry returned" true (e = entry)
      | None -> Alcotest.fail "warm lookup missed");
      check_int "one hit" 1 (C.Cache.hits c);
      check_int "one miss" 1 (C.Cache.misses c);
      check_int "one store" 1 (C.Cache.stores c);
      (* seed and budget are part of the key *)
      check "different seed misses" true
        (C.Cache.find c ~key:(C.Cache.key ~id:"a2|cycle:5|x" ~base_seed:1 ~budget:0)
        = None);
      check "different budget misses" true
        (C.Cache.find c
           ~key:(C.Cache.key ~id:"a2|cycle:5|x" ~base_seed:0 ~budget:60)
        = None))

(* A file whose embedded key disagrees with the key being looked up (the
   hash-collision shape) must degrade to a miss, not return the wrong
   scenario's verdict. *)
let test_cache_collision_degrades_to_miss () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c = C.Cache.create ~dir in
      let key = C.Cache.key ~id:"a2|victim" ~base_seed:0 ~budget:0 in
      C.Cache.store c ~key
        {
          C.Cache.algo = "a2";
          counters = [];
          verdict = (sample_record 0).Journal.entry.C.Cache.verdict;
        };
      (* overwrite the stored file with a well-formed entry for a
         DIFFERENT key, simulating a hash collision: the filename still
         matches [key]'s hash but the embedded key disagrees *)
      let dir2 = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir2)
        (fun () ->
          let c2 = C.Cache.create ~dir:dir2 in
          let other_key = C.Cache.key ~id:"a2|other" ~base_seed:0 ~budget:0 in
          C.Cache.store c2 ~key:other_key
            {
              C.Cache.algo = "a2";
              counters = [];
              verdict = (sample_record 1).Journal.entry.C.Cache.verdict;
            };
          match (Sys.readdir dir, Sys.readdir dir2) with
          | [| victim |], [| impostor |] ->
              let body =
                In_channel.with_open_bin
                  (Filename.concat dir2 impostor)
                  In_channel.input_all
              in
              Out_channel.with_open_bin (Filename.concat dir victim)
                (fun oc -> output_string oc body)
          | _ -> Alcotest.fail "expected exactly one file per cache dir");
      check "embedded-key mismatch is a miss" true (C.Cache.find c ~key = None))

(* ------------------------------------------------------------------ *)
(* Stealing scheduler: straggler and watchdog                          *)
(* ------------------------------------------------------------------ *)

let spin_for seconds =
  let t0 = C.Clock.now_s () in
  while C.Clock.now_s () -. t0 < seconds do
    ignore (Sys.opaque_identity (C.Clock.now_s ()))
  done

let test_stealing_drains_straggler_block () =
  let n = 16 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let report, failures =
    C.Pool.run ~domains:4
      ~tasks:(Array.init n (fun i -> i))
      (fun _pos i ->
        (* task 0 stalls its owner; the other three workers drain their
           own blocks in microseconds and must then steal the rest of
           worker 0's block *)
        if i = 0 then spin_for 0.05;
        Atomic.incr hits.(i))
  in
  check "all tasks ran exactly once" true
    (Array.for_all (fun h -> Atomic.get h = 1) hits);
  check_int "no failures" 0 (List.length failures);
  check "straggler's block was stolen" true (report.C.Pool.steals > 0)

let test_watchdog_fires_on_overdue_task () =
  let fired = Array.init 4 (fun _ -> Atomic.make false) in
  let _report, failures =
    C.Pool.run ~domains:2
      ~deadline:(0.02, fun _pos i -> Atomic.set fired.(i) true)
      ~tasks:(Array.init 4 (fun i -> i))
      (fun _pos i ->
        if i = 2 then begin
          (* block until the watchdog intervenes (bounded escape so a
             broken watchdog fails the test instead of hanging it) *)
          let t0 = C.Clock.now_s () in
          while
            (not (Atomic.get fired.(2))) && C.Clock.now_s () -. t0 < 5.0
          do
            ignore (Sys.opaque_identity 0)
          done
        end)
  in
  check_int "no failures" 0 (List.length failures);
  check "watchdog fired on the overdue task" true (Atomic.get fired.(2));
  check "watchdog left fast tasks alone" true (not (Atomic.get fired.(0)))

let test_watchdog_zeroes_fuel_across_domains () =
  (* The runner's on_overdue writes the worker's fuel cell from the
     watchdog's domain. This is exactly the write a plain [ref] gives no
     visibility guarantee for under the OCaml 5 memory model — the cell
     is an [Atomic.t] so the worker's next check observes the zero. The
     spawn/join pair makes the cross-domain write real, not simulated. *)
  check "no cell outside with_fuel" true
    (Lbc_sim.Engine.current_fuel_cell () = None);
  let observed =
    Lbc_sim.Engine.with_fuel ~budget:1000 (fun () ->
        let cell =
          match Lbc_sim.Engine.current_fuel_cell () with
          | Some c -> c
          | None -> Alcotest.fail "no fuel cell inside with_fuel"
        in
        Domain.join (Domain.spawn (fun () -> Atomic.set cell 0));
        match Lbc_sim.Engine.check_fuel () with
        | () -> `Survived
        | exception Lbc_sim.Engine.Fuel_exhausted { budget } ->
            `Exhausted budget)
  in
  check "zeroed cell turns into Fuel_exhausted with the installed budget"
    true
    (observed = `Exhausted 1000)

(* The runner-level deadline plumbing must not disturb a campaign whose
   scenarios all finish in time: same deterministic bytes, no timeouts. *)
let test_runner_deadline_harmless_when_met () =
  let baseline = C.Runner.run_exn ~config:(config ()) (fuzz_grid ()) in
  let a =
    C.Runner.run_exn ~config:(config ~deadline_s:30.0 ()) (fuzz_grid ())
  in
  check_str "deadline run byte-identical when nothing fires"
    (C.Artifact.deterministic_string baseline)
    (C.Artifact.deterministic_string a);
  check_int "no timeout verdicts"
    0
    (C.Artifact.summarize a).C.Artifact.timeouts

(* ------------------------------------------------------------------ *)
(* Runner + cache                                                      *)
(* ------------------------------------------------------------------ *)

let test_runner_cache_second_run_all_hits () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cold = C.Runner.run_exn ~config:(config ~cache:dir ()) (fuzz_grid ()) in
      let ci = cold.C.Artifact.run.C.Artifact.cache in
      check_int "cold run misses everything" cold.C.Artifact.count
        ci.C.Artifact.misses;
      check_int "cold run stores everything" cold.C.Artifact.count
        ci.C.Artifact.stores;
      check_int "cold run hits nothing" 0 ci.C.Artifact.hits;
      let warm =
        C.Runner.run_exn ~config:(config ~domains:3 ~cache:dir ()) (fuzz_grid ())
      in
      let wi = warm.C.Artifact.run.C.Artifact.cache in
      check_int "warm run hits everything" warm.C.Artifact.count
        wi.C.Artifact.hits;
      check_int "warm run executes nothing" 0 wi.C.Artifact.misses;
      check_str "cached artifact byte-identical"
        (C.Artifact.deterministic_string cold)
        (C.Artifact.deterministic_string warm);
      (* partially-overlapping state: drop one entry, only it re-executes *)
      (match Sys.readdir dir with
      | [||] -> Alcotest.fail "cache directory empty"
      | files -> Sys.remove (Filename.concat dir files.(0)));
      let third = C.Runner.run_exn ~config:(config ~cache:dir ()) (fuzz_grid ()) in
      let ti = third.C.Artifact.run.C.Artifact.cache in
      check_int "only the evicted scenario re-executes" 1 ti.C.Artifact.misses;
      check_int "the rest are hits" (third.C.Artifact.count - 1)
        ti.C.Artifact.hits)

(* ------------------------------------------------------------------ *)
(* The kill-point fuzzer                                               *)
(* ------------------------------------------------------------------ *)

(* Simulate a crash after [k] journaled verdicts (optionally mid-record),
   then resume to completion; the final artifact must be byte-identical
   to [baseline]. Returns the resumed artifact for further checks. *)
let kill_and_resume ~baseline ~domains ~k ~torn path =
  (match
     C.Runner.run
       ~config:(config ~domains ~journal:path ~kill:(k, torn) ())
       (fuzz_grid ())
   with
  | _ -> Alcotest.failf "kill point %d (torn=%b) did not fire" k torn
  | exception Journal.Killed { appended } ->
      check_int
        (Printf.sprintf "crash after exactly %d appends (torn=%b)" k torn)
        k appended);
  check "journal survives the crash" true (Sys.file_exists path);
  match
    C.Runner.run ~config:(config ~domains ~journal:path ()) (fuzz_grid ())
  with
  | C.Runner.Partial _ -> Alcotest.fail "resume did not complete"
  | C.Runner.Complete a ->
      check_str
        (Printf.sprintf
           "kill@%d torn=%b domains=%d: resumed artifact byte-identical" k torn
           domains)
        (C.Artifact.deterministic_string baseline)
        (C.Artifact.deterministic_string a);
      check "journal removed after completion" false (Sys.file_exists path);
      a

let test_kill_point_fuzzer () =
  let baseline = C.Runner.run_exn ~config:(config ()) (fuzz_grid ()) in
  let cycles = ref 0 in
  List.iter
    (fun domains ->
      List.iter
        (fun torn ->
          List.iter
            (fun k ->
              with_temp (fun path ->
                  Sys.remove path;
                  let a = kill_and_resume ~baseline ~domains ~k ~torn path in
                  incr cycles;
                  (* the resume adopted exactly the journaled records
                     (torn kills journal k intact records too: the torn
                     fragment is dropped, not adopted) *)
                  check_int "resume adopted the journaled verdicts" k
                    a.C.Artifact.run.C.Artifact.resumed_scenarios;
                  if torn && k > 0 then
                    check "torn fragment reported as damage" true
                      (a.C.Artifact.run.C.Artifact.recovery
                         .C.Artifact.dropped_bytes > 0)))
            [ 0; 1; 2; 5; 9 ])
        [ false; true ])
    [ 1; 4 ];
  check "at least 20 kill points exercised" true (!cycles >= 20)

(* A second crash during the recovery run: recovery must compose. *)
let test_kill_resume_kill_resume () =
  let baseline = C.Runner.run_exn ~config:(config ()) (fuzz_grid ()) in
  with_temp (fun path ->
      Sys.remove path;
      (match
         C.Runner.run
           ~config:(config ~journal:path ~kill:(3, true) ())
           (fuzz_grid ())
       with
      | _ -> Alcotest.fail "first kill did not fire"
      | exception Journal.Killed _ -> ());
      (match
         C.Runner.run
           ~config:(config ~domains:4 ~journal:path ~kill:(4, false) ())
           (fuzz_grid ())
       with
      | _ -> Alcotest.fail "second kill did not fire"
      | exception Journal.Killed _ -> ());
      match C.Runner.run ~config:(config ~journal:path ()) (fuzz_grid ()) with
      | C.Runner.Partial _ -> Alcotest.fail "final resume did not complete"
      | C.Runner.Complete a ->
          check_int "both crash epochs' verdicts adopted" 7
            a.C.Artifact.run.C.Artifact.resumed_scenarios;
          check_str "doubly-resumed artifact byte-identical"
            (C.Artifact.deterministic_string baseline)
            (C.Artifact.deterministic_string a))

(* A killed smoke campaign whose journal then takes 1-4 random byte
   edits (flips, cuts, inserts, repeats) still resumes to the
   uninterrupted artifact: a damaged header discards the file whole, a
   damaged record truncates the journal there, and whatever is lost is
   executed again. *)
let prop_mutated_journal_resumes =
  let grid () = Option.get (C.Grids.by_name "smoke") in
  let baseline =
    lazy
      (C.Artifact.deterministic_string
         (C.Runner.run_exn ~config:(config ()) (grid ())))
  in
  QCheck.Test.make ~name:"mutated journal resumes to the uninterrupted run"
    ~count:25
    (QCheck.make
       ~print:(fun ((k, torn), edits) ->
         Printf.sprintf "kill after %d (torn=%b); %s" k torn
           (Mutation.print_edits edits))
       QCheck.Gen.(
         pair
           (pair (int_range 1 80) bool)
           (Mutation.gen_edits_at (int_bound 1_000_000))))
    (fun ((k, torn), edits) ->
      with_temp (fun path ->
          Sys.remove path;
          (match
             C.Runner.run
               ~config:(config ~journal:path ~kill:(k, torn) ())
               (grid ())
           with
          | _ -> QCheck.Test.fail_reportf "kill point %d did not fire" k
          | exception Journal.Killed _ -> ());
          let body = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (List.fold_left Mutation.apply_edit body edits));
          match C.Runner.run ~config:(config ~journal:path ()) (grid ()) with
          | C.Runner.Partial _ -> QCheck.Test.fail_report "resume stopped"
          | C.Runner.Complete a ->
              String.equal (Lazy.force baseline)
                (C.Artifact.deterministic_string a)))

let () =
  Alcotest.run "crash-recovery"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip and reopen" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "crc flip truncates tail" `Quick
            test_journal_crc_flip_truncates;
          Alcotest.test_case "header mismatch is stale" `Quick
            test_journal_header_mismatch_is_stale;
          Alcotest.test_case "kill shim" `Quick test_journal_kill_shim;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/find and counters" `Quick
            test_cache_store_find;
          Alcotest.test_case "collision degrades to miss" `Quick
            test_cache_collision_degrades_to_miss;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "straggler block stolen" `Quick
            test_stealing_drains_straggler_block;
          Alcotest.test_case "watchdog fires" `Quick
            test_watchdog_fires_on_overdue_task;
          Alcotest.test_case "watchdog fuel zero crosses domains" `Quick
            test_watchdog_zeroes_fuel_across_domains;
          Alcotest.test_case "deadline harmless when met" `Quick
            test_runner_deadline_harmless_when_met;
        ] );
      ( "cache-runner",
        [
          Alcotest.test_case "second run all hits" `Quick
            test_runner_cache_second_run_all_hits;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "20 seeded kill points" `Quick
            test_kill_point_fuzzer;
          Alcotest.test_case "kill during recovery" `Quick
            test_kill_resume_kill_resume;
          QCheck_alcotest.to_alcotest prop_mutated_journal_resumes;
        ] );
    ]
