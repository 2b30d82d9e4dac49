(* Tests for lib/sim/perturb: spec parsing/rendering, the decision
   oracle's determinism, and the engine-level equivalence properties —
   a zero-rate perturbation is observationally identical to a run with
   no context installed, and a fixed (spec, seed) reproduces exactly. *)

module P = Lbc_sim.Perturb
module E = Lbc_sim.Engine
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module Obs = Lbc_obs.Obs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* parse / to_string                                                   *)
(* ------------------------------------------------------------------ *)

let test_parse_canonical_cases () =
  let cases =
    [
      ("", P.zero, "");
      ("none", P.zero, "");
      ("drop=0.1", { P.zero with P.drop = 0.1 }, "drop=0.1");
      ("dup=0.25", { P.zero with P.dup = 0.25 }, "dup=0.25");
      (* delay-p defaults to 1 when delay is given alone, and the
         canonical form omits it at 1 *)
      ("delay=2", { P.zero with P.delay = 2; P.delay_p = 1.0 }, "delay=2");
      ( "delay=2,delay-p=0.25",
        { P.zero with P.delay = 2; P.delay_p = 0.25 },
        "delay=2,delay-p=0.25" );
      (* crash-len defaults to 1 and is omitted at 1 *)
      ("crash=0.05", { P.zero with P.crash = 0.05 }, "crash=0.05");
      ( "crash=0.05,crash-len=3",
        { P.zero with P.crash = 0.05; P.crash_len = 3 },
        "crash=0.05,crash-len=3" );
      ( "drop=0.1,dup=0.2,delay=3,delay-p=0.5,crash=0.01,crash-len=2",
        {
          P.drop = 0.1;
          dup = 0.2;
          delay = 3;
          delay_p = 0.5;
          crash = 0.01;
          crash_len = 2;
        },
        "drop=0.1,dup=0.2,delay=3,delay-p=0.5,crash=0.01,crash-len=2" );
    ]
  in
  List.iter
    (fun (input, expected, canonical) ->
      match P.parse input with
      | Error e -> Alcotest.failf "parse %S: %s" input e
      | Ok s ->
          check ("parse " ^ input) true (s = expected);
          check_str ("canonical form of " ^ input) canonical (P.to_string s))
    cases

let test_parse_errors () =
  let bad =
    [
      "drop=2";        (* probability out of range *)
      "drop=-0.1";
      "delay=-1";
      "crash=0.1,crash-len=0";
      "bogus=1";       (* unknown key *)
      "drop";          (* missing '=' *)
      "drop=abc";      (* not a number *)
      "delay=2.7";     (* integer keys take integer literals only *)
      "delay=1e30";
      "delay=nan";
      "crash-len=1e30";
    ]
  in
  List.iter
    (fun input ->
      check ("reject " ^ input) true (Result.is_error (P.parse input)))
    bad;
  check "non-integer delay named" true
    (P.parse "delay=2.7" = Error "perturb: delay=\"2.7\" is not an integer")

let test_validate () =
  check "zero is valid" true (P.validate P.zero = Ok P.zero);
  check "nan rejected" true
    (Result.is_error (P.validate { P.zero with P.drop = Float.nan }));
  check "is_zero on zero" true (P.is_zero P.zero);
  check "is_zero false under drop" false (P.is_zero { P.zero with P.drop = 0.1 });
  (* delay without delay-p is inert, and is_zero knows it *)
  check "delay with p=0 is zero" true (P.is_zero { P.zero with P.delay = 3 })

(* Canonical round-trip over generated specs: parse (to_string s)
   recovers s exactly for every spec built from short decimal rates. *)
let prop_to_string_roundtrip =
  QCheck.Test.make ~name:"parse (to_string s) = s" ~count:200
    QCheck.(
      quad (int_range 0 20) (int_range 0 20) (pair (int_range 0 4) (int_range 0 20))
        (pair (int_range 0 20) (int_range 1 4)))
    (fun (drop, dup, (delay, delay_p), (crash, crash_len)) ->
      let r i = float_of_int i /. 20.0 in
      let s =
        {
          P.drop = r drop;
          dup = r dup;
          delay;
          (* to_string only renders delay_p when delay > 0; keep the
             spec canonical so equality is exact *)
          delay_p = (if delay > 0 then r delay_p else 0.0);
          crash = r crash;
          crash_len = (if crash > 0 then crash_len else 1);
        }
      in
      P.parse (P.to_string s) = Ok s)

(* ------------------------------------------------------------------ *)
(* Decision oracle                                                     *)
(* ------------------------------------------------------------------ *)

let sample_coords = List.init 50 (fun i -> (i mod 7, i mod 5, (i * 3) mod 5))

let test_offsets_deterministic () =
  let ctx =
    P.make { P.zero with P.drop = 0.3; dup = 0.3; delay = 2; delay_p = 0.5 }
      ~seed:42
  in
  List.iter
    (fun (round, sender, receiver) ->
      check "same coordinates, same decision" true
        (P.offsets ctx ~round ~sender ~receiver
        = P.offsets ctx ~round ~sender ~receiver))
    sample_coords

let test_offsets_semantics () =
  let all f = List.for_all f sample_coords in
  let offs ctx (round, sender, receiver) = P.offsets ctx ~round ~sender ~receiver in
  let zero_ctx = P.make P.zero ~seed:1 in
  check "zero spec: exactly one on-time copy" true
    (all (fun c -> offs zero_ctx c = [ 0 ]));
  let drop_all = P.make { P.zero with P.drop = 1.0 } ~seed:1 in
  check "drop=1: everything dropped" true (all (fun c -> offs drop_all c = []));
  let dup_all = P.make { P.zero with P.dup = 1.0 } ~seed:1 in
  check "dup=1: two on-time copies" true (all (fun c -> offs dup_all c = [ 0; 0 ]));
  let delayed = P.make { P.zero with P.delay = 3; P.delay_p = 1.0 } ~seed:1 in
  check "delay-p=1: one copy, 1..delay late" true
    (all (fun c ->
         match offs delayed c with [ k ] -> k >= 1 && k <= 3 | _ -> false))

let test_seed_changes_decisions () =
  let spec = { P.zero with P.drop = 0.5 } in
  let a = P.make spec ~seed:1 and b = P.make spec ~seed:2 in
  check "different seeds disagree somewhere" true
    (List.exists
       (fun (round, sender, receiver) ->
         P.offsets a ~round ~sender ~receiver
         <> P.offsets b ~round ~sender ~receiver)
       sample_coords)

let test_crash_now () =
  let never = P.make P.zero ~seed:3 in
  check "crash=0 never crashes" true
    (List.for_all (fun r -> not (P.crash_now never ~node:1 ~round:r))
       (List.init 20 Fun.id));
  let always = P.make { P.zero with P.crash = 1.0 } ~seed:3 in
  check "crash=1 always crashes" true
    (List.for_all (fun r -> P.crash_now always ~node:1 ~round:r)
       (List.init 20 Fun.id))

let test_with_chaos_scoping () =
  check "no ambient context by default" true (P.current () = None);
  let spec = { P.zero with P.drop = 0.1 } in
  P.with_chaos spec ~seed:9 (fun () ->
      match P.current () with
      | None -> Alcotest.fail "context not installed"
      | Some ctx ->
          check "spec visible" true (P.spec ctx = spec);
          check_int "seed visible" 9 (P.seed ctx));
  check "context restored" true (P.current () = None);
  (match
     P.with_chaos spec ~seed:9 (fun () -> failwith "escape")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  check "context restored on exception" true (P.current () = None)

(* ------------------------------------------------------------------ *)
(* Engine-level equivalence                                            *)
(* ------------------------------------------------------------------ *)

let observed_run ?chaos ~algo ~n ~seed () =
  let g = B.cycle n in
  let faulty = Nodeset.singleton (n / 2) in
  let inputs =
    Array.init n (fun v -> if Nodeset.mem v faulty then Bit.Zero else Bit.One)
  in
  let strategy _ = Lbc_adversary.Strategy.Flip_forwards in
  let go () =
    match algo with
    | `A1 ->
        Lbc_consensus.Algorithm1.run ~g ~f:1 ~inputs ~faulty ~strategy ~seed ()
    | `A2 ->
        Lbc_consensus.Algorithm2.run ~g ~f:1 ~inputs ~faulty ~strategy ~seed ()
  in
  Obs.record (fun () ->
      match chaos with
      | None -> go ()
      | Some (spec, cseed) -> P.with_chaos spec ~seed:cseed go)

(* A zero-rate perturbation is indistinguishable from a run with no
   context installed — same outputs, same cost accounting, and
   the very same observability counters (no perturb.* counters appear,
   because zero-rate runs perturb nothing). *)
let prop_zero_rate_identical =
  QCheck.Test.make ~name:"zero-rate chaos = plain engine" ~count:20
    QCheck.(triple (int_range 4 9) (bool) (int_range 0 1000))
    (fun (n, use_a2, cseed) ->
      let algo = if use_a2 then `A2 else `A1 in
      let plain_o, plain_r = observed_run ~algo ~n ~seed:0 () in
      let chaos_o, chaos_r =
        observed_run ~chaos:(P.zero, cseed) ~algo ~n ~seed:0 ()
      in
      plain_o.Spec.outputs = chaos_o.Spec.outputs
      && plain_o.Spec.rounds = chaos_o.Spec.rounds
      && plain_o.Spec.phases = chaos_o.Spec.phases
      && plain_o.Spec.transmissions = chaos_o.Spec.transmissions
      && plain_o.Spec.deliveries = chaos_o.Spec.deliveries
      && plain_r.Obs.counters = chaos_r.Obs.counters
      && plain_r.Obs.stats = chaos_r.Obs.stats)

let test_chaos_run_reproducible () =
  let spec = { P.zero with P.drop = 0.2; dup = 0.1; delay = 2; delay_p = 0.3 } in
  let o1, r1 = observed_run ~chaos:(spec, 77) ~algo:`A2 ~n:7 ~seed:0 () in
  let o2, r2 = observed_run ~chaos:(spec, 77) ~algo:`A2 ~n:7 ~seed:0 () in
  check "outputs reproduce" true (o1.Spec.outputs = o2.Spec.outputs);
  check "counters reproduce" true (r1.Obs.counters = r2.Obs.counters);
  (* the perturbation actually bit: its counters are present *)
  check "perturbation observed" true
    (List.exists
       (fun (k, v) ->
         v > 0
         && (k = "perturb.dropped" || k = "perturb.duplicated"
            || k = "perturb.delayed"))
       r1.Obs.counters)

let test_crash_restart_honest_only () =
  (* With crash=1 every honest node is down every round: no honest node
     can decide anything sensible, but the engine must neither hang nor
     raise, and must count the downtime. *)
  let spec = { P.zero with P.crash = 0.4; crash_len = 2 } in
  let _o, r = observed_run ~chaos:(spec, 5) ~algo:`A2 ~n:7 ~seed:0 () in
  check "crash rounds counted" true
    (match List.assoc_opt "perturb.crash_rounds" r.Obs.counters with
    | Some v -> v > 0
    | None -> false);
  check "crashes counted" true
    (match List.assoc_opt "perturb.crashes" r.Obs.counters with
    | Some v -> v > 0
    | None -> false)

(* Every node broadcasts its id each round on cycle:[n]. *)
let broadcast_ids ?(step = fun ~round:_ ~inbox:_ -> ()) ~n ~rounds () =
  E.run
    (E.topology_of_graph (B.cycle n))
    ~model:E.Local_broadcast ~rounds
    ~roles:
      (Array.init n (fun v ->
           E.Honest
             {
               E.step =
                 (fun ~round ~inbox ->
                   step ~round ~inbox;
                   [ v ]);
               output = (fun () -> ());
             }))

(* The delay ring is sized by the run, not by the spec: a delay of
   max_int completes, and every copy it delays lands past the last
   round, so each is tallied as expired and none is ever consumed. *)
let test_unbounded_delay_expires () =
  let spec = { P.zero with P.delay = max_int; delay_p = 1.0 } in
  let r, obs =
    Obs.record (fun () ->
        P.with_chaos spec ~seed:3
          (broadcast_ids ~n:5 ~rounds:30 ~step:(fun ~round:_ ~inbox ->
               if inbox <> [] then failwith "delayed copy consumed")))
  in
  let count k = Option.value ~default:0 (List.assoc_opt k obs.Obs.counters) in
  let rx = r.E.stats.E.deliveries in
  check_int "5 nodes x 2 hearers x 30 rounds" 300 rx;
  check_int "every copy delayed" rx (count "perturb.delayed");
  check_int "every delayed copy expired" rx (count "perturb.expired")

(* Zero rounds: zero stats, with and without a context installed. *)
let test_zero_rounds_stats () =
  let go () = (broadcast_ids ~n:3 ~rounds:0 ()).E.stats in
  let zero = { E.rounds = 0; transmissions = 0; deliveries = 0 } in
  check "no context" true (go () = zero);
  check "zero-rate context" true (P.with_chaos P.zero ~seed:1 go = zero);
  check "delaying context" true
    (P.with_chaos { P.zero with P.delay = max_int; delay_p = 1.0 } ~seed:1 go
    = zero)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "perturb"
    [
      ( "spec",
        Alcotest.test_case "canonical cases" `Quick test_parse_canonical_cases
        :: Alcotest.test_case "parse errors" `Quick test_parse_errors
        :: Alcotest.test_case "validate" `Quick test_validate
        :: qt [ prop_to_string_roundtrip ] );
      ( "oracle",
        [
          Alcotest.test_case "offsets deterministic" `Quick
            test_offsets_deterministic;
          Alcotest.test_case "offsets semantics" `Quick test_offsets_semantics;
          Alcotest.test_case "seed sensitivity" `Quick
            test_seed_changes_decisions;
          Alcotest.test_case "crash_now" `Quick test_crash_now;
          Alcotest.test_case "with_chaos scoping" `Quick
            test_with_chaos_scoping;
        ] );
      ( "engine",
        Alcotest.test_case "chaos run reproducible" `Quick
          test_chaos_run_reproducible
        :: Alcotest.test_case "crash-restart" `Quick
             test_crash_restart_honest_only
        :: Alcotest.test_case "unbounded delay expires" `Quick
             test_unbounded_delay_expires
        :: Alcotest.test_case "zero rounds" `Quick test_zero_rounds_stats
        :: qt [ prop_zero_rate_identical ] );
    ]
