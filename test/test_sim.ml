(* Tests for the synchronous engine: delivery semantics, inbox ordering,
   communication-model enforcement, directed topologies, transcripts and
   statistics. *)

module Engine = Lbc_sim.Engine
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A proc that logs everything it receives and broadcasts a fixed list of
   messages at given rounds. *)
let logger sends =
  let log = ref [] in
  let step ~round ~inbox =
    log := (round, inbox) :: !log;
    match List.assoc_opt round sends with Some ms -> ms | None -> []
  in
  ({ Engine.step; output = (fun () -> List.rev !log) }, log)

let test_broadcast_delivery () =
  (* path 0-1-2: 0 broadcasts at round 0; 1 hears it at round 1; 2 never. *)
  let g = B.path_graph 3 in
  let topo = Engine.topology_of_graph g in
  let p0, _ = logger [ (0, [ "hello" ]) ] in
  let p1, _ = logger [] in
  let p2, _ = logger [] in
  let roles = [| Engine.Honest p0; Engine.Honest p1; Engine.Honest p2 |] in
  let r =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds:3 ~roles
  in
  let log1 = Option.get r.Engine.outputs.(1) in
  let log2 = Option.get r.Engine.outputs.(2) in
  check "1 heard at round 1" true (List.assoc 1 log1 = [ (0, "hello") ]);
  check "2 heard nothing" true
    (List.for_all (fun (_, inbox) -> inbox = []) log2)

let test_inbox_ordering () =
  (* Node 1 hears 0 and 2 in the same round: inbox sorted by sender, each
     sender's emissions in order. *)
  let g = B.path_graph 3 in
  let topo = Engine.topology_of_graph g in
  let p0, _ = logger [ (0, [ "a1"; "a2" ]) ] in
  let p1, _ = logger [] in
  let p2, _ = logger [ (0, [ "c" ]) ] in
  let roles = [| Engine.Honest p0; Engine.Honest p1; Engine.Honest p2 |] in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds:2 ~roles in
  let log1 = Option.get r.Engine.outputs.(1) in
  check "ordered inbox" true
    (List.assoc 1 log1 = [ (0, "a1"); (0, "a2"); (2, "c") ])

let test_local_broadcast_identical () =
  (* Both neighbours of a broadcaster receive the identical sequence. *)
  let g = B.cycle 3 in
  let topo = Engine.topology_of_graph g in
  let p0, _ = logger [ (0, [ "x"; "y" ]) ] in
  let p1, _ = logger [] in
  let p2, _ = logger [] in
  let roles = [| Engine.Honest p0; Engine.Honest p1; Engine.Honest p2 |] in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds:2 ~roles in
  let from0 log = List.filter (fun (s, _) -> s = 0) (List.assoc 1 log) in
  check "identical" true
    (from0 (Option.get r.Engine.outputs.(1))
    = from0 (Option.get r.Engine.outputs.(2)))

let test_unicast_forbidden_lbc () =
  let g = B.cycle 3 in
  let topo = Engine.topology_of_graph g in
  let f : string Engine.fstep =
   fun ~round ~inbox:_ -> if round = 0 then [ Engine.Unicast (1, "sneaky") ] else []
  in
  let p, _ = logger [] in
  let roles = [| Engine.Faulty f; Engine.Honest p; Engine.Honest (fst (logger [])) |] in
  check "raises" true
    (match Engine.run topo ~model:Engine.Local_broadcast ~rounds:2 ~roles with
    | _ -> false
    | exception Engine.Model_violation _ -> true)

let test_unicast_allowed_p2p () =
  let g = B.cycle 3 in
  let topo = Engine.topology_of_graph g in
  let f : string Engine.fstep =
   fun ~round ~inbox:_ -> if round = 0 then [ Engine.Unicast (1, "ok") ] else []
  in
  let p1, _ = logger [] in
  let p2, _ = logger [] in
  let roles = [| Engine.Faulty f; Engine.Honest p1; Engine.Honest p2 |] in
  let r = Engine.run topo ~model:Engine.Point_to_point ~rounds:2 ~roles in
  let log1 = Option.get r.Engine.outputs.(1) in
  let log2 = Option.get r.Engine.outputs.(2) in
  check "1 got it" true (List.assoc 1 log1 = [ (0, "ok") ]);
  check "2 did not" true (List.assoc 1 log2 = [])

let test_hybrid_enforcement () =
  let g = B.cycle 3 in
  let topo = Engine.topology_of_graph g in
  let f u : string Engine.fstep =
   fun ~round ~inbox:_ ->
    if round = 0 then [ Engine.Unicast ((u + 1) mod 3, "e") ] else []
  in
  let mk equivocators =
    let roles =
      [| Engine.Faulty (f 0); Engine.Honest (fst (logger [])); Engine.Honest (fst (logger [])) |]
    in
    Engine.run topo ~model:(Engine.Hybrid equivocators) ~rounds:2 ~roles
  in
  check "member may unicast" true
    (match mk (Nodeset.singleton 0) with _ -> true | exception _ -> false);
  check "non-member may not" true
    (match mk (Nodeset.singleton 1) with
    | _ -> false
    | exception Engine.Model_violation _ -> true)

let test_unicast_needs_link () =
  let g = B.path_graph 3 in
  (* 0 and 2 are not adjacent *)
  let topo = Engine.topology_of_graph g in
  let f : string Engine.fstep =
   fun ~round ~inbox:_ -> if round = 0 then [ Engine.Unicast (2, "far") ] else []
  in
  let roles =
    [| Engine.Faulty f; Engine.Honest (fst (logger [])); Engine.Honest (fst (logger [])) |]
  in
  check "raises" true
    (match Engine.run topo ~model:Engine.Point_to_point ~rounds:2 ~roles with
    | _ -> false
    | exception Engine.Model_violation _ -> true)

let test_directed_topology () =
  (* 0 -> 1 only: 1 hears 0 but not vice versa. *)
  let topo =
    Engine.topology_directed ~n:2 ~out:(function 0 -> [ 1 ] | _ -> [])
  in
  let p0, _ = logger [ (0, [ "fwd" ]) ] in
  let p1, _ = logger [ (0, [ "bwd" ]) ] in
  let roles = [| Engine.Honest p0; Engine.Honest p1 |] in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds:2 ~roles in
  let log0 = Option.get r.Engine.outputs.(0) in
  let log1 = Option.get r.Engine.outputs.(1) in
  check "1 hears 0" true (List.assoc 1 log1 = [ (0, "fwd") ]);
  check "0 does not hear 1" true (List.assoc 1 log0 = [])

let test_stats_and_transcript () =
  let g = B.cycle 4 in
  let topo = Engine.topology_of_graph g in
  let roles =
    Array.init 4 (fun v -> Engine.Honest (fst (logger [ (0, [ string_of_int v ]) ])))
  in
  let r =
    Engine.run ~record:true topo ~model:Engine.Local_broadcast ~rounds:2 ~roles
  in
  check_int "4 transmissions" 4 r.Engine.stats.Engine.transmissions;
  check_int "8 deliveries" 8 r.Engine.stats.Engine.deliveries;
  check_int "2 rounds" 2 r.Engine.stats.Engine.rounds;
  check_int "transcript entries" 4 (List.length r.Engine.transcript);
  check "chronological senders" true
    (List.map (fun (_, s, _) -> s) r.Engine.transcript = [ 0; 1; 2; 3 ])

let test_zero_rounds () =
  let topo = Engine.topology_of_graph (B.cycle 3) in
  let roles = Array.init 3 (fun _ -> Engine.Honest (fst (logger [ (0, [ "x" ]) ]))) in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds:0 ~roles in
  check_int "no transmissions" 0 r.Engine.stats.Engine.transmissions;
  check_int "no rounds" 0 r.Engine.stats.Engine.rounds

let test_transcript_off_by_default () =
  let topo = Engine.topology_of_graph (B.cycle 3) in
  let roles = Array.init 3 (fun _ -> Engine.Honest (fst (logger [ (0, [ "x" ]) ]))) in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds:1 ~roles in
  check "empty transcript" true (r.Engine.transcript = []);
  check_int "but stats counted" 3 r.Engine.stats.Engine.transmissions

let test_last_round_transmissions_not_delivered () =
  (* Messages sent in the final round are counted but never delivered —
     the boundary behaviour the flooding phase budgets account for. *)
  let g = B.path_graph 2 in
  let topo = Engine.topology_of_graph g in
  let p0, _ = logger [ (0, [ "a" ]); (1, [ "b" ]) ] in
  let p1, _ = logger [] in
  let roles = [| Engine.Honest p0; Engine.Honest p1 |] in
  let r = Engine.run topo ~model:Engine.Local_broadcast ~rounds:2 ~roles in
  let log1 = Option.get r.Engine.outputs.(1) in
  check "round-0 msg delivered" true (List.assoc 1 log1 = [ (0, "a") ]);
  check "round-1 msg never processed" true (List.assoc_opt 2 log1 = None);
  check_int "both counted" 2 r.Engine.stats.Engine.transmissions;
  (* deliveries counts enqueued receptions; the final round's messages are
     enqueued but no subsequent step consumes them *)
  check_int "both enqueued" 2 r.Engine.stats.Engine.deliveries

let test_role_length_mismatch () =
  let topo = Engine.topology_of_graph (B.cycle 3) in
  check "raises" true
    (match
       Engine.run topo ~model:Engine.Local_broadcast ~rounds:1
         ~roles:[| Engine.Honest (fst (logger [])) |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Lock-step equivalence with the retained reference loop               *)
(* ------------------------------------------------------------------ *)

module Obs = Lbc_obs.Obs
module Net = Lbc_net.Net

(* One generated execution: a topology (undirected, or directed by
   [out]), a model, which nodes run a faulty step, and the knobs of the
   run. Honest procs and faulty steps are deterministic functions of
   [seed] and what they have heard, so any difference in inbox order or
   content between two engines shows up in outputs and transcripts. *)
type case = {
  n : int;
  directed : bool;
  arcs : (int * int) list;
  model_kind : int;  (* 0 local broadcast, 1 point-to-point, 2 hybrid *)
  unicasters : int list;
  faulty : int list;
  rounds : int;
  record : bool;
  net : string option;
  seed : int;
}

let show_case c =
  Printf.sprintf
    "n=%d directed=%b arcs=[%s] model=%d unicasters=[%s] faulty=[%s] \
     rounds=%d record=%b net=%s seed=%d"
    c.n c.directed
    (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) c.arcs))
    c.model_kind
    (String.concat ";" (List.map string_of_int c.unicasters))
    (String.concat ";" (List.map string_of_int c.faulty))
    c.rounds c.record
    (Option.value ~default:"-" c.net)
    c.seed

let gen_case =
  let open QCheck.Gen in
  let* n = int_range 2 7 in
  let node = int_bound (n - 1) in
  let* directed = bool in
  let* arcs = list_size (int_bound (2 * n)) (pair node node) in
  let arcs = List.filter (fun (u, v) -> u <> v) arcs in
  let* model_kind = int_bound 2 in
  let* unicasters = list_size (int_bound n) node in
  let* faulty = list_size (int_bound 3) node in
  let* rounds = int_bound 8 in
  let* record = bool in
  let* net = oneofl [ None; Some "ideal"; Some "lan"; Some "const:1000"; Some "heavy-tail" ] in
  let* seed = int_bound 1_000_000 in
  return
    { n; directed; arcs; model_kind; unicasters; faulty; rounds; record; net; seed }

let topology_of_case c =
  if c.directed then
    Engine.topology_directed ~n:c.n ~out:(fun u ->
        List.filter_map (fun (a, b) -> if a = u then Some b else None) c.arcs)
  else
    Engine.topology_of_graph
      (Lbc_graph.Graph.of_edges c.n
         (List.sort_uniq compare
            (List.map (fun (u, v) -> (min u v, max u v)) c.arcs)))

let model_of_case c =
  match c.model_kind with
  | 0 -> Engine.Local_broadcast
  | 1 -> Engine.Point_to_point
  | _ -> Engine.Hybrid (Nodeset.of_list c.unicasters)

(* Fresh roles per run: honest procs carry mutable state. *)
let roles_of_case c topo =
  Array.init c.n (fun u ->
      if List.mem u c.faulty then
        Engine.Faulty
          (fun ~round ~inbox ->
            let h = Hashtbl.hash (c.seed, u, round, inbox) in
            List.init (h mod 4) (fun i ->
                let m = (h lsr 3) + i in
                match (h lsr (2 * i + 5)) land 3 with
                | 0 -> Engine.Broadcast m
                | 1 -> (
                    (* legal in models that let [u] unicast *)
                    match topo.Engine.hears u with
                    | [] -> Engine.Broadcast m
                    | vs -> Engine.Unicast (List.nth vs (m mod List.length vs), m))
                | 2 -> Engine.Unicast (m mod c.n, m) (* maybe no link *)
                | _ -> Engine.Broadcast (m + 1)))
      else
        let h = ref (Hashtbl.hash (c.seed, u)) in
        let log = ref [] in
        Engine.Honest
          {
            Engine.step =
              (fun ~round ~inbox ->
                log := (round, inbox) :: !log;
                h := Hashtbl.hash (!h, round, inbox);
                List.init (!h mod 3) (fun i -> !h + i));
            output = (fun () -> List.rev !log);
          })

let observe_case run c =
  let topo = topology_of_case c in
  let go () =
    match run ~record:c.record topo ~model:(model_of_case c) ~rounds:c.rounds
            ~roles:(roles_of_case c topo)
    with
    | r -> Ok r
    | exception Engine.Model_violation msg -> Error msg
  in
  Obs.record ~trace:true (fun () ->
      match c.net with
      | None -> (go (), 0)
      | Some p -> (
          match Net.parse p with
          | Ok profile -> Net.with_net profile ~seed:c.seed go
          | Error e -> failwith e))

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"Engine.run = lock-step reference (no chaos)"
    ~count:500
    (QCheck.make ~print:show_case gen_case)
    (fun c ->
      let (got, got_ns), got_obs =
        observe_case (fun ~record -> Engine.run ~record) c
      in
      let (want, want_ns), want_obs =
        observe_case (fun ~record -> Engine_reference.run ~record) c
      in
      let same_result =
        match (got, want) with
        | Ok a, Ok b ->
            a.Engine.outputs = b.Engine.outputs
            && a.Engine.stats = b.Engine.stats
            && a.Engine.transcript = b.Engine.transcript
        | Error a, Error b -> a = b
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      same_result && got_ns = want_ns
      && got_obs.Obs.counters = want_obs.Obs.counters
      && got_obs.Obs.stats = want_obs.Obs.stats
      && got_obs.Obs.events = want_obs.Obs.events)

(* ------------------------------------------------------------------ *)
(* Tracefmt: transcript rendering and per-round statistics              *)
(* ------------------------------------------------------------------ *)

module Tracefmt = Lbc_sim.Tracefmt

let pp_str fmt s = Format.pp_print_string fmt s

let test_transmissions_by_round () =
  (* Insertion order scrambled; rounds 1 and 4 empty. *)
  let transcript =
    [
      (3, 0, Engine.Broadcast "c");
      (0, 1, Engine.Broadcast "a");
      (3, 2, Engine.Unicast (1, "d"));
      (0, 0, Engine.Broadcast "b");
      (5, 0, Engine.Broadcast "e");
    ]
  in
  Alcotest.(check (list (pair int int)))
    "round order, empty rounds omitted"
    [ (0, 2); (3, 2); (5, 1) ]
    (Tracefmt.transmissions_by_round transcript)

let test_transmissions_by_round_empty () =
  Alcotest.(check (list (pair int int)))
    "empty transcript" []
    (Tracefmt.transmissions_by_round ([] : (int * int * string Engine.delivery) list))

let test_pp_transcript_rendering () =
  let transcript =
    [
      (0, 2, Engine.Broadcast "hello");
      (0, 3, Engine.Unicast (1, "psst"));
      (2, 0, Engine.Broadcast "bye");
    ]
  in
  let out = Format.asprintf "%a" (Tracefmt.pp_transcript ~pp_msg:pp_str) transcript in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  check "round 0 header" true (contains "-- round 0 --");
  check "round 2 header" true (contains "-- round 2 --");
  check "no round 1 header" false (contains "-- round 1 --");
  check "broadcast renders => *" true (contains "2 => *: hello");
  check "unicast renders -> dst" true (contains "3 -> 1: psst");
  check "later round after header" true (contains "0 => *: bye")

let test_pp_stats () =
  let s = { Engine.rounds = 7; transmissions = 42; deliveries = 84 } in
  Alcotest.(check string)
    "one-line summary" "7 rounds, 42 transmissions, 84 deliveries"
    (Format.asprintf "%a" Tracefmt.pp_stats s)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "broadcast delivery" `Quick test_broadcast_delivery;
          Alcotest.test_case "inbox ordering" `Quick test_inbox_ordering;
          Alcotest.test_case "identical reception" `Quick
            test_local_broadcast_identical;
          Alcotest.test_case "no unicast under LBC" `Quick
            test_unicast_forbidden_lbc;
          Alcotest.test_case "unicast under p2p" `Quick test_unicast_allowed_p2p;
          Alcotest.test_case "hybrid enforcement" `Quick test_hybrid_enforcement;
          Alcotest.test_case "unicast needs link" `Quick test_unicast_needs_link;
          Alcotest.test_case "directed topology" `Quick test_directed_topology;
          Alcotest.test_case "stats and transcript" `Quick
            test_stats_and_transcript;
          Alcotest.test_case "roles length" `Quick test_role_length_mismatch;
          Alcotest.test_case "zero rounds" `Quick test_zero_rounds;
          Alcotest.test_case "transcript off by default" `Quick
            test_transcript_off_by_default;
          Alcotest.test_case "last round boundary" `Quick
            test_last_round_transmissions_not_delivered;
        ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_engine_matches_reference ]);
      ( "tracefmt",
        [
          Alcotest.test_case "transmissions by round" `Quick
            test_transmissions_by_round;
          Alcotest.test_case "transmissions by round (empty)" `Quick
            test_transmissions_by_round_empty;
          Alcotest.test_case "transcript rendering" `Quick
            test_pp_transcript_rendering;
          Alcotest.test_case "stats one-liner" `Quick test_pp_stats;
        ] );
    ]
