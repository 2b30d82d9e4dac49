(* End-to-end tests for Algorithm 2 (Theorem 5.6): consensus in O(n)
   rounds on 2f-connected graphs, soundness of fault discovery, and the
   type A / type B mechanics. *)

module A2 = Lbc_consensus.Algorithm2
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ok_decides uni o =
  Spec.agreement o && Spec.validity o && Spec.decision o = Some uni

let test_no_faults () =
  let g = B.cycle 6 in
  List.iter
    (fun uni ->
      let o =
        A2.run ~g ~f:1 ~inputs:(Array.make 6 uni) ~faulty:Nodeset.empty ()
      in
      check "decides unanimous" true (ok_decides uni o))
    [ Bit.Zero; Bit.One ];
  let o =
    A2.run ~g ~f:1
      ~inputs:[| Bit.Zero; Bit.One; Bit.One; Bit.Zero; Bit.One; Bit.Zero |]
      ~faulty:Nodeset.empty ()
  in
  check "mixed consensus" true (Spec.consensus_ok o)

let test_cycle_f1_exhaustive () =
  let g = B.fig1a () in
  List.iter
    (fun uni ->
      List.iter
        (fun kind ->
          List.iter
            (fun bad ->
              let inputs = Array.make 5 uni in
              inputs.(bad) <- Bit.flip uni;
              let o =
                A2.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
                  ~strategy:(fun _ -> kind) ()
              in
              check
                (Format.asprintf "uni=%a bad=%d %a" Bit.pp uni bad S.pp_kind
                   kind)
                true (ok_decides uni o))
            [ 0; 1; 2; 3; 4 ])
        S.kinds_lbc)
    [ Bit.Zero; Bit.One ]

let test_omission_regression () =
  (* Regression: a silent (or crashing) relay with mixed inputs used to
     break agreement — the tamper-only fault discovery of Appendix C
     leaves omissions undetected and Lemma C.4 fails. Concrete instances
     found by the adversarial sweep (random_augmented_circulant seeds 0,
     1, 2 on 5 nodes). The omission-evidence extension repairs them. *)
  List.iter
    (fun (seed, bad, kind) ->
      let g = B.random_augmented_circulant ~seed ~n:5 ~k:2 ~extra:0.15 in
      let st = Random.State.make [| seed; 3 |] in
      let inputs =
        Array.init 5 (fun _ -> Bit.of_bool (Random.State.bool st))
      in
      let bad' = Random.State.int st 5 in
      ignore bad;
      let o =
        A2.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad')
          ~strategy:(fun _ -> kind) ~seed ()
      in
      check
        (Printf.sprintf "seed %d" seed)
        true (Spec.consensus_ok o))
    [ (0, 1, S.Silent); (0, 1, S.Crash_at 1); (0, 1, S.Crash_at 2);
      (1, 4, S.Silent); (2, 2, S.Silent); (5, 3, S.Crash_at 1);
      (7, 0, S.Silent); (8, 3, S.Crash_at 2) ]

let test_noise_regression () =
  (* Regression: a noisy fault injecting short-path messages in late
     rounds made honest relays look omissive (their forced forwards fell
     off the end of the phase), splitting the type-B value sets. Fixed by
     the synchronous timing check in flooding rule (i). *)
  let g = B.cycle 5 in
  let inputs = [| Bit.Zero; Bit.One; Bit.Zero; Bit.Zero; Bit.One |] in
  let o, reps =
    A2.run_detailed ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton 0)
      ~strategy:(fun _ -> S.Noise 2) ~seed:3 ()
  in
  check "consensus" true (Spec.consensus_ok o);
  Array.iter
    (function
      | Some r ->
          check "only the noisy fault accused" true
            (Nodeset.subset r.A2.detected (Nodeset.singleton 0))
      | None -> ())
    reps

let test_detection_soundness () =
  (* Whatever the strategy, no honest node may be accused. *)
  let g = B.fig1a () in
  List.iter
    (fun kind ->
      List.iter
        (fun bad ->
          let inputs = Array.make 5 Bit.Zero in
          inputs.(bad) <- Bit.One;
          let _, reps =
            A2.run_detailed ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
              ~strategy:(fun _ -> kind) ()
          in
          Array.iter
            (function
              | Some r ->
                  check "only faulty accused" true
                    (Nodeset.subset r.A2.detected (Nodeset.singleton bad))
              | None -> ())
            reps)
        [ 0; 2; 4 ])
    S.kinds_lbc

let test_detection_completeness_flip () =
  (* A flip-forwarding fault on the cycle tampers messages on the paths
     through it, so distant nodes become type A. *)
  let g = B.fig1a () in
  let inputs = [| Bit.Zero; Bit.Zero; Bit.One; Bit.Zero; Bit.Zero |] in
  let _, reps =
    A2.run_detailed ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton 2)
      ~strategy:(fun _ -> S.Flip_forwards) ()
  in
  let type_a_count =
    Array.fold_left
      (fun acc -> function Some r when r.A2.type_a -> acc + 1 | _ -> acc)
      0 reps
  in
  check "someone identified the fault" true (type_a_count > 0);
  Array.iter
    (function
      | Some r when r.A2.type_a ->
          check "identified correctly" true
            (Nodeset.equal r.A2.detected (Nodeset.singleton 2))
      | _ -> ())
    reps

let test_fig1b_f2 () =
  let g = B.fig1b () in
  List.iter
    (fun (i, j) ->
      List.iter
        (fun uni ->
          let inputs = Array.make 8 uni in
          inputs.(i) <- Bit.flip uni;
          inputs.(j) <- Bit.flip uni;
          let o =
            A2.run ~g ~f:2 ~inputs ~faulty:(Nodeset.of_list [ i; j ])
              ~strategy:(fun v -> if v = i then S.Flip_forwards else S.Lie)
              ()
          in
          check (Printf.sprintf "pair (%d,%d)" i j) true (ok_decides uni o))
        [ Bit.Zero; Bit.One ])
    [ (0, 1); (2, 6); (3, 5) ]

let test_rounds_linear () =
  (* Theorem 5.6: 3 phases of n rounds each (+1 delivery round for the
     reports, see Algorithm2's interface documentation). *)
  List.iter
    (fun n ->
      let g = B.cycle n in
      check_int
        (Printf.sprintf "rounds n=%d" n)
        ((3 * n) + 1)
        (A2.rounds ~g);
      let o =
        A2.run ~g ~f:1 ~inputs:(Array.make n Bit.One) ~faulty:Nodeset.empty ()
      in
      check_int "measured" ((3 * n) + 1) o.Spec.rounds)
    [ 5; 8; 11 ]

let test_larger_cycle_with_fault () =
  let g = B.cycle 9 in
  let inputs = Array.make 9 Bit.One in
  inputs.(4) <- Bit.Zero;
  let o =
    A2.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton 4)
      ~strategy:(fun _ -> S.Flip_forwards) ()
  in
  check "consensus on C9" true (ok_decides Bit.One o)

let test_torus_f2 () =
  (* 3x3 torus is 4-regular and 4-connected = 2f for f = 2. *)
  let g = B.torus 3 3 in
  let inputs = Array.make 9 Bit.Zero in
  inputs.(0) <- Bit.One;
  inputs.(4) <- Bit.One;
  let o =
    A2.run ~g ~f:2 ~inputs ~faulty:(Nodeset.of_list [ 0; 4 ])
      ~strategy:(fun v -> if v = 0 then S.Lie else S.Flip_forwards) ()
  in
  check "consensus on torus" true (ok_decides Bit.Zero o)

let prop_random_f1_cycleplus =
  QCheck.Test.make ~name:"random 2-connected graphs, f=1" ~count:10
    QCheck.(triple (int_range 5 8) (int_range 0 999) (int_range 0 5))
    (fun (n, seed, kind_idx) ->
      (* guard out-of-range shrink candidates so shrinking stays valid *)
      if n < 5 || n > 8 || seed < 0 then true
      else begin
      let g = B.random_augmented_circulant ~seed ~n ~k:2 ~extra:0.15 in
      let st = Random.State.make [| seed; 3 |] in
      let inputs = Array.init n (fun _ -> Bit.of_bool (Random.State.bool st)) in
      let bad = Random.State.int st n in
      let kind = List.nth S.kinds_lbc (kind_idx mod List.length S.kinds_lbc) in
      let o =
        A2.run ~g ~f:1 ~inputs ~faulty:(Nodeset.singleton bad)
          ~strategy:(fun _ -> kind) ~seed ()
      in
      Spec.consensus_ok o
      end)

(* Phase-2 claim encoding. A report list is flooded as its claim-key
   array; every property below compares that array with the structural
   reading of the list it came from. The lists mix honest-looking paths
   (walks of the graph), junk paths (nodes out of range included, as
   Noise puts into heard logs), exact duplicates, and both values for
   one (z, path). *)
type entry = int * (Bit.t * int list)
(* A report (z, m) with m as (value, path): wires hold their table, so
   the lists are built, compared and flipped in this form. *)

let compare_entry ((z1, (v1, p1)) : entry) ((z2, (v2, p2)) : entry) =
  match Int.compare z1 z2 with
  | 0 -> (
      match Bit.compare v1 v2 with
      | 0 -> List.compare Int.compare p1 p2
      | c -> c)
  | c -> c

let as_set l = List.sort_uniq compare_entry l
let flip_entries l = List.map (fun (z, (v, p)) -> (z, (Bit.flip v, p))) l
let reports t l = List.map (fun (z, (v, p)) -> (z, Lbc_flood.Flood.wire t v p)) l

let entries (l : A2.report list) =
  List.map
    (fun (z, (m : Bit.t Lbc_flood.Flood.wire)) ->
      (z, (m.Lbc_flood.Flood.value, Lbc_flood.Flood.wire_path m)))
    l

(* A random graph and two report lists over it: [l2] is [l1] shuffled
   with more duplicates, or [l1] with one entry dropped, added, or its
   value flipped, so equal and unequal pairs both occur often. *)
let claims_case (n, seed) =
  let g = B.random_augmented_circulant ~seed ~n ~k:2 ~extra:0.3 in
  let st = Random.State.make [| seed; 27 |] in
  let int k = Random.State.int st k in
  let path () =
    match int 3 with
    | 0 ->
        (* a walk of the graph *)
        let rec walk u k acc =
          if k = 0 then List.rev acc
          else
            let nb = G.neighbor_list g u in
            let v = List.nth nb (int (List.length nb)) in
            walk v (k - 1) (v :: acc)
        in
        let u = int n in
        walk u (int n) [ u ]
    | 1 -> []
    | _ -> List.init (int (n + 2)) (fun _ -> int (n + 2) - 1)
  in
  let entry () : entry =
    (int n, (Bit.of_int (int 2), path ()))
  in
  let l1 = List.init (int 25) (fun _ -> entry ()) in
  let l1 =
    List.concat_map
      (fun ((z, m) as e) ->
        match int 4 with
        | 0 -> [ e; e ]
        | 1 -> [ e; (z, (Bit.flip (fst m), snd m)) ]
        | _ -> [ e ])
      l1
  in
  let shuffle l =
    List.map (fun e -> (int 1000, e)) l
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  let l2 =
    match (int 4, l1) with
    | 0, _ | _, [] -> shuffle (l1 @ List.filter (fun _ -> int 3 = 0) l1)
    | 1, _ :: rest -> shuffle rest
    | 2, _ -> shuffle (entry () :: l1)
    | _, (z, m) :: rest ->
        shuffle
          ((z, (Bit.flip (fst m), snd m)) :: rest)
  in
  let queries = List.init 20 (fun _ -> entry ()) @ l1 @ flip_entries l1 in
  (g, l1, l2, queries)

let prop_claims =
  QCheck.Test.make ~name:"claims = structural report lists" ~count:300
    QCheck.(pair (int_range 4 8) (int_bound 9999))
    (fun ((n, seed) as case) ->
      if n < 4 || n > 8 || seed < 0 then true
      else begin
        let g, l1, l2, queries = claims_case case in
        let t = Lbc_flood.Path_intern.create g in
        let c1 = A2.encode t (reports t l1) and c2 = A2.encode t (reports t l2) in
        (* Wires of another table are read through their paths. *)
        let foreign =
          A2.encode t (reports (Lbc_flood.Path_intern.create g) l1) = c1
        in
        let equal_iff =
          (A2.compare_claims c1 c2 = 0) = (as_set l1 = as_set l2)
          && (A2.compare_claims c1 c2 = 0) = (c1 = c2)
        in
        let flip_commutes =
          A2.flip_claims c1 = A2.encode t (reports t (flip_entries l1))
          && A2.flip_claims (A2.flip_claims c1) = c1
        in
        let mem_agrees =
          List.for_all
            (fun ((z, (v, path)) as e) ->
              A2.mem_claim t c1 ~z ~m:(Lbc_flood.Flood.wire t v path)
              = List.exists (fun e' -> compare_entry e e' = 0) l1
              && A2.mem_key t c1 ~z ~path
                 = List.exists (fun (z', (_, p')) -> z' = z && p' = path) l1)
            queries
        in
        let decodes =
          as_set (entries (A2.decode t c1)) = as_set l1
          && List.length (A2.decode t c1) = List.length (as_set l1)
          && A2.encode t (A2.decode t c1) = c1
        in
        equal_iff && foreign && flip_commutes && mem_agrees && decodes
      end)

(* A claim key means something only in the table that made it: a scope
   over another table is refused. *)
let test_scope_other_table () =
  let g = B.cycle 5 in
  let t =
    A2.run_traced ~g ~f:1 ~inputs:(Array.make 5 Bit.One)
      ~faulty:(Nodeset.singleton 2) ()
  in
  match t.A2.store2.(0) with
  | None -> Alcotest.fail "node 0 is honest"
  | Some store2 ->
      Alcotest.check_raises "scope over a foreign table"
        (Invalid_argument "Algorithm2: scope over another path intern table")
        (fun () ->
          ignore
            (A2.attribution_index
               ~scope:(A2.create_scope (Lbc_flood.Path_intern.create g))
               g ~me:0 ~heard:t.A2.heard.(0) ~store2))

(* The scope that run_traced shares across its honest nodes changes
   nothing, and neither does discover's prefix memo. Each honest node's
   fault discovery is replayed twice on the run's own stores: standalone
   (no scope, so every call builds its own), and through one shared scope
   visited in node order, as run_traced does. Both must reproduce the
   run's node report, trace the same evidence in the same order, and
   record the same counters. A third side, [plain_scan], runs the scan
   with no memo and no interning: every step of every path of the
   fresh-network reference families, asked through the public
   list-keyed queries. Its detected set, evidence sequence and evidence
   counts must equal the replays'. On fig1b the two faults both flip
   forwards, so a report list flipped twice — structurally equal to the
   original, physically a different list — reaches the attribution
   indexes. *)
let replay ?scope g ~f ~(t : A2.traced) v =
  match (t.A2.store1.(v), t.A2.store2.(v)) with
  | Some store1, Some store2 ->
      let trace = ref [] in
      let (learns, detected), obs =
        Lbc_obs.Obs.record (fun () ->
            let learns =
              A2.attribution_index ?scope g ~me:v ~heard:t.A2.heard.(v) ~store2
            in
            ( learns,
              A2.discover g ~f ~me:v ~store1 ~learns
                ~trace:(fun ~w ~u ~path ~z ~kind ->
                  trace := (w, u, path, z, kind) :: !trace)
                () ))
      in
      (* Each piece of evidence the scan found is also what the public,
         list-keyed queries answer for the same sender and prefix. *)
      let agrees (w, _, path, z, kind) =
        let rec prefix acc = function
          | x :: rest when x <> z -> prefix (x :: acc) rest
          | _ -> List.rev acc
        in
        let prefix = prefix [] path in
        match kind with
        | "tamper" ->
            List.exists
              (fun b ->
                A2.sent learns ~f ~z
                  ~m:(Lbc_flood.Flood.wire (Lbc_flood.Flood.paths store2) (Bit.flip b) prefix))
              (Lbc_flood.Flood.reliable_values ~f store1 ~origin:w)
        | _ -> A2.silent_on learns ~f ~z ~path:prefix
      in
      let trace = List.rev !trace in
      Some (detected, trace, obs.Lbc_obs.Obs.counters, List.for_all agrees trace)
  | _ -> None

(* The run's path intern table, which all its flood stores share. *)
let run_table (t : A2.traced) =
  match List.find_map Fun.id (Array.to_list t.A2.store2) with
  | Some store2 -> Lbc_flood.Flood.paths store2
  | None -> invalid_arg "run_table: no honest node"

(* An attribution query of the plain scan, for checking its answers. *)
type query =
  | Sent of int * Bit.t * int list
  | Silent of int * int list

let plain_scan ?scope ?(answered = fun _ _ -> ()) g ~f ~(t : A2.traced) v =
  match (t.A2.store1.(v), t.A2.store2.(v)) with
  | Some store1, Some store2 ->
      let learns =
        A2.attribution_index ?scope g ~me:v ~heard:t.A2.heard.(v) ~store2
      in
      let ask q =
        let a =
          match q with
          | Sent (z, value, path) ->
              A2.sent learns ~f ~z
                ~m:(Lbc_flood.Flood.wire (Lbc_flood.Flood.paths store2) value path)
          | Silent (z, path) -> A2.silent_on learns ~f ~z ~path
        in
        answered q a;
        a
      in
      let detected = ref Nodeset.empty and trace = ref [] in
      let tamper = ref 0 and omission = ref 0 in
      let n = G.size g in
      for w = 0 to n - 1 do
        List.iter
          (fun b ->
            let value = Bit.flip b in
            for u = 0 to n - 1 do
              if u <> w then
                List.iter
                  (fun path ->
                    let found z kind count =
                      trace := (w, u, path, z, kind) :: !trace;
                      incr count;
                      detected := Nodeset.add z !detected
                    in
                    let rec scan before = function
                      | [] -> ()
                      | z :: rest ->
                          let prefix = List.rev before in
                          if
                            z <> v
                            && ask (Sent (z, value, prefix))
                          then found z "tamper" tamper
                          else if z <> v && ask (Silent (z, prefix)) then
                            found z "omission" omission
                          else scan (z :: before) rest
                    in
                    scan [] path)
                  (Disjoint_reference.disjoint_uv_paths ~limit:(2 * f) g ~u:w
                     ~v:u)
            done)
          (Lbc_flood.Flood.reliable_values ~f store1 ~origin:w)
      done;
      let counts =
        List.filter
          (fun (_, c) -> c > 0)
          [ ("a2.evidence.omission", !omission); ("a2.evidence.tamper", !tamper) ]
      in
      Some (!detected, List.rev !trace, counts)
  | _ -> None

let evidence_counters =
  List.filter (fun (name, _) ->
      String.starts_with ~prefix:"a2.evidence." name)

let scope_case =
  let kinds = Array.of_list S.kinds_lbc in
  let gen =
    QCheck.Gen.(
      triple bool (int_range 0 9999) (int_bound (Array.length kinds - 1)))
  in
  let print (fig, seed, k) =
    if fig then Printf.sprintf "fig1b f=2 flip+flip seed=%d" seed
    else Format.asprintf "cycle:7 f=1 %a seed=%d" S.pp_kind kinds.(k) seed
  in
  (QCheck.make ~print gen, kinds)

(* One run of a [scope_case]: the graph, f, and the run's white-box
   view. *)
let scope_run kinds (fig, seed, k) =
  let st = Random.State.make [| seed; 14 |] in
  let g, f, faulty, kind =
    if fig then
      let i = Random.State.int st 8 in
      let j = (i + 1 + Random.State.int st 7) mod 8 in
      (B.fig1b (), 2, Nodeset.of_list [ i; j ], S.Flip_forwards)
    else (B.cycle 7, 1, Nodeset.singleton (Random.State.int st 7), kinds.(k))
  in
  let inputs =
    Array.init (G.size g) (fun _ -> Bit.of_bool (Random.State.bool st))
  in
  (g, f, A2.run_traced ~g ~f ~inputs ~faulty ~strategy:(fun _ -> kind) ~seed ())

let prop_scope_transparent =
  let arb, kinds = scope_case in
  QCheck.Test.make ~name:"shared scope = standalone per-node replay" ~count:24
    arb (fun case ->
      let g, f, t = scope_run kinds case in
      let shared = A2.create_scope (run_table t) in
      List.for_all
        (fun v ->
          match
            ( t.A2.node_reports.(v),
              replay g ~f ~t v,
              replay ~scope:shared g ~f ~t v,
              plain_scan g ~f ~t v )
          with
          | None, None, None, None -> true
          | ( Some r,
              Some (alone, trace, obs, ok),
              Some (alone', trace', obs', _),
              Some (plain, trace'', counts) ) ->
              ok
              && Nodeset.equal r.A2.detected alone
              && r.A2.type_a = (Nodeset.cardinal alone = f)
              && Nodeset.equal alone alone' && trace = trace' && obs = obs'
              && Nodeset.equal alone plain && trace = trace''
              && evidence_counters obs = counts
          | _ -> false)
        (G.nodes g))

(* The three sides of the property above share the attribution code, so
   a wrong report-list index could pass it. Here every query a plain scan
   makes, through one scope shared by the honest nodes in node order as a
   run shares it, is answered again by the list-keyed reference, which
   has no scope and compares lists by structure only. *)
let agrees_with_reference g ~f ~(t : A2.traced) =
  let scope = A2.create_scope (run_table t) in
  List.for_all
    (fun v ->
      match t.A2.store2.(v) with
      | None -> true
      | Some store2 ->
          let r =
            Attribution_reference.create g ~me:v ~heard:t.A2.heard.(v) ~store2
          in
          let ok = ref true in
          let answered q a =
            let want =
              match q with
              | Sent (z, value, path) ->
                  Attribution_reference.sent r ~f ~z ~value ~path
              | Silent (z, path) ->
                  Attribution_reference.silent_on r ~f ~z ~path
            in
            if a <> want then ok := false
          in
          ignore (plain_scan ~scope ~answered g ~f ~t v);
          !ok)
    (G.nodes g)

let prop_attribution_reference =
  let arb, kinds = scope_case in
  QCheck.Test.make ~name:"attribution = list-keyed reference" ~count:24 arb
    (fun case ->
      let g, f, t = scope_run kinds case in
      agrees_with_reference g ~f ~t)

(* Does a scope shared as a run shares it (honest nodes in order, each
   node's records in arrival order) meet some honest reporter's list
   first as a flipped copy? Then that copy's index is built, and its
   paths interned, before the genuine list's. *)
let flipped_copy_met_first (t : A2.traced) =
  let genuine y = Option.bind t.A2.store2.(y) Lbc_flood.Flood.own_value in
  let met = Hashtbl.create 8 and found = ref false in
  Array.iter
    (Option.iter (fun store2 ->
         Lbc_flood.Flood.iter_records store2
           (fun ~origin ~path:_ ~sans_me:_ ~value ->
             if not (Hashtbl.mem met origin) then begin
               Hashtbl.replace met origin ();
               match genuine origin with
               | Some l when l <> value -> found := true
               | _ -> ()
             end)))
    t.A2.store2;
  !found

let test_flipped_copy_first () =
  let g = B.fig1b () in
  let t =
    A2.run_traced ~g ~f:2 ~inputs:(Array.make 8 Bit.Zero)
      ~faulty:(Nodeset.of_list [ 0; 4 ])
      ~strategy:(fun _ -> S.Flip_forwards) ()
  in
  check "a report list is met first as a flipped copy" true
    (flipped_copy_met_first t);
  check "attribution = list-keyed reference" true
    (agrees_with_reference g ~f:2 ~t)

(* The properties above are only meaningful on fig1b if double-flipped
   report lists really occur: some node must hold two records from one
   reporter whose lists are equal but not the same allocation. *)
let test_double_flip_occurs () =
  let g = B.fig1b () in
  let t =
    A2.run_traced ~g ~f:2 ~inputs:(Array.make 8 Bit.Zero)
      ~faulty:(Nodeset.of_list [ 0; 4 ])
      ~strategy:(fun _ -> S.Flip_forwards) ()
  in
  let twins store =
    let seen = Hashtbl.create 16 in
    let found = ref false in
    Lbc_flood.Flood.iter_records store
      (fun ~origin ~path:_ ~sans_me:_ ~value ->
        let same = Option.value (Hashtbl.find_opt seen origin) ~default:[] in
        if List.exists (fun l -> l = value && l != value) same then found := true;
        Hashtbl.replace seen origin (value :: same));
    !found
  in
  check "structurally equal, physically distinct report lists" true
    (Array.exists (function Some s -> twins s | None -> false) t.A2.store2)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "algorithm2"
    [
      ( "basic",
        [
          Alcotest.test_case "no faults" `Quick test_no_faults;
          Alcotest.test_case "rounds linear" `Quick test_rounds_linear;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "cycle f=1 exhaustive" `Slow
            test_cycle_f1_exhaustive;
          Alcotest.test_case "fig1b f=2" `Slow test_fig1b_f2;
          Alcotest.test_case "C9 with fault" `Quick test_larger_cycle_with_fault;
          Alcotest.test_case "torus f=2" `Slow test_torus_f2;
        ] );
      ( "detection",
        [
          Alcotest.test_case "soundness" `Slow test_detection_soundness;
          Alcotest.test_case "completeness (flip)" `Quick
            test_detection_completeness_flip;
          Alcotest.test_case "omission regression" `Quick
            test_omission_regression;
          Alcotest.test_case "noise regression" `Quick test_noise_regression;
        ] );
      ( "scope",
        [
          Alcotest.test_case "double flip occurs" `Quick test_double_flip_occurs;
          Alcotest.test_case "flipped copy met first" `Quick
            test_flipped_copy_first;
        ]
        @ qt [ prop_scope_transparent; prop_attribution_reference ] );
      ( "claims",
        Alcotest.test_case "scope over another table" `Quick
          test_scope_other_table
        :: qt [ prop_claims ] );
      ("properties", qt [ prop_random_f1_cycleplus ]);
    ]
