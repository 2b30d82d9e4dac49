(* QCheck equivalence: the interned-path flooding store (lib/flood) vs
   the retained list-keyed reference implementation (flood_reference).

   Every honest node runs both stores in lock-step on the same engine
   inbox — so the comparison covers adversarial traffic (every
   broadcast-bound strategy) and chaos-perturbed delivery, not just
   clean floods — and must produce identical forwards each round and
   identical query results afterwards, whether each interned store has
   its own path intern table or all share one. A second property feeds
   single messages, each delivered twice, to stores sharing one table,
   so every rule-(ii) dedup decision is compared one by one. Also checks
   the packing certificate cache against fresh counts. *)

module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module Ref = Flood_reference
module S = Lbc_adversary.Strategy
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine
module P = Lbc_sim.Perturb
module Obs = Lbc_obs.Obs

(* One honest node driving both implementations on the same inbox.
   [paths], when given, is a path intern table shared by all the honest
   interned stores of the run. *)
let mirrored g ?paths ~me ~initiate ~default () : ('a, 'b) Engine.proc =
  let st =
    Flood.create g ~me ~vcompare:Int.compare ?paths ~initiate ~default ()
  in
  let rf = Ref.create g ~me ~initiate ~default () in
  let p = Flood.proc st in
  let q = Ref.proc rf in
  let step ~round ~inbox =
    let out = p.Engine.step ~round ~inbox in
    let out' = q.Engine.step ~round ~inbox in
    if out <> out' then
      QCheck.Test.fail_reportf "node %d round %d: forwards diverge" me round;
    out
  in
  { Engine.step; output = (fun () -> (st, rf)) }

let chaos_specs =
  [
    P.zero;
    { P.zero with P.drop = 0.15 };
    { P.zero with P.dup = 0.2 };
    { P.zero with P.delay = 1; delay_p = 0.3 };
    { P.zero with P.drop = 0.1; delay = 2; delay_p = 0.2 };
  ]

let subset_of_seed seed n =
  List.filter (fun v -> (seed lsr v) land 1 = 1) (List.init n Fun.id)
  |> Nodeset.of_list

(* Compare every observable query of the two stores. *)
let compare_stores g ~f (st, rf) =
  let n = G.size g in
  let me = Flood.me st in
  let recs = Flood.records st in
  if recs <> Ref.records rf then
    QCheck.Test.fail_reportf "node %d: records diverge" me;
  List.iter
    (fun (_, path, _) ->
      if Flood.value_along st ~path <> Ref.value_along rf ~path then
        QCheck.Test.fail_reportf "node %d: value_along diverges" me)
    recs;
  assert (Flood.value_along st ~path:[ n + 3; me ] = None);
  for origin = 0 to n - 1 do
    let vs = Flood.origin_values st ~origin in
    if vs <> Ref.origin_values rf ~origin then
      QCheck.Test.fail_reportf "node %d origin %d: origin_values diverge" me
        origin;
    if Flood.reliable_values ~f st ~origin <> Ref.reliable_values ~f rf ~origin
    then
      QCheck.Test.fail_reportf "node %d origin %d: reliable_values diverge" me
        origin;
    if origin <> me then
      List.iter
        (fun value ->
          let excluded = subset_of_seed (origin + (7 * me)) n in
          let d =
            Flood.disjoint_count st ~origin ~value ~excluded ()
          in
          let d' = Ref.disjoint_count rf ~origin ~value ~excluded () in
          if d <> d' then
            QCheck.Test.fail_reportf
              "node %d origin %d: disjoint_count %d <> %d" me origin d d')
        vs
  done;
  let sources = Nodeset.of_list (List.init ((n / 2) + 1) Fun.id) in
  List.iter
    (fun value ->
      let d = Flood.disjoint_count_from_set st ~sources ~value () in
      let d' = Ref.disjoint_count_from_set rf ~sources ~value () in
      if d <> d' then
        QCheck.Test.fail_reportf "node %d: disjoint_count_from_set %d <> %d" me
          d d')
    (Flood.origin_values st ~origin:(Nodeset.min_elt sources))

let equivalence =
  QCheck.Test.make ~name:"interned flood = reference flood" ~count:60
    QCheck.(
      quad (int_range 5 8) (int_bound 1000)
        (int_bound (List.length S.kinds_lbc - 1))
        (int_bound (List.length chaos_specs - 1)))
    (fun (n, seed, kind_i, chaos_i) ->
      let g = B.random_augmented_circulant ~seed ~n ~k:2 ~extra:0.3 in
      let faulty = seed mod n in
      let kind = List.nth S.kinds_lbc kind_i in
      (* Each case runs twice: every store with its own intern table, then
         all sharing one. *)
      List.iter
        (fun paths ->
          let roles =
            Array.init n (fun v ->
                if v = faulty then
                  Engine.Faulty
                    (S.fstep kind ~g ~me:v ~vcompare:Int.compare
                       ~input:(100 + v) ~default:(-1)
                       ~flip:(fun x -> -x)
                       ~seed)
                else
                  Engine.Honest
                    (mirrored g ?paths ~me:v ~initiate:(100 + v) ~default:(-1)
                       ()))
          in
          let topo = Engine.topology_of_graph g in
          let rounds = Flood.rounds_needed g + 3 in
          let r =
            P.with_chaos (List.nth chaos_specs chaos_i) ~seed:(seed + 1)
              (fun () ->
                Engine.run topo ~model:Engine.Local_broadcast ~rounds ~roles)
          in
          Array.iteri
            (fun v out ->
              match out with
              | Some pair when v <> faulty -> compare_stores g ~f:1 pair
              | _ -> ())
            r.Engine.outputs)
        [ None; Some (Lbc_flood.Path_intern.create g) ];
      true)

(* Rule (ii) on a shared intern table: the dedup key is a trie id that
   every store of the table shares, but each store must remember only
   what it received itself. Messages are random walks w0..wk: the wire
   path w0..w(k-1) transmitted by wk to a random node, mostly in the
   round its length asks for; walks that revisit a node, receivers that
   are not wk's neighbours and off-by-one rounds exercise rule (i), and
   receivers on the path rule (iii). Each message goes to its receiver
   twice (the second copy is a dedup) and then to a second receiver.
   Every [handle] result, the default synthesis and the records must
   equal the reference's. *)
let handle_shared =
  QCheck.Test.make ~name:"shared-table dedup decisions = reference"
    ~count:200
    QCheck.(
      triple (int_range 4 8) (int_bound 1000)
        (list_of_size (Gen.int_range 1 40)
           (quad (int_bound 1000) (int_bound 6) (int_bound 1000)
              (int_range (-1) 4))))
    (fun (n, seed, msgs) ->
      let g = B.random_augmented_circulant ~seed ~n ~k:2 ~extra:0.3 in
      let paths = Lbc_flood.Path_intern.create g in
      let stores =
        Array.init n (fun me ->
            ( Flood.create g ~me ~vcompare:Int.compare ~paths ~initiate:me
                ~default:(-1) (),
              Ref.create g ~me ~initiate:me ~default:(-1) () ))
      in
      let deliver v ~round ~from m =
        let st, rf = stores.(v) in
        if Flood.handle st ~round ~from m <> Ref.handle rf ~round ~from m then
          QCheck.Test.fail_reportf "node %d: handle diverges from %d" v from
      in
      List.iteri
        (fun i (w0, k, walk, jitter) ->
          let st = Random.State.make [| seed; walk |] in
          let pick l = List.nth l (Random.State.int st (List.length l)) in
          let rec go acc u k =
            if k = 0 then (List.rev acc, u)
            else go (u :: acc) (pick (G.neighbor_list g u)) (k - 1)
          in
          let path, from = go [] (w0 mod n) k in
          let m = { Flood.value = i; path } in
          let round = List.length path + 1 + if jitter > 2 then 0 else jitter in
          let v = pick (G.neighbor_list g from) in
          let v = if jitter = -1 then (v + 1) mod n else v in
          deliver v ~round ~from m;
          deliver v ~round ~from m;
          deliver ((v + 1 + (walk mod (n - 1))) mod n) ~round ~from m)
        msgs;
      Array.iter
        (fun (st, rf) ->
          if Flood.synthesize_defaults st <> Ref.synthesize_defaults rf then
            QCheck.Test.fail_reportf "node %d: defaults diverge" (Flood.me st);
          if Flood.records st <> Ref.records rf then
            QCheck.Test.fail_reportf "node %d: records diverge" (Flood.me st))
        stores;
      true)

(* The packing certificate cache must be a pure memo of Packing.count:
   same result as a fresh computation, for any interleaving of queries
   and limits, and a repeated query must hit. *)
let cache_matches_fresh =
  QCheck.Test.make ~name:"packing cache = fresh count" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 8)
           (list_of_size (Gen.int_bound 6) (int_bound 50)))
        (int_range (-1) 6))
    (fun (nodelists, limit) ->
      let masks = List.map Packing.mask_of_nodes nodelists in
      let cache = Packing.Cache.create () in
      let fresh = Packing.count masks ~limit in
      let (a, b, c), rep =
        Obs.record (fun () ->
            let a = Packing.Cache.count cache masks ~limit in
            (* interleave a different query, then repeat the first *)
            let b = Packing.Cache.count cache masks ~limit:(limit + 1) in
            let c = Packing.Cache.count cache masks ~limit in
            (a, b, c))
      in
      if a <> fresh || c <> fresh then
        QCheck.Test.fail_reportf "cached %d/%d <> fresh %d" a c fresh;
      if b <> Packing.count masks ~limit:(limit + 1) then
        QCheck.Test.fail_report "interleaved limit diverges";
      let counter name =
        try List.assoc name rep.Obs.counters with Not_found -> 0
      in
      (* repeating the first query must hit; with limit <= 0 the a/c
         queries bypass the cache and only the interleaved limit+1 query
         may record (a single miss) *)
      if limit > 0 then counter "packing.cache_hit" >= 1
      else
        counter "packing.cache_hit" = 0 && counter "packing.cache_miss" <= 1)

let () =
  Alcotest.run "flood_equiv"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest equivalence;
          QCheck_alcotest.to_alcotest handle_shared;
          QCheck_alcotest.to_alcotest cache_matches_fresh;
        ] );
    ]
