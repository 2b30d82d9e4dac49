module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit

type t = { name : string; scenarios : Scenario.t Seq.t }

let make ~name scenarios = { name; scenarios }
let of_list ~name scenarios = { name; scenarios = List.to_seq scenarios }

let append ~name grids =
  { name; scenarios = Seq.concat_map (fun g -> g.scenarios) (List.to_seq grids) }

let to_array t = Array.of_seq t.scenarios
let count t = Seq.length t.scenarios

let shards ~shard_size scenarios =
  if shard_size < 1 then invalid_arg "Grid.shards: shard_size < 1";
  let n = Array.length scenarios in
  let nshards = (n + shard_size - 1) / shard_size in
  Array.init nshards (fun i ->
      let lo = i * shard_size in
      (i, Array.sub scenarios lo (min shard_size (n - lo))))

let fingerprint scenarios =
  Array.to_list scenarios
  |> List.map (fun s -> Scenario.id s ^ "\n")
  |> String.concat "" |> Lbc_store.Store.fnv1a |> Printf.sprintf "%016x"

(* ------------------------------------------------------------------ *)
(* Cartesian products                                                  *)
(* ------------------------------------------------------------------ *)

let product ?(net = [ None ]) ?(chaos = [ None ]) ~name ~graphs ~algos
    ~placements ~strategies ~inputs () =
  let scenarios =
    Seq.concat_map
      (fun (gname, f) ->
        let build () =
          match Lbc_graph.Builders.of_spec gname with
          | Ok g -> g
          | Error msg -> invalid_arg ("Grid.product: " ^ msg)
        in
        (* One instance to drive enumeration; executions build afresh. *)
        let g = build () in
        Seq.concat_map
          (fun algo ->
            Seq.concat_map
              (fun faulty ->
                Seq.concat_map
                  (fun strategy ->
                    Seq.concat_map
                      (fun iv ->
                        Seq.concat_map
                          (fun np ->
                            Seq.map
                              (fun ch ->
                                Scenario.make ~gname ~build ~algo ~f ~faulty
                                  ~strategy ~inputs:iv ?chaos:ch ?net:np ())
                              (List.to_seq chaos))
                          (List.to_seq net))
                      (List.to_seq (inputs g ~faulty)))
                  (List.to_seq strategies))
              (List.to_seq (placements g ~f)))
          (List.to_seq algos))
      (List.to_seq graphs)
  in
  { name; scenarios }

let with_chaos spec t =
  {
    t with
    scenarios =
      Seq.map (fun s -> { s with Scenario.chaos = Some spec }) t.scenarios;
  }

let chaos_points specs = List.map Option.some specs

let with_net profile t =
  {
    t with
    scenarios =
      Seq.map (fun s -> { s with Scenario.net = Some profile }) t.scenarios;
  }

let net_points profiles = List.map Option.some profiles

(* ------------------------------------------------------------------ *)
(* Axis helpers                                                        *)
(* ------------------------------------------------------------------ *)

let singleton_placements g ~f:_ =
  List.map Nodeset.singleton (G.nodes g)

let placements_of_size k g ~f:_ =
  List.map Nodeset.of_list (Lbc_graph.Combi.combinations (G.nodes g) k)

let placements_up_to_f g ~f =
  List.map Nodeset.of_list (Lbc_graph.Combi.subsets_up_to (G.nodes g) f)

let unanimous_inputs g ~faulty =
  List.map
    (fun uni ->
      Array.init (G.size g) (fun v ->
          if Nodeset.mem v faulty then Bit.flip uni else uni))
    [ Bit.Zero; Bit.One ]

let all_inputs ?(cap = 12) g ~faulty:_ =
  let n = G.size g in
  if n > cap then
    invalid_arg
      (Printf.sprintf "Grid.all_inputs: 2^%d assignments exceed cap %d" n cap);
  List.init (1 lsl n) (fun code ->
      Array.init n (fun v -> Bit.of_int ((code lsr v) land 1)))
