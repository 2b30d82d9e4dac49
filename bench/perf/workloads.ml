module C = Lbc_campaign
module B = Lbc_graph.Builders
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module S = Lbc_adversary.Strategy

type kind = Exact | Durable

type t = {
  name : string;
  kind : kind;
  grid : seed:int -> C.Grid.t;
  base_seed : seed:int -> pass:int -> int;
}

(* The tag keeps two workloads at the same seed from drawing the same
   stream. *)
let rng ~tag ~seed = Random.State.make [| tag; seed |]

(* Honest nodes start with [b], faulty ones with its flip — the strongest
   configuration for the validity check (as Grid.unanimous_inputs). *)
let polarity_inputs n ~faulty b =
  Array.init n (fun v -> if Nodeset.mem v faulty then Bit.flip b else b)

let two_set st n =
  let x = Random.State.int st n in
  let y = (x + 1 + Random.State.int st (n - 1)) mod n in
  Nodeset.of_list [ x; y ]

(* C8(1,2) is circulant, so a fault pair {a, a+d} is isomorphic to
   {0, d}: one pair per distance d = 1..4 covers all 28 pairs up to
   isomorphism, and the seed only rotates them. That keeps the cost mix of
   a pass the same at every seed: the median falls among the omit-from
   scenarios and p90 among the flip-forwards ones, away from a mode
   boundary. *)
let fig1b_a2 =
  let n = 8 in
  let grid ~seed =
    let st = rng ~tag:1 ~seed in
    let scenarios =
      List.concat_map
        (fun d ->
          let a = Random.State.int st n in
          let faulty = Nodeset.of_list [ a; (a + d) mod n ] in
          let omitted = two_set st n in
          List.map
            (fun strategy ->
              let b = Bit.of_bool (Random.State.bool st) in
              C.Scenario.make ~gname:"fig1b" ~build:B.fig1b
                ~algo:C.Scenario.A2 ~f:2 ~faulty ~strategy
                ~inputs:(polarity_inputs n ~faulty b) ())
            [ S.Silent; S.Noise 2; S.Omit_from omitted; S.Lie; S.Flip_forwards ])
        [ 1; 2; 3; 4 ]
    in
    C.Grid.of_list ~name:"fig1b-a2" scenarios
  in
  { name = "fig1b-a2"; kind = Exact; grid; base_seed = (fun ~seed ~pass:_ -> seed) }

(* One draw of (fault node, input vector) a pass: a single scenario at
   n = 64 already takes seconds. *)
let cycle_a2 ~n =
  let name = Printf.sprintf "cycle%d-a2" n in
  let grid ~seed =
    let st = rng ~tag:2 ~seed in
    let faulty = Nodeset.singleton (Random.State.int st n) in
    let inputs = Array.init n (fun _ -> Bit.of_bool (Random.State.bool st)) in
    C.Grid.of_list ~name
      [
        C.Scenario.make ~gname:(Printf.sprintf "cycle:%d" n)
          ~build:(fun () -> B.cycle n)
          ~algo:C.Scenario.A2 ~f:1 ~faulty ~strategy:S.Flip_forwards ~inputs
          ();
      ]
  in
  { name; kind = Exact; grid; base_seed = (fun ~seed ~pass:_ -> seed) }

let cycle5_exhaustive =
  {
    name = "cycle5-exhaustive";
    kind = Exact;
    grid = (fun ~seed:_ -> { (C.Grids.e1 ()) with C.Grid.name = "cycle5-exhaustive" });
    base_seed = (fun ~seed ~pass -> (10 * seed) + pass);
  }

let durable_chaos =
  {
    name = "durable-chaos";
    kind = Durable;
    grid =
      (fun ~seed:_ ->
        C.Grid.append ~name:"durable-chaos" [ C.Grids.edeg (); C.Grids.e15 () ]);
    base_seed = (fun ~seed ~pass -> (40 * seed) + pass);
  }

let all = [ fig1b_a2; cycle_a2 ~n:64; cycle5_exhaustive; durable_chaos ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
