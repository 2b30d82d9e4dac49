module Flood = Lbc_flood.Flood
module Engine = Lbc_sim.Engine
module Nodeset = Lbc_graph.Nodeset

type kind =
  | Honest_behavior
  | Silent
  | Crash_at of int
  | Lie
  | Flip_forwards
  | Flip_from of Lbc_graph.Nodeset.t
  | Omit_from of Lbc_graph.Nodeset.t
  | Omit_sampled of int
  | Spurious of int
  | Noise of int
  | Equivocate

let broadcast_bound = function
  | Equivocate -> false
  | Honest_behavior | Silent | Crash_at _ | Lie | Flip_forwards | Flip_from _
  | Omit_from _ | Omit_sampled _ | Spurious _ | Noise _ ->
      true

let kinds_lbc =
  [
    Honest_behavior;
    Silent;
    Crash_at 1;
    Crash_at 2;
    Lie;
    Flip_forwards;
    Flip_from (Nodeset.of_list [ 0; 1 ]);
    Omit_from (Nodeset.of_list [ 0; 1 ]);
    Omit_sampled 3;
    Spurious 2;
    Noise 2;
  ]

let kinds_hybrid = kinds_lbc @ [ Equivocate ]

let pp_kind fmt = function
  | Honest_behavior -> Format.pp_print_string fmt "honest-behavior"
  | Silent -> Format.pp_print_string fmt "silent"
  | Crash_at r -> Format.fprintf fmt "crash-at-%d" r
  | Lie -> Format.pp_print_string fmt "lie"
  | Flip_forwards -> Format.pp_print_string fmt "flip-forwards"
  | Flip_from s -> Format.fprintf fmt "flip-from-%a" Nodeset.pp s
  | Omit_from s -> Format.fprintf fmt "omit-from-%a" Nodeset.pp s
  | Omit_sampled k -> Format.fprintf fmt "omit-sampled-%d" k
  | Spurious k -> Format.fprintf fmt "spurious-%d" k
  | Noise k -> Format.fprintf fmt "noise-%d" k
  | Equivocate -> Format.pp_print_string fmt "equivocate"

let to_string = function
  | Honest_behavior -> "honest"
  | Silent -> "silent"
  | Crash_at r -> Printf.sprintf "crash:%d" r
  | Lie -> "lie"
  | Flip_forwards -> "flip"
  | Flip_from ids -> "flip-from:" ^ Nodeset.to_csv ids
  | Omit_from ids -> "omit:" ^ Nodeset.to_csv ids
  | Omit_sampled k -> Printf.sprintf "omit-sampled:%d" k
  | Spurious k -> Printf.sprintf "spurious:%d" k
  | Noise k -> Printf.sprintf "noise:%d" k
  | Equivocate -> "equivocate"

let of_string s =
  let int what k arg =
    match int_of_string_opt arg with
    | Some v -> Ok (k v)
    | None -> Error (Printf.sprintf "%s: bad %s" s what)
  in
  let ids k arg = Result.map k (Nodeset.of_csv arg) in
  match String.split_on_char ':' s with
  | [ "silent" ] -> Ok Silent
  | [ "honest" ] -> Ok Honest_behavior
  | [ "lie" ] -> Ok Lie
  | [ "flip" ] | [ "flip-forwards" ] -> Ok Flip_forwards
  | [ "equivocate" ] -> Ok Equivocate
  | [ "crash"; r ] -> int "round" (fun r -> Crash_at r) r
  | [ "spurious"; k ] -> int "count" (fun k -> Spurious k) k
  | [ "noise"; k ] -> int "count" (fun k -> Noise k) k
  | [ "omit-sampled"; k ] -> int "salt" (fun k -> Omit_sampled k) k
  | [ "omit"; l ] -> ids (fun set -> Omit_from set) l
  | [ "flip-from"; l ] -> ids (fun set -> Flip_from set) l
  | _ ->
      Error
        (s
       ^ ": unknown strategy (silent, honest, lie, flip, equivocate, \
          crash:R, spurious:K, noise:K, omit:IDS, flip-from:IDS, \
          omit-sampled:K)")

(* Honest flooding with hooks: [alive round] gates any transmission;
   [rewrite] edits (or drops, returning [None]) each outgoing wire
   message. *)
let hooked_step store ~alive ~rewrite ~extra =
  let honest = Flood.proc store in
  fun ~round ~inbox ->
    let outs = honest.Engine.step ~round ~inbox in
    if not (alive round) then []
    else
      List.filter_map
        (fun m -> Option.map (fun m -> Engine.Broadcast m) (rewrite m))
        outs
      @ extra ~round

let no_extra ~round:_ = []

let origin_of me (m : 'v Flood.wire) =
  match m.Flood.path with o :: _ -> o | [] -> me

(* A fabricated but well-formed wire message: a random simple path of G
   ending at [me] (transmitted paths end at the sender's predecessor, so we
   drop [me] from the walk), carrying a random choice of value. *)
let fabricate st g ~me ~input ~flip =
  let rec walk u acc remaining =
    if remaining = 0 then acc
    else
      let nbrs =
        List.filter
          (fun v -> not (List.mem v acc) && v <> me)
          (Lbc_graph.Graph.neighbor_list g u)
      in
      match nbrs with
      | [] -> acc
      | _ ->
          let v = List.nth nbrs (Random.State.int st (List.length nbrs)) in
          walk v (v :: acc) (remaining - 1)
  in
  let nbrs = Lbc_graph.Graph.neighbor_list g me in
  match nbrs with
  | [] -> None
  | _ ->
      let start = List.nth nbrs (Random.State.int st (List.length nbrs)) in
      let len = Random.State.int st (max 1 (Lbc_graph.Graph.size g - 2)) in
      (* The walk runs backwards from our predecessor towards the claimed
         originator; reverse to get originator-first order. *)
      let path = walk start [ start ] len in
      let value = if Random.State.bool st then input else flip input in
      Some { Flood.value; path }

let junk st g ~me ~input ~flip =
  let n = Lbc_graph.Graph.size g in
  let len = Random.State.int st (n + 2) in
  let path = List.init len (fun _ -> Random.State.int st (max 1 n)) in
  let value = if Random.State.bool st then input else flip input in
  ignore me;
  { Flood.value; path }

let fstep kind ~g ~me ~vcompare ~input ~default ~flip ~seed =
  match kind with
  | Silent -> fun ~round:_ ~inbox:_ -> []
  | Honest_behavior ->
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      hooked_step store ~alive:(fun _ -> true) ~rewrite:Option.some
        ~extra:no_extra
  | Crash_at r ->
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      hooked_step store
        ~alive:(fun round -> round < r)
        ~rewrite:Option.some ~extra:no_extra
  | Lie ->
      let store = Flood.create g ~me ~vcompare ~initiate:(flip input) ~default () in
      hooked_step store ~alive:(fun _ -> true) ~rewrite:Option.some
        ~extra:no_extra
  | Flip_forwards ->
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      let rewrite (m : 'v Flood.wire) =
        if m.Flood.path = [] then Some m
        else Some { m with Flood.value = flip m.Flood.value }
      in
      hooked_step store ~alive:(fun _ -> true) ~rewrite ~extra:no_extra
  | Flip_from targets ->
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      let rewrite (m : 'v Flood.wire) =
        if Nodeset.mem (origin_of me m) targets && m.Flood.path <> [] then
          Some { m with Flood.value = flip m.Flood.value }
        else Some m
      in
      hooked_step store ~alive:(fun _ -> true) ~rewrite ~extra:no_extra
  | Omit_from targets ->
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      let rewrite (m : 'v Flood.wire) =
        if Nodeset.mem (origin_of me m) targets && m.Flood.path <> [] then None
        else Some m
      in
      hooked_step store ~alive:(fun _ -> true) ~rewrite ~extra:no_extra
  | Omit_sampled salt ->
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      let st = Random.State.make [| seed; me; salt |] in
      let rewrite (m : 'v Flood.wire) =
        if m.Flood.path <> [] && Random.State.bool st then None else Some m
      in
      hooked_step store ~alive:(fun _ -> true) ~rewrite ~extra:no_extra
  | Spurious k ->
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      let st = Random.State.make [| seed; me |] in
      let extra ~round =
        ignore round;
        List.init k (fun _ -> fabricate st g ~me ~input ~flip)
        |> List.filter_map Fun.id
        |> List.map (fun m -> Engine.Broadcast m)
      in
      hooked_step store ~alive:(fun _ -> true) ~rewrite:Option.some ~extra
  | Noise k ->
      let st = Random.State.make [| seed; me; 1 |] in
      fun ~round:_ ~inbox:_ ->
        List.init k (fun _ -> Engine.Broadcast (junk st g ~me ~input ~flip))
  | Equivocate ->
      (* Per-neighbour inconsistency: run an honest store to decide what to
         relay, then unicast true values to even-indexed neighbours and
         flipped ones to odd-indexed neighbours. *)
      let store = Flood.create g ~me ~vcompare ~initiate:input ~default () in
      let honest = Flood.proc store in
      let nbrs = Lbc_graph.Graph.neighbor_list g me in
      fun ~round ~inbox ->
        let outs = honest.Engine.step ~round ~inbox in
        List.concat_map
          (fun (m : 'v Flood.wire) ->
            List.mapi
              (fun i v ->
                let value =
                  if i land 1 = 0 then m.Flood.value else flip m.Flood.value
                in
                Engine.Unicast (v, { m with Flood.value }))
              nbrs)
          outs
