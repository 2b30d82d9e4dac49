module Nodeset = Lbc_graph.Nodeset
module G = Lbc_graph.Graph
module Flood = Lbc_flood.Flood
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy

type msg = (int list * Bit.t) list
(* One EIG level: (label, value) reports. *)

let rounds ~g ~f = (f + 1) * G.size g

let flip_msg (m : msg) : msg = List.map (fun (l, b) -> (l, Bit.flip b)) m

(* Same order as the polymorphic compare this replaces: label (int-list
   lexicographic), then bit; lists lexicographically. *)
let compare_entry (l1, b1) (l2, b2) =
  match Lbc_sim.Det.compare_int_list l1 l2 with
  | 0 -> Bit.compare b1 b2
  | c -> c

let compare_msg (a : msg) (b : msg) = List.compare compare_entry a b

(* The level-[s] reports of a table, in deterministic order. *)
let level_reports table ~me ~level : msg =
  Hashtbl.fold
    (fun label b acc ->
      if List.length label = level && not (List.mem me label) then
        (label, b) :: acc
      else acc)
    table []
  |> List.sort Lbc_sim.Det.by_fst_int_list

(* Store sender [w]'s accepted level-[s] reports as level-[s+1] entries. *)
let apply_reports table ~from:w ~level (m : msg) =
  List.iter
    (fun (label, b) ->
      if
        List.length label = level
        && (not (List.mem w label))
        && List.length (List.sort_uniq Int.compare label) = List.length label
        && not (Hashtbl.mem table (label @ [ w ]))
      then Hashtbl.replace table (label @ [ w ]) b)
    m

let resolve table ~n ~f =
  let rec go label =
    if List.length label = f + 1 then
      Option.value ~default:Bit.default (Hashtbl.find_opt table label)
    else
      Bit.majority
        (List.filter_map
           (fun j -> if List.mem j label then None else Some (go (label @ [ j ])))
           (List.init n Fun.id))
  in
  go []

(* Rebuild the flood store a faulty node would have kept had it listened
   honestly, by replaying its inbox from the transcript. Used to hand the
   adversarial strategies plausible report material. *)
let shadow_store g ~paths ~me ~initiate transcript =
  let store = Flood.create g ~me ~vcompare:compare_msg ~paths ~initiate () in
  List.iter
    (fun (round, sender, d) ->
      match d with
      | Engine.Broadcast m when G.mem_edge g sender me ->
          ignore (Flood.handle store ~round:(round + 1) ~from:sender m)
      | Engine.Unicast (dst, m) when dst = me && G.mem_edge g sender me ->
          ignore (Flood.handle store ~round:(round + 1) ~from:sender m)
      | Engine.Broadcast _ | Engine.Unicast _ -> ())
    transcript;
  store

let run ~g ~f ~inputs ~faulty ?(strategy = fun _ -> Strategy.Equivocate)
    ?(seed = 0) () =
  let n = G.size g in
  if Array.length inputs <> n then
    invalid_arg "Baseline_relay.run: inputs length mismatch";
  let topo = Engine.topology_of_graph g in
  (* One path intern table for every flood store of the run, honest,
     faulty and shadow, in all f + 1 levels. *)
  let paths = Lbc_flood.Path_intern.create g in
  let tables = Array.init n (fun _ -> Hashtbl.create 64) in
  Array.iteri (fun v input -> Hashtbl.replace tables.(v) [] input) inputs;
  let transmissions = ref 0 in
  let deliveries = ref 0 in
  for s = 0 to f do
    let reports = Array.init n (fun v -> level_reports tables.(v) ~me:v ~level:s) in
    (* A node knows what it just said: record its own child labels. *)
    Array.iteri
      (fun v m -> List.iter (fun (l, b) -> Hashtbl.replace tables.(v) (l @ [ v ]) b) m)
      reports;
    let roles =
      Array.init n (fun v ->
          if Nodeset.mem v faulty then
            Engine.Faulty
              (Strategy.fstep (strategy v) ~g ~paths ~me:v ~vcompare:compare_msg
                 ~input:reports.(v) ~default:[] ~flip:flip_msg
                 ~seed:(seed + (1000 * s)))
          else
            Engine.Honest
              (Flood.proc
                 (Flood.create g ~me:v ~vcompare:compare_msg ~paths
                    ~initiate:reports.(v) ())))
    in
    let result =
      Engine.run ~record:true topo ~model:Engine.Point_to_point
        ~rounds:(Flood.rounds_needed g) ~roles
    in
    transmissions := !transmissions + result.Engine.stats.Engine.transmissions;
    deliveries := !deliveries + result.Engine.stats.Engine.deliveries;
    let accept v store =
      List.iter
        (fun w ->
          if w <> v then
            match Flood.reliable_values ~f store ~origin:w with
            | m :: _ -> apply_reports tables.(v) ~from:w ~level:s m
            | [] -> ())
        (G.nodes g)
    in
    Array.iteri
      (fun v role ->
        ignore role;
        if Nodeset.mem v faulty then
          accept v
            (shadow_store g ~paths ~me:v ~initiate:reports.(v)
               result.Engine.transcript)
        else
          match result.Engine.outputs.(v) with
          | Some store -> accept v store
          | None -> ())
      roles
  done;
  {
    Spec.outputs =
      Array.init n (fun v ->
          if Nodeset.mem v faulty then None
          else Some (resolve tables.(v) ~n ~f));
    faulty;
    inputs;
    rounds = rounds ~g ~f;
    phases = f + 1;
    transmissions = !transmissions;
    deliveries = !deliveries;
  }
