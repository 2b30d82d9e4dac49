(* Retained reference implementation of the flooding layer: the direct
   list-keyed store that lib/flood/flood.ml used before path interning
   (dedup keyed on [(sender, wire path)], records keyed on the full
   [int list] path, packing masks rebuilt per query, no certificate
   cache). test_flood_equiv drives it in lock-step with the production
   store on random graphs, adversaries and chaos specs and asserts the
   observable behaviour is identical.

   Its wires carry their path as a list, as the historical ones did;
   test_flood_equiv hands it each production wire as (value, path).

   Two deliberate differences from the historical code: the
   bootstrap-aliasing bug is fixed here too (synthesized defaults get a
   dedicated table instead of burning the rule-(ii) key [(w, ⊥)]), so
   the reference states the *intended* semantics; and there is no Obs
   instrumentation — counters are the production store's concern. *)

module Nodeset = Lbc_graph.Nodeset
module G = Lbc_graph.Graph
module Packing = Lbc_flood.Packing

type 'v wire = { value : 'v; path : Lbc_sim.Engine.node_id list }

type 'v store = {
  g : G.t;
  me : int;
  initiate : 'v option;
  default : 'v option;
  seen : (int * int list, unit) Hashtbl.t;
  bootstrap : (int, unit) Hashtbl.t;
  recs : (int list, 'v) Hashtbl.t; (* full path origin..me -> value *)
  mutable defaults_done : bool;
}

let create g ~me ?initiate ?default () =
  let store =
    {
      g;
      me;
      initiate;
      default;
      seen = Hashtbl.create 64;
      bootstrap = Hashtbl.create 8;
      recs = Hashtbl.create 64;
      defaults_done = false;
    }
  in
  (match initiate with
  | Some v -> Hashtbl.replace store.recs [ me ] v
  | None -> ());
  store

let handle t ~round ~from (m : 'v wire) =
  let relayed = m.path @ [ from ] in
  if
    List.length m.path <> round - 1
    || (not (G.mem_edge t.g from t.me))
    || not (G.is_path t.g relayed)
  then None
  else begin
    let key = (from, m.path) in
    if Hashtbl.mem t.seen key then None
    else begin
      Hashtbl.replace t.seen key ();
      if List.mem t.me m.path then None
      else begin
        Hashtbl.replace t.recs (relayed @ [ t.me ]) m.value;
        Some { value = m.value; path = relayed }
      end
    end
  end

let synthesize_defaults t =
  if t.defaults_done then []
  else begin
    t.defaults_done <- true;
    match t.default with
    | None -> []
    | Some d ->
        List.filter_map
          (fun w ->
            if Hashtbl.mem t.seen (w, []) || Hashtbl.mem t.bootstrap w then
              None
            else begin
              Hashtbl.replace t.bootstrap w ();
              Hashtbl.replace t.recs [ w; t.me ] d;
              Some { value = d; path = [ w ] }
            end)
          (G.neighbor_list t.g t.me)
  end

let proc t : ('v wire, 'v store) Lbc_sim.Engine.proc =
  let step ~round ~inbox =
    let initiations =
      if round = 0 then
        match t.initiate with Some v -> [ { value = v; path = [] } ] | None -> []
      else []
    in
    let forwards =
      List.filter_map (fun (from, m) -> handle t ~round ~from m) inbox
    in
    let synthesized = if round = 1 then synthesize_defaults t else [] in
    initiations @ forwards @ synthesized
  in
  { step; output = (fun () -> t) }

let records t =
  Hashtbl.fold
    (fun path v acc ->
      match path with
      | origin :: _ -> (origin, path, v) :: acc
      | [] -> acc)
    t.recs []
  |> List.sort (fun (_, p, _) (_, q, _) -> Lbc_sim.Det.compare_int_list p q)

let value_along t ~path = Hashtbl.find_opt t.recs path

let origin_values t ~origin =
  Hashtbl.fold
    (fun path v acc ->
      match path with o :: _ when o = origin -> v :: acc | _ -> acc)
    t.recs []
  |> List.sort_uniq compare

let record_masks t ~keep ~mask =
  (* The mask multiset feeds Packing.count, which canonicalises with
     sort_uniq itself, so Hashtbl order cannot leak. *)
  (* lbclint: disable=D2 order-insensitive consumer, see comment above *)
  Hashtbl.fold
    (fun path v acc -> if keep path v then mask path :: acc else acc)
    t.recs []

let disjoint_count t ~origin ~value ?(excluded = Nodeset.empty) ?limit () =
  if origin = t.me then invalid_arg "Reference.disjoint_count: origin = me";
  let limit = match limit with Some l -> l | None -> G.size t.g in
  let keep path v =
    v = value
    && (match path with o :: _ -> o = origin | [] -> false)
    && G.path_excludes path excluded
  in
  let mask path =
    Packing.mask_of_nodes (List.filter (fun x -> x <> origin && x <> t.me) path)
  in
  Packing.count (record_masks t ~keep ~mask) ~limit

let disjoint_count_from_set t ~sources ~value ?(excluded = Nodeset.empty)
    ?limit () =
  let sources = Nodeset.remove t.me sources in
  let limit = match limit with Some l -> l | None -> G.size t.g in
  let keep path v =
    v = value
    && (match path with o :: _ -> Nodeset.mem o sources | [] -> false)
    && G.path_excludes path excluded
  in
  let mask path = Packing.mask_of_nodes (List.filter (fun x -> x <> t.me) path) in
  Packing.count (record_masks t ~keep ~mask) ~limit

let reliable_values ~f t ~origin =
  if origin = t.me then
    match t.initiate with Some v -> [ v ] | None -> []
  else if G.mem_edge t.g origin t.me then
    match Hashtbl.find_opt t.recs [ origin; t.me ] with
    | Some v -> [ v ]
    | None -> []
  else
    List.filter
      (fun v -> disjoint_count t ~origin ~value:v ~limit:(f + 1) () >= f + 1)
      (origin_values t ~origin)
