(* A list-keyed reference for Algorithm 2's attribution queries at one
   node, written from Definition C.1 and the omission-evidence repair
   alone: no scope, no path ids, no physical identity. test_algorithm2
   asks it every query a plain fault-discovery scan makes and asserts
   the production answers equal its answers.

   At node [me], with at most [f] faults:

   - "z sent m" holds when z is a neighbour and [me] heard z transmit m
     (a neighbour that initiated nothing counts as having sent the
     default), and otherwise when f+1 node-disjoint phase-2 records
     support it: records whose reporter is a neighbour of z, whose
     report list contains the entry (z, m), and whose path avoids z.
   - "z was silent on path" is the same, with "heard no transmission of
     z annotated [path]" for a neighbour and "report list has no entry
     from z annotated [path]" for a supporting record.

   Node [me] never accuses itself, and is left out of the disjointness
   masks (it is on every record's path).

   Phase-2 records carry claim arrays; the reference reads each one back
   as a report list through [Algorithm2.decode] and works on the lists
   only, each message as its (value, path) pair. *)

module G = Lbc_graph.Graph
module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module Bit = Lbc_consensus.Bit
module A2 = Lbc_consensus.Algorithm2

type report = int * (Bit.t * int list)

let of_wires (l : A2.report list) : report list =
  List.map
    (fun (z, (m : Bit.t Flood.wire)) -> (z, (m.Flood.value, Flood.wire_path m)))
    l

type t = {
  g : G.t;
  me : int;
  direct : report list;
  groups : (int * report list * Packing.mask list) list;
      (* reporter, its report list, the masks of the records carrying
         that list: structurally distinct (reporter, list) pairs *)
  answers : (int * int * int * int list, bool) Hashtbl.t;
      (* by (f, z, value or -1 for silence, path): a scan asks the same
         query many times *)
}

let create g ~me ~(heard : A2.report list) ~(store2 : A2.claims Flood.store)
    =
  let heard = of_wires heard in
  let defaults =
    List.filter_map
      (fun w ->
        if List.exists (fun (z, (_, path)) -> z = w && path = []) heard then
          None
        else Some (w, (Bit.default, [])))
      (G.neighbor_list g me)
  in
  let tbl = Hashtbl.create 64 and order = ref [] in
  (* Decoding is a pure function of the array; each array object is
     decoded once. *)
  let decoded = ref [] in
  let decode claims =
    match List.assq_opt claims !decoded with
    | Some reports -> reports
    | None ->
        let reports = of_wires (A2.decode (Flood.paths store2) claims) in
        decoded := (claims, reports) :: !decoded;
        reports
  in
  Flood.iter_records store2 (fun ~origin ~path ~sans_me:_ ~value ->
      let value = decode value in
      let mask = Packing.mask_of_nodes (List.filter (( <> ) me) path) in
      let key = (origin, value) in
      match Hashtbl.find_opt tbl key with
      | Some masks -> Hashtbl.replace tbl key (mask :: masks)
      | None ->
          Hashtbl.replace tbl key [ mask ];
          order := key :: !order);
  let groups =
    List.rev_map
      (fun ((reporter, reports) as key) ->
        (reporter, reports, Hashtbl.find tbl key))
      !order
  in
  { g; me; direct = heard @ defaults; groups; answers = Hashtbl.create 256 }

let supported t ~f ~z ~keep =
  let masks =
    List.concat_map
      (fun (reporter, reports, masks) ->
        if G.mem_edge t.g reporter z && keep reports then
          List.filter (fun mask -> not (Packing.mem mask z)) masks
        else [])
      t.groups
  in
  Packing.count masks ~limit:(f + 1) >= f + 1

let has_claim ~z ~value ~path (reports : report list) =
  List.exists
    (fun (z', (v', p')) -> z' = z && Bit.equal v' value && p' = path)
    reports

let has_key ~z ~path (reports : report list) =
  List.exists (fun (z', (_, p')) -> z' = z && p' = path) reports

let memo t key answer =
  match Hashtbl.find_opt t.answers key with
  | Some b -> b
  | None ->
      let b = answer () in
      Hashtbl.replace t.answers key b;
      b

let sent t ~f ~z ~value ~path =
  memo t (f, z, Bit.to_int value, path) (fun () ->
      if z = t.me then false
      else if G.mem_edge t.g z t.me then has_claim ~z ~value ~path t.direct
      else supported t ~f ~z ~keep:(has_claim ~z ~value ~path))

let silent_on t ~f ~z ~path =
  memo t (f, z, -1, path) (fun () ->
      if z = t.me then false
      else if G.mem_edge t.g z t.me then not (has_key ~z ~path t.direct)
      else
        supported t ~f ~z ~keep:(fun reports -> not (has_key ~z ~path reports)))
