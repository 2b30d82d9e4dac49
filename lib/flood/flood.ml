module Nodeset = Lbc_graph.Nodeset
module G = Lbc_graph.Graph
module P = Path_intern

type 'v wire = { value : 'v; pid : P.id; home : P.t }

let wire home value path = { value; pid = P.intern_total home path; home }
let with_value m value = { m with value }
let wire_path m = P.path_total m.home m.pid

let wire_length m =
  if m.pid >= 0 then P.length m.home m.pid else List.length (wire_path m)

(* One accepted record. The full delivery path (origin .. me) is kept as
   its interned id; the two bitset views every acceptance query needs
   are built once, at accept time, instead of being rebuilt per query. *)
type 'v record_entry = {
  origin : int;
  path_id : P.id;
  internal : Packing.mask; (* path nodes minus both endpoints *)
  sans_me : Packing.mask; (* path nodes minus me *)
  mutable value : 'v;
}

type 'v store = {
  g : G.t;
  me : int;
  n : int;
  initiate : 'v option;
  default : 'v option;
  vcompare : 'v -> 'v -> int;
  paths : P.t; (* private, or shared by the stores of one execution *)
  mutable seen : Bytes.t;
      (* rule (ii) keys as a bitset over trie ids: the key (wire path,
         sender) is the id of the path wire·sender. Defaults synthesized
         by the missing-message rule are deliberately NOT in it: they
         must never mask a genuine round-1 initiation under rule (ii). *)
  recs : 'v record_entry Itbl.t; (* full-path id -> record *)
  mutable recs_rev : 'v record_entry list; (* insertion order, newest first *)
  pcache : Packing.Cache.t;
  mutable defaults_done : bool;
}

(* Insert-or-update keeps the old Hashtbl.replace semantics: a later
   acceptance along the same full path overwrites the value (this is how
   a genuine initiation supersedes a synthesized default). *)
let record t fid value =
  match Itbl.find_opt t.recs fid with
  | Some r -> r.value <- value
  | None ->
      let full = P.mask t.paths fid in
      let hd = P.first t.paths fid in
      let tl = P.last t.paths fid in
      let sans_me = Packing.remove full t.me in
      let internal = Packing.remove (Packing.remove full hd) tl in
      let r = { origin = hd; path_id = fid; internal; sans_me; value } in
      Itbl.replace t.recs fid r;
      t.recs_rev <- r :: t.recs_rev

let create g ~me ~vcompare ?paths ?initiate ?default () =
  let paths =
    match paths with
    | None -> P.create g
    | Some t ->
        let g' = P.graph t in
        if g' != g && not (G.equal g' g) then
          invalid_arg "Flood.create: intern table built for another graph";
        t
  in
  let store =
    {
      g;
      me;
      n = G.size g;
      initiate;
      default;
      vcompare;
      paths;
      seen = Bytes.empty;
      recs = Itbl.create 64;
      recs_rev = [];
      pcache = Packing.Cache.create ();
      defaults_done = false;
    }
  in
  (match initiate with
  | Some v -> record store (P.extend store.paths P.root me) v
  | None -> ());
  store

let rounds_needed g = G.size g

let predicted_transmissions g =
  let n = G.size g in
  let total = ref n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        total :=
          !total + Lbc_graph.Traversal.count_simple_paths g ~src:u ~dst:v
    done
  done;
  !total

let me t = t.me
let paths t = t.paths
let own_value t = t.initiate

(* Rule (ii) keys are trie ids: the key (wire path pid, sender) is the
   id of pid·sender, a distinct trie node per pair. *)
let seen_mem t rid =
  let i = rid lsr 3 in
  rid >= 0
  && i < Bytes.length t.seen
  && Char.code (Bytes.get t.seen i) land (1 lsl (rid land 7)) <> 0

let seen_add t rid =
  let i = rid lsr 3 in
  let len = Bytes.length t.seen in
  if i >= len then begin
    let b = Bytes.make (max (i + 1) (2 * len)) '\000' in
    Bytes.blit t.seen 0 b 0 len;
    t.seen <- b
  end;
  Bytes.set t.seen i
    (Char.unsafe_chr (Char.code (Bytes.get t.seen i) lor (1 lsl (rid land 7))))

(* Rules (i)-(iv). [from] is the transmitting neighbour, [round] the
   engine round in which the message arrived. *)
let handle t ~round ~from (m : 'v wire) =
  (* A wire of our own table carries its id; any other is re-interned
     from its list. An exotic id (a path with an out-of-range node) is
     negative and fails rule (i) below, like [P.invalid]. *)
  let pid =
    if m.home == t.paths then m.pid
    else P.intern t.paths (wire_path m)
  in
  let rid = P.extend t.paths pid from in
  (* Rule (i): Π·u must be a simple path of G starting at the originator;
     physically the sender must also be our neighbour; and the timing
     must be honest — a k-hop annotation arrives exactly in round k+1.
     The length and the simple-path validity are intern-time facts: no
     per-message list walk. *)
  if
    pid < 0
    || P.length t.paths pid <> round - 1
    || (not (G.mem_edge t.g from t.me))
    || not (P.is_path t.paths rid)
  then begin
    Lbc_obs.Obs.incr "flood.reject_path";
    None
  end
  else begin
    if seen_mem t rid then begin
      (* rule (ii): anti-equivocation *)
      Lbc_obs.Obs.incr "flood.dedup_hit";
      None
    end
    else begin
      seen_add t rid;
      if P.mem t.paths pid t.me then begin
        (* rule (iii) *)
        Lbc_obs.Obs.incr "flood.reject_own";
        None
      end
      else begin
        (* Rule (iv): accept and forward. *)
        Lbc_obs.Obs.incr "flood.accept";
        record t (P.extend t.paths rid t.me) m.value;
        Some { value = m.value; pid = rid; home = t.paths }
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
            (* A genuine round-1 initiation by [w] carries the empty wire
               path, i.e. rule-(ii) key [w]. Probing it interns nothing,
               and a default never enters [seen], so it can never mask a
               real message. *)
            if seen_mem t (P.find t.paths P.root w) then None
            else begin
              Lbc_obs.Obs.incr "flood.default_synthesized";
              let wid = P.extend t.paths P.root w in
              record t (P.extend t.paths wid t.me) d;
              Some { value = d; pid = wid; home = t.paths }
            end)
          (G.neighbor_list t.g t.me)
  end

let proc t : ('v wire, 'v store) Lbc_sim.Engine.proc =
  let step ~round ~inbox =
    let initiations =
      if round = 0 then
        match t.initiate with
        | Some v -> [ { value = v; pid = P.root; home = t.paths } ]
        | None -> []
      else []
    in
    let forwards =
      List.filter_map (fun (from, m) -> handle t ~round ~from m) inbox
    in
    (* The missing-message rule fires after the round-0 initiations (which
       arrive in the round-1 inbox) have been processed, so only genuinely
       silent neighbours receive the default. *)
    let synthesized = if round = 1 then synthesize_defaults t else [] in
    initiations @ forwards @ synthesized
  in
  { step; output = (fun () -> t) }

(* Record order is observable (callers pick first-of-sorted candidates,
   e.g. Algorithm 2's type-A adoption), so sort by the path, which is a
   unique key of [t.recs]. [recs_rev] is an insertion-ordered list — no
   Hashtbl traversal is involved anywhere in the query layer. *)
let records t =
  Lbc_obs.Obs.observe "flood.store_size" (Itbl.length t.recs);
  List.rev_map
    (fun r -> (r.origin, P.path t.paths r.path_id, r.value))
    t.recs_rev
  |> List.sort (fun (_, p, _) (_, q, _) -> Lbc_sim.Det.compare_int_list p q)

let iter_records t f =
  List.iter
    (fun r ->
      f ~origin:r.origin
        ~path:(P.path t.paths r.path_id)
        ~sans_me:r.sans_me ~value:r.value)
    (List.rev t.recs_rev)

let value_along t ~path =
  match Itbl.find_opt t.recs (P.intern t.paths path) with
  | Some r -> Some r.value
  | None -> None

let origin_values t ~origin =
  List.fold_left
    (fun acc r -> if r.origin = origin then r.value :: acc else acc)
    [] t.recs_rev
  |> List.sort_uniq t.vcompare

(* Disjoint-path counting is a packing problem over the *actually
   received* record paths: the paper's "v receives value δ along f+1
   node-disjoint paths" quantifies over delivery paths, and only whole
   records support the pigeonhole argument (f+1 disjoint records and at
   most f faults leave one record whose entire path is non-faulty, hence
   whose annotation is genuine). Any relaxation that recombines edges of
   different records is unsound: a Byzantine forwarder may fabricate the
   prefix of a path annotation, inventing edges between honest nodes.

   Each candidate record contributes the bitset of the nodes that matter
   for disjointness — precomputed at accept time — and the maximum number
   of pairwise-disjoint masks is computed by Packing's depth-limited DFS,
   memoised per store (the graph and the record set only grow, and
   identical queries recur across rounds and origins). *)

let mask_of_nodeset s = Nodeset.fold (fun x m -> Packing.add m x) s Packing.empty

let disjoint_count t ~origin ~value ?(excluded = Nodeset.empty) ?limit () =
  if origin = t.me then invalid_arg "Flood.disjoint_count: origin = me";
  let limit = match limit with Some l -> l | None -> t.n in
  let ex = mask_of_nodeset excluded in
  (* uv-paths are internally disjoint: endpoints excluded from the mask,
     and [excluded] constrains internal nodes only. *)
  let masks =
    List.fold_left
      (fun acc r ->
        if
          r.origin = origin
          && t.vcompare r.value value = 0
          && Packing.disjoint r.internal ex
        then r.internal :: acc
        else acc)
      [] t.recs_rev
  in
  Packing.Cache.count t.pcache masks ~limit

let disjoint_count_from_set t ~sources ~value ?(excluded = Nodeset.empty)
    ?limit () =
  let sources = Nodeset.remove t.me sources in
  let limit = match limit with Some l -> l | None -> t.n in
  let ex = mask_of_nodeset excluded in
  (* Uv-paths share only the sink: every node but [me] participates in the
     disjointness mask, which also enforces pairwise-distinct origins. *)
  let masks =
    List.fold_left
      (fun acc r ->
        if
          Nodeset.mem r.origin sources
          && t.vcompare r.value value = 0
          && Packing.disjoint r.internal ex
        then r.sans_me :: acc
        else acc)
      [] t.recs_rev
  in
  Packing.Cache.count t.pcache masks ~limit

let reliable_values ~f t ~origin =
  if origin = t.me then
    match t.initiate with Some v -> [ v ] | None -> []
  else if G.mem_edge t.g origin t.me then
    match Itbl.find_opt t.recs (P.intern t.paths [ origin; t.me ]) with
    | Some r -> [ r.value ]
    | None -> []
  else
    List.filter
      (fun v ->
        let ok = disjoint_count t ~origin ~value:v ~limit:(f + 1) () >= f + 1 in
        Lbc_obs.Obs.incr
          (if ok then "flood.reliable_accept" else "flood.reliable_reject");
        ok)
      (origin_values t ~origin)
