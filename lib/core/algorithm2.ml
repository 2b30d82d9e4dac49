module Nodeset = Lbc_graph.Nodeset
module G = Lbc_graph.Graph
module Flood = Lbc_flood.Flood
module Packing = Lbc_flood.Packing
module P = Lbc_flood.Path_intern
module Itbl = Lbc_flood.Itbl
module Engine = Lbc_sim.Engine
module Strategy = Lbc_adversary.Strategy

type report = int * Bit.t Flood.wire
(* (z, m): "node z transmitted message m in phase 1". *)

type node_report = { type_a : bool; detected : Nodeset.t; decision : Bit.t }

type traced = {
  outcome : Spec.outcome;
  node_reports : node_report option array;
  store1 : Bit.t Flood.store option array;
  heard : (int * Bit.t Flood.wire) list array;
  store2 : report list Flood.store option array;
}

(* Phase 1 runs one extra delivery round: a relay accepted in the final
   flooding round is still transmitted, and the neighbours' reports must
   include it — otherwise omission evidence would falsely accuse honest
   nodes of exactly the maximal-length forwards. Phases 2 and 3 need no
   extra round (only their *deliveries* matter). *)
let rounds ~g = (3 * G.size g) + 1

(* ------------------------------------------------------------------ *)
(* Phase 1: flood inputs, logging everything heard for phase 2.        *)
(* ------------------------------------------------------------------ *)

type p1_out = {
  store1 : Bit.t Flood.store;
  mutable heard_rev : (int * Bit.t Flood.wire) list;
      (* timing-valid receptions only, reverse-chronological *)
}

(* Only timing-valid transmissions count as observations: a k-hop
   annotation is honest only when heard in round k+1 (see Flood.handle's
   rule (i) timing check). Everything else is fabrication that no honest
   node acts on, so reporting it would only pollute attribution. *)
let timing_valid ~heard_round (m : Bit.t Flood.wire) =
  List.length m.Flood.path = heard_round - 1

let phase1_proc g ~paths ~me ~input =
  let store1 =
    Flood.create g ~me ~vcompare:Bit.compare ~paths ~initiate:input
      ~default:Bit.default ()
  in
  let st = { store1; heard_rev = [] } in
  let inner = Flood.proc store1 in
  let step ~round ~inbox =
    List.iter
      (fun (sender, m) ->
        if timing_valid ~heard_round:round m then
          st.heard_rev <- (sender, m) :: st.heard_rev)
      inbox;
    inner.Engine.step ~round ~inbox
  in
  { Engine.step; output = (fun () -> st) }

(* Everything [who] heard in phase 1, with silent neighbours replaced by
   the default initiation, exactly as the flooding rule treats them. *)
let with_defaults g ~who heard =
  let initiated =
    List.filter_map
      (fun (z, (m : Bit.t Flood.wire)) -> if m.Flood.path = [] then Some z else None)
      heard
    |> Nodeset.of_list
  in
  let missing =
    List.filter
      (fun w -> not (Nodeset.mem w initiated))
      (G.neighbor_list g who)
  in
  heard
  @ List.map (fun w -> (w, { Flood.value = Bit.default; path = [] })) missing

(* Same order as the polymorphic compare this replaces: sender, then wire
   value, then wire path. All three fields must participate so that
   [sort_uniq] still deduplicates exact duplicates only. *)
let compare_report (z1, (m1 : Bit.t Flood.wire)) (z2, (m2 : Bit.t Flood.wire)) =
  match Int.compare z1 z2 with
  | 0 -> (
      match Bit.compare m1.Flood.value m2.Flood.value with
      | 0 -> Lbc_sim.Det.compare_int_list m1.Flood.path m2.Flood.path
      | c -> c)
  | c -> c

let compare_reports = List.compare compare_report

let reports_of g ~who heard : report list =
  List.sort_uniq compare_report (with_defaults g ~who heard)

(* A faulty node's heard log, reconstructed from the recorded phase-1
   transcript (it hears every broadcast by a neighbour); like honest
   nodes, only timing-valid transmissions are kept. *)
let heard_from_transcript g ~who transcript =
  List.filter_map
    (fun (round, sender, d) ->
      match d with
      | Engine.Broadcast m
        when G.mem_edge g sender who
             && timing_valid ~heard_round:(round + 1) m ->
          Some (sender, m)
      | Engine.Broadcast _ | Engine.Unicast _ -> None)
    transcript

(* ------------------------------------------------------------------ *)
(* Phase 2: attribution and fault discovery.                            *)
(* ------------------------------------------------------------------ *)

(* Per-execution scope.

   Every honest node runs the same attribution and discovery procedure
   over the same graph, and the phase-2 report lists it indexes are
   mostly the same few objects (each reporter's list, forwarded
   unchanged by honest relays, plus the faulty relays' flipped copies).
   A scope holds what depends only on the graph and on those lists, so
   one run builds it once instead of once per honest node:

   - the claim/key index of each distinct report list, canonicalised by
     structural equality (a list that was flipped twice is a different
     allocation but the same index): its claims and its (z, path) keys
     as ints (see [claim_key]), each report path interned in [sp], so a
     membership query is one int-table probe; and, per reporter, the
     list objects already met from it with their indexes (see
     [index_of]);
   - the 2f disjoint w→u path families of fault discovery, each with its
     scan steps interned in [sp], so that a scan prefix is an int and its
     list is built once. In a run, [sp] is the table the honest flood
     stores intern into, so a prefix's list is the very object the
     phase-1 relays transmitted and a claim lookup compares it without
     walking it;
   - the graph's reusable disjoint-path network, which every family
     query runs on;
   - the scratch of [discover]'s prefix memo: per flipped value, an int
     array indexed by prefix id. An entry is only read back by the
     [discover] call that wrote it (its epoch), so it carries nothing
     from one node to the next.

   Nothing in a scope depends on a node's own observations, so sharing
   one cannot change a result; the per-node memo tables (and the packing
   certificate cache, whose hit/miss counters are observable) stay per
   node. *)

(* The claims of one report list, by int key (see [claim_key]). *)
type index = {
  claims : unit Itbl.t; (* full (z, m) claims *)
  keys : unit Itbl.t; (* (z, path) keys, for omission *)
}

(* One discovery path: the route w..u, its nodes, and the ids of its
   prefixes: [prefixes.(i)] is the id of the first [i] nodes, so node
   [i]'s transmission carries [prefixes.(i)] and [prefixes.(i + 1)] is the
   prefix through it. *)
type scan_path = { route : int list; nodes : int array; prefixes : P.id array }

type scope = {
  g : G.t;
  n : int;
  sp : P.t;
  mutable exotic : (int list * int) list;
      (* queried paths that leave the node range, which [sp] maps to one
         invalid id: numbered -2, -3, ... *)
  indexes : (report list, index) Hashtbl.t;
  met : (report list * index) list array;
      (* by reporter: the list objects met from it, newest first *)
  families : scan_path list Itbl.t; (* by (limit, w, u) *)
  uv : Lbc_graph.Disjoint.network;
  mutable memo : int array array;
      (* by flipped value, then prefix id: [epoch lsl 2 lor evidence] *)
  mutable epoch : int; (* of the running [discover] call *)
}

let scope_over g sp =
  {
    g;
    n = G.size g;
    sp;
    exotic = [];
    indexes = Hashtbl.create 64;
    met = Array.make (G.size g) [];
    families = Itbl.create 256;
    uv = Lbc_graph.Disjoint.network g;
    memo = [| [||]; [||] |];
    epoch = 0;
  }

let create_scope g = scope_over g (P.create g)

let resolve_scope g = function
  | None -> create_scope g
  | Some s ->
      if s.g != g && not (G.equal s.g g) then
        invalid_arg "Algorithm2: scope built for another graph";
      s

(* A total, injective numbering of queried and reported paths. *)
let pid_of scope path =
  let pid = P.intern scope.sp path in
  if pid <> P.invalid then pid
  else
    match
      List.find_opt
        (fun (l, _) -> Lbc_sim.Det.compare_int_list l path = 0)
        scope.exotic
    with
    | Some (_, pid) -> pid
    | None ->
        let pid = -2 - List.length scope.exotic in
        scope.exotic <- (path, pid) :: scope.exotic;
        pid

(* (z, path) and (z, value, path) as ints. Injective for 0 <= z < n and
   any path id, negative ones included; queried senders are always in
   range (an out-of-range one raises [Invalid_node] first), and so are
   reported ones (a report's sender is a neighbour of its reporter). *)
let key_of scope ~z ~pid = (pid * scope.n) + z
let claim_key scope ~z ~value ~pid = (key_of scope ~z ~pid * 2) + Bit.to_int value

(* [pid_of] is injective on paths, so a claim is in the list iff its
   int key is in [claims]: the same answer as the structural lookup. *)
let build_index scope (reports : report list) =
  let len = List.length reports + 1 in
  let idx = { claims = Itbl.create len; keys = Itbl.create len } in
  List.iter
    (fun ((z, m) : report) ->
      let pid = pid_of scope m.Flood.path in
      Itbl.replace idx.claims (claim_key scope ~z ~value:m.Flood.value ~pid) ();
      Itbl.replace idx.keys (key_of scope ~z ~pid) ())
    reports;
  idx

let mem_claim scope idx ~z ~value ~pid =
  Itbl.mem idx.claims (claim_key scope ~z ~value ~pid)

let mem_key scope idx ~z ~pid = Itbl.mem idx.keys (key_of scope ~z ~pid)

(* The index of the report list [reports] that a record from [reporter]
   carries.

   A run's records carry few distinct list objects: honest relays forward
   a value allocation unchanged, and a tampering relay reuses one flipped
   copy per list (see [memoized_flip_reports]). So a lookup first asks the
   reporter's own short list of objects met so far, by physical identity;
   its cost depends on how many variants of one reporter's list circulate,
   not on n or on the lists' length. Only a list object met for the first
   time goes to [indexes], whose structural lookup is expensive: the
   polymorphic hash reads just the first few entries of a list, and under
   local broadcast reporters that share a neighbour heard the same
   transmissions first, so their lists share buckets and each probe
   compares deep into other reporters' lists. That lookup still lets a
   double-flipped copy find its original's index. Lists are immutable, so
   the identity hit returns exactly what the structural lookup would. *)
let index_of scope ~reporter reports =
  let met = scope.met.(reporter) in
  match List.assq_opt reports met with
  | Some idx -> idx
  | None ->
      let idx =
        match Hashtbl.find_opt scope.indexes reports with
        | Some idx -> idx
        | None ->
            let idx = build_index scope reports in
            Hashtbl.replace scope.indexes reports idx;
            idx
      in
      scope.met.(reporter) <- (reports, idx) :: met;
      idx

(* Make room in the prefix memo for ids up to [pid]; entries copied
   over keep their epochs. *)
let reserve_memo scope pid =
  let len = Array.length scope.memo.(0) in
  if pid >= len then
    scope.memo <-
      Array.map
        (fun a ->
          let a' = Array.make (max (pid + 1) (2 * len)) 0 in
          Array.blit a 0 a' 0 len;
          a')
        scope.memo

let scan_path_of scope route =
  let nodes = Array.of_list route in
  let prefixes = Array.make (Array.length nodes + 1) P.root in
  Array.iteri
    (fun i z -> prefixes.(i + 1) <- P.extend scope.sp prefixes.(i) z)
    nodes;
  (* A prefix is interned before its extensions, so the full route has
     the largest id. *)
  reserve_memo scope prefixes.(Array.length nodes);
  { route; nodes; prefixes }

let family scope ~limit ~w ~u =
  let key = (((limit * scope.n) + w) * scope.n) + u in
  match Itbl.find_opt scope.families key with
  | Some ps -> ps
  | None ->
      let ps =
        List.map (scan_path_of scope)
          (Lbc_graph.Disjoint.uv_paths ~limit scope.uv ~u:w ~v:u)
      in
      Itbl.replace scope.families key ps;
      ps

(* Attribution index at node [me].

   Positive attribution — "me reliably learns z transmitted m": the
   bitmasks of the z->me delivery paths whose reporter (z's neighbour,
   first path member) claims (z, m); Definition C.1 asks for f+1
   disjoint supporting paths, and the pigeonhole over whole records makes
   the answer genuine.

   Negative attribution — "me reliably learns z transmitted NOTHING whose
   path annotation is π": same structure, counting the disjoint reporter
   paths whose (entire, indivisible) report list contains no (z, ·-with-
   path-π) entry. One of f+1 disjoint such records is fault-free, so its
   report list is the reporter's genuine observation and z's silence on
   that key is real. Needed because the paper's fault discovery as
   literally stated only catches tampering ("forwarded 1−b") — a relay
   that omits the forward breaks Lemma C.4 undetected (found by our
   adversarial sweep; see DESIGN.md). *)
type attribution = {
  scope : scope;
  sent_pid : f:int -> z:int -> value:Bit.t -> pid:P.id -> bool;
  silent_pid : f:int -> z:int -> pid:P.id -> bool;
}

(* The records of one reporter overwhelmingly carry the same report
   list (the reporter floods one value; only tampering relays produce
   variants), and those lists are large — n·Σdeg entries. Grouping the
   records by their canonical index means the per-claim key tables are
   shared by every record in the group, and (through the scope) by every
   node of the run. *)
type group = {
  index : index;
  mutable masks : Packing.mask list; (* one disjointness mask per record *)
}

let attribution_index ?scope g ~me ~heard ~store2 =
  let scope = resolve_scope g scope in
  let direct = build_index scope (with_defaults g ~who:me heard) in
  let by_reporter : group list ref Itbl.t = Itbl.create 64 in
  Flood.iter_records store2
    (fun ~origin:reporter ~path:_ ~sans_me:mask ~value:(reports : report list) ->
      let groups =
        match Itbl.find_opt by_reporter reporter with
        | Some gs -> gs
        | None ->
            let gs = ref [] in
            Itbl.replace by_reporter reporter gs;
            gs
      in
      let index = index_of scope ~reporter reports in
      let group =
        match List.find_opt (fun grp -> grp.index == index) !groups with
        | Some grp -> grp
        | None ->
            let grp = { index; masks = [] } in
            groups := grp :: !groups;
            grp
      in
      group.masks <- mask :: group.masks);
  let groups_of y =
    match Itbl.find_opt by_reporter y with Some gs -> !gs | None -> []
  in
  (* The supporting masks for a positive claim (z, m): every record whose
     reporter is a neighbour of z, whose report list contains the claim,
     and whose path avoids z (z's bit in the mask detects membership; me
     itself is excluded from the masks and handled upfront). Computed
     lazily per queried claim — fault discovery probes only a small
     subset of the claim universe — and the packing certificate itself is
     memoised across claims that collect the same masks. *)
  let pcache = Packing.Cache.create () in
  let support_masks ~z ~keep =
    let masks = ref [] in
    Nodeset.iter
      (fun y ->
        List.iter
          (fun grp ->
            if keep grp.index then
              List.iter
                (fun mask ->
                  if not (Packing.mem mask z) then masks := mask :: !masks)
                grp.masks)
          (groups_of y))
      (G.neighbors g z);
    !masks
  in
  let supported ~f masks =
    Packing.Cache.count pcache masks ~limit:(f + 1) >= f + 1
  in
  (* Answers by int key, for one [f] at a time: every caller asks with its
     run's [f], and a query with another [f] starts both memos afresh. *)
  let memo_f = ref min_int in
  let sent_memo = Itbl.create 256 and silent_memo = Itbl.create 256 in
  let memo_for f tbl =
    if f <> !memo_f then begin
      Itbl.reset sent_memo;
      Itbl.reset silent_memo;
      memo_f := f
    end;
    tbl
  in
  let sent_pid ~f ~z ~value ~pid =
    if z = me then false (* a node never accuses itself *)
    else if G.mem_edge g z me then mem_claim scope direct ~z ~value ~pid
    else
      let key = claim_key scope ~z ~value ~pid in
      let memo = memo_for f sent_memo in
      match Itbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r =
            supported ~f
              (support_masks ~z ~keep:(fun idx ->
                   mem_claim scope idx ~z ~value ~pid))
          in
          Itbl.replace memo key r;
          r
  in
  let silent_pid ~f ~z ~pid =
    if z = me then false
    else if G.mem_edge g z me then not (mem_key scope direct ~z ~pid)
    else
      let key = key_of scope ~z ~pid in
      let memo = memo_for f silent_memo in
      match Itbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r =
            supported ~f
              (support_masks ~z ~keep:(fun idx ->
                   not (mem_key scope idx ~z ~pid)))
          in
          Itbl.replace memo key r;
          r
  in
  { scope; sent_pid; silent_pid }

let sent (a : attribution) ~f ~z ~(m : Bit.t Flood.wire) =
  a.sent_pid ~f ~z ~value:m.Flood.value ~pid:(pid_of a.scope m.Flood.path)

let silent_on (a : attribution) ~f ~z ~path =
  a.silent_pid ~f ~z ~pid:(pid_of a.scope path)

let no_evidence = 0
let tamper = 1
let omission = 2

(* Scan prefixes are ids of the scope [learns] was built in.

   The evidence on the node at position i of a scanned path depends only
   on the prefix through it (which fixes the node and the prefix its
   transmission carries) and on the flipped value: the paths from one w
   share most of their prefixes, so each (prefix, value) is evaluated
   once per call and read back from the scope's memo after that. The
   memo only skips repeats of queries [learns] has already memoised, so
   the queries that reach the packing layer, and its counters, are the
   ones a plain scan makes. *)
let discover g ~f ~me ~store1 ~(learns : attribution)
    ?(trace = fun ~w:_ ~u:_ ~path:_ ~z:_ ~kind:_ -> ()) () =
  let scope = learns.scope in
  scope.epoch <- scope.epoch + 1;
  let epoch = scope.epoch in
  let evidence ~bbar ~z ~before ~through =
    let memo = scope.memo.(Bit.to_int bbar) in
    let cell = memo.(through) in
    if cell lsr 2 = epoch then cell land 3
    else begin
      let e =
        if z = me then no_evidence
        else if learns.sent_pid ~f ~z ~value:bbar ~pid:before then tamper
        else if learns.silent_pid ~f ~z ~pid:before then omission
        else no_evidence
      in
      memo.(through) <- (epoch lsl 2) lor e;
      e
    end
  in
  let detected = ref Nodeset.empty in
  let n = G.size g in
  for w = 0 to n - 1 do
    List.iter
      (fun b ->
        let bbar = Bit.flip b in
        for u = 0 to n - 1 do
          if u <> w then
            List.iter
              (fun p ->
                (* Scan w..u; the transmitted message of the node at
                   position i carries the path prefix before it. The first
                   node with reliable tamper OR omission evidence is
                   provably faulty. *)
                let rec scan i =
                  if i < Array.length p.nodes then begin
                    let z = p.nodes.(i) in
                    let e =
                      evidence ~bbar ~z ~before:p.prefixes.(i)
                        ~through:p.prefixes.(i + 1)
                    in
                    if e = tamper then begin
                      trace ~w ~u ~path:p.route ~z ~kind:"tamper";
                      Lbc_obs.Obs.incr "a2.evidence.tamper";
                      detected := Nodeset.add z !detected
                    end
                    else if e = omission then begin
                      trace ~w ~u ~path:p.route ~z ~kind:"omission";
                      Lbc_obs.Obs.incr "a2.evidence.omission";
                      detected := Nodeset.add z !detected
                    end
                    else scan (i + 1)
                  end
                in
                scan 0)
              (family scope ~limit:(2 * f) ~w ~u)
        done)
      (Flood.reliable_values ~f store1 ~origin:w)
  done;
  !detected

(* ------------------------------------------------------------------ *)
(* Phase 3: decision.                                                   *)
(* ------------------------------------------------------------------ *)

let type_b_decision g ~f ~store1 =
  let vals =
    List.concat_map
      (fun w -> Flood.reliable_values ~f store1 ~origin:w)
      (G.nodes g)
  in
  Bit.majority vals

(* Type A: adopt a phase-3 decision received from a non-faulty node along
   a fault-free path, else majority of the non-faulty inputs read along
   fault-free phase-1 paths. *)
let type_a_decision g ~me ~detected ~store1 ~store3 =
  let candidate =
    Flood.records store3
    |> List.filter (fun (origin, path, _) ->
           origin <> me
           && (not (Nodeset.mem origin detected))
           && G.path_excludes path detected)
    |> List.sort (fun (o1, p1, d1) (o2, p2, d2) ->
           match Int.compare o1 o2 with
           | 0 -> (
               match Lbc_sim.Det.compare_int_list p1 p2 with
               | 0 -> Bit.compare d1 d2
               | c -> c)
           | c -> c)
  in
  match candidate with
  | (_, _, delta) :: _ -> delta
  | [] ->
      let vals =
        List.filter_map
          (fun w ->
            if Nodeset.mem w detected || w = me then None
            else
              match
                Lbc_graph.Traversal.shortest_path ~exclude:detected g ~src:w
                  ~dst:me
              with
              | None -> None
              | Some path -> Flood.value_along store1 ~path)
          (G.nodes g)
      in
      let own = Option.to_list (Flood.own_value store1) in
      Bit.majority (own @ vals)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let flip_reports (reports : report list) : report list =
  List.map
    (fun (z, (m : Bit.t Flood.wire)) ->
      (z, { m with Flood.value = Bit.flip m.Flood.value }))
    reports

(* Honest relays forward a flooded value allocation unchanged, so a
   tampering node flips the same (large) list object over and over;
   memoizing on physical identity shares the flipped copy too, which
   keeps the downstream attribution indexes' value-grouping on its
   physical-equality fast path instead of re-proving structural equality
   per record. One memo per faulty role closure, so no state crosses a
   scenario (or a domain); the table stays small — one entry per
   distinct value object the node ever tampers. Purely an allocation/
   sharing change: the flipped lists are structurally identical. *)
let memoized_flip_reports () =
  let memo = ref [] in
  fun reports ->
    match List.assq reports !memo with
    | flipped -> flipped
    | exception Not_found ->
        let flipped = flip_reports reports in
        memo := (reports, flipped) :: !memo;
        flipped

let run_traced ~g ~f ~inputs ~faulty
    ?(strategy = fun _ -> Strategy.Flip_forwards) ?(seed = 0) () =
  let n = G.size g in
  if Array.length inputs <> n then
    invalid_arg "Algorithm2.run: inputs length mismatch";
  if f < 0 then invalid_arg "Algorithm2.run: negative f";
  let topo = Engine.topology_of_graph g in
  let per_phase = Flood.rounds_needed g in
  let is_faulty v = Nodeset.mem v faulty in
  (* One path intern table for the honest stores of all three floods:
     every node relays the same paths, so each is interned once. *)
  let paths = P.create g in
  (* Phase 1 *)
  let roles1 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep (strategy v) ~g ~me:v ~vcompare:Bit.compare
               ~input:inputs.(v) ~default:Bit.default ~flip:Bit.flip ~seed)
        else Engine.Honest (phase1_proc g ~paths ~me:v ~input:inputs.(v)))
  in
  let r1 =
    Engine.run ~record:true topo ~model:Engine.Local_broadcast
      ~rounds:(per_phase + 1) ~roles:roles1
  in
  let p1 v =
    match r1.Engine.outputs.(v) with
    | Some st -> st
    | None -> invalid_arg "Algorithm2: missing phase-1 state"
  in
  (* Phase 2 *)
  Engine.check_fuel ();
  let reports v =
    if is_faulty v then
      reports_of g ~who:v (heard_from_transcript g ~who:v r1.Engine.transcript)
    else reports_of g ~who:v (List.rev (p1 v).heard_rev)
  in
  let roles2 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep (strategy v) ~g ~me:v ~vcompare:compare_reports
               ~input:(reports v) ~default:[] ~flip:(memoized_flip_reports ())
               ~seed:(seed + 1))
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:compare_reports ~paths
                  ~initiate:(reports v) ~default:[] ())))
  in
  let r2 =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds:per_phase
      ~roles:roles2
  in
  (* Fault discovery at each honest node, sharing one scope *)
  let scope = scope_over g paths in
  let detected =
    Array.init n (fun v ->
        if is_faulty v then Nodeset.empty
        else begin
          let store2 =
            match r2.Engine.outputs.(v) with
            | Some s -> s
            | None -> invalid_arg "Algorithm2: missing phase-2 store"
          in
          let learns =
            attribution_index ~scope g ~me:v
              ~heard:(List.rev (p1 v).heard_rev) ~store2
          in
          discover g ~f ~me:v ~store1:(p1 v).store1 ~learns ()
        end)
  in
  Array.iteri
    (fun v d ->
      if not (is_faulty v) then
        Lbc_obs.Obs.observe "a2.faults_discovered" (Nodeset.cardinal d))
    detected;
  let is_type_a v = Nodeset.cardinal detected.(v) = f in
  for v = 0 to n - 1 do
    if not (is_faulty v) then
      Lbc_obs.Obs.incr (if is_type_a v then "a2.type_a" else "a2.type_b")
  done;
  let b_decision =
    Array.init n (fun v ->
        if is_faulty v || is_type_a v then None
        else Some (type_b_decision g ~f ~store1:(p1 v).store1))
  in
  (* Phase 3 *)
  Engine.check_fuel ();
  let roles3 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep (strategy v) ~g ~me:v ~vcompare:Bit.compare
               ~input:inputs.(v) ~default:Bit.default ~flip:Bit.flip
               ~seed:(seed + 2))
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:Bit.compare ~paths
                  ?initiate:b_decision.(v) ())))
  in
  let r3 =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds:per_phase
      ~roles:roles3
  in
  let decision =
    Array.init n (fun v ->
        if is_faulty v then None
        else
          match b_decision.(v) with
          | Some d -> Some d
          | None ->
              let store3 =
                match r3.Engine.outputs.(v) with
                | Some s -> s
                | None -> invalid_arg "Algorithm2: missing phase-3 store"
              in
              Some
                (type_a_decision g ~me:v ~detected:detected.(v)
                   ~store1:(p1 v).store1 ~store3))
  in
  let stats = [ r1.Engine.stats; r2.Engine.stats; r3.Engine.stats ] in
  let sum field = List.fold_left (fun acc s -> acc + field s) 0 stats in
  Lbc_obs.Obs.add "algo.phases" 3;
  let outcome =
    {
      Spec.outputs = decision;
      faulty;
      inputs;
      rounds = sum (fun s -> s.Engine.rounds);
      phases = 3;
      transmissions = sum (fun s -> s.Engine.transmissions);
      deliveries = sum (fun s -> s.Engine.deliveries);
    }
  in
  let node_reports =
    Array.init n (fun v ->
        if is_faulty v then None
        else
          Some
            {
              type_a = is_type_a v;
              detected = detected.(v);
              decision = Option.get decision.(v);
            })
  in
  {
    outcome;
    node_reports;
    store1 =
      Array.init n (fun v ->
          if is_faulty v then None else Some (p1 v).store1);
    heard =
      Array.init n (fun v ->
          if is_faulty v then [] else List.rev (p1 v).heard_rev);
    store2 = r2.Engine.outputs;
  }

let run_detailed ~g ~f ~inputs ~faulty ?strategy ?seed () =
  let t = run_traced ~g ~f ~inputs ~faulty ?strategy ?seed () in
  (t.outcome, t.node_reports)

let run ~g ~f ~inputs ~faulty ?strategy ?seed () =
  fst (run_detailed ~g ~f ~inputs ~faulty ?strategy ?seed ())
