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

type claims = int array
(* A phase-2 report list as sorted, duplicate-free claim keys (see
   [claim_key]). *)

type node_report = { type_a : bool; detected : Nodeset.t; decision : Bit.t }

type traced = {
  outcome : Spec.outcome;
  node_reports : node_report option array;
  store1 : Bit.t Flood.store option array;
  heard : report list array;
  store2 : claims Flood.store option array;
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
  Flood.wire_length m = heard_round - 1

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
   the default initiation, exactly as the flooding rule treats them. The
   defaults go first, so the long log is not copied; [encode] sorts. *)
let with_defaults sp g ~who heard =
  let initiated =
    List.filter_map
      (fun (z, (m : Bit.t Flood.wire)) ->
        if m.Flood.pid = P.root then Some z else None)
      heard
    |> Nodeset.of_list
  in
  let missing =
    List.filter
      (fun w -> not (Nodeset.mem w initiated))
      (G.neighbor_list g who)
  in
  List.map (fun w -> (w, Flood.wire sp Bit.default [])) missing @ heard

(* Phase-2 claims.

   A report list is flooded as the sorted, duplicate-free array of its
   entries' claim keys: ((pid * n + z) * 2 + value), where pid numbers
   the entry's path in the execution's intern table ([P.intern_total]:
   fabricated paths with an out-of-range node get ids <= -2) and n is
   the graph size. The key is injective for 0 <= z < n, so two lists are
   equal as sets iff their arrays are equal, and a claim is in a list iff
   its key is in the array. A key only means something in the table that
   made it: every flood store and scope of one execution uses the same
   one. *)

let key_of ~n ~z ~pid = (pid * n) + z
let claim_key ~n ~z ~value ~pid = (key_of ~n ~z ~pid * 2) + Bit.to_int value

(* The id of a wire's path in [sp]: the wire's own when [sp] is its
   home, as for every wire of an execution. *)
let pid_in sp (m : Bit.t Flood.wire) =
  if m.Flood.home == sp then m.Flood.pid
  else P.intern_total sp (Flood.wire_path m)

let compare_claims (a : claims) (b : claims) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la || i = lb then Int.compare la lb
    else match Int.compare a.(i) b.(i) with 0 -> go (i + 1) | c -> c
  in
  if a == b then 0 else go 0

let encode sp (reports : report list) : claims =
  let n = G.size (P.graph sp) in
  let a = Array.make (List.length reports) 0 in
  List.iteri
    (fun i ((z, m) : report) ->
      if z < 0 || z >= n then invalid_arg "Algorithm2: reporter out of range";
      a.(i) <- claim_key ~n ~z ~value:m.Flood.value ~pid:(pid_in sp m))
    reports;
  (* [Array.stable_sort] is a merge sort; the heap sort of [Array.sort]
     is about 1.6 times slower on 1,300 random ints, a fig1b list. *)
  Array.stable_sort Int.compare a;
  let len = Array.length a in
  if len = 0 then a
  else begin
    let w = ref 1 in
    for r = 1 to len - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = len then a else Array.sub a 0 !w
  end

let decode sp (claims : claims) : report list =
  let n = G.size (P.graph sp) in
  Array.fold_right
    (fun k acc ->
      let x = k asr 1 in
      let z = ((x mod n) + n) mod n in
      let path = P.path_total sp ((x - z) / n) in
      (z, Flood.wire sp (Bit.of_int (k land 1)) path) :: acc)
    claims []

(* The first index whose key is at least [k]. *)
let lower_bound (claims : claims) k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if claims.(mid) < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length claims)

let has_claim (claims : claims) k =
  let i = lower_bound claims k in
  i < Array.length claims && claims.(i) = k

(* Is some claim of key (z, path) [key] in the array: 2·key or
   2·key + 1? Both sort right after everything below 2·key. *)
let has_key (claims : claims) key =
  let i = lower_bound claims (2 * key) in
  i < Array.length claims && claims.(i) <= (2 * key) + 1

let mem_claim sp claims ~z ~(m : Bit.t Flood.wire) =
  has_claim claims
    (claim_key ~n:(G.size (P.graph sp)) ~z ~value:m.Flood.value
       ~pid:(pid_in sp m))

let mem_key sp claims ~z ~path =
  has_key claims
    (key_of ~n:(G.size (P.graph sp)) ~z ~pid:(P.intern_total sp path))

(* Flipping every value flips each key's low bit. That keeps the order
   of keys with different (z, path) halves; only a pair 2k, 2k + 1 (both
   values claimed, adjacent in the array) comes out swapped. *)
let flip_claims (claims : claims) : claims =
  let a = Array.map (fun k -> k lxor 1) claims in
  let i = ref 0 in
  while !i < Array.length a - 1 do
    if a.(!i) > a.(!i + 1) then begin
      let k = a.(!i) in
      a.(!i) <- a.(!i + 1);
      a.(!i + 1) <- k;
      i := !i + 2
    end
    else incr i
  done;
  a

let claims_of sp g ~who heard = encode sp (with_defaults sp g ~who heard)

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
   over the same graph, and the phase-2 report lists it reads are mostly
   the same few objects (each reporter's claims, forwarded unchanged by
   honest relays, plus the faulty relays' flipped copies). A scope holds
   what depends only on the graph and on those lists, so one run builds
   it once instead of once per honest node:

   - the execution's intern table [sp], in which every report list's
     claim keys were made;
   - the canonical copy of each distinct report list, by structural
     equality (a list that was flipped twice is a different allocation
     but the same claims), and, per reporter, the list objects already
     met from it with their canonical copies (see [canonical]);
   - per node, the claims of its own phase-1 observations, by the
     physical [heard] list they were encoded from: [run_traced] encodes
     them for phase 2 and attribution reads them back;
   - the 2f disjoint w→u path families of fault discovery, each with its
     scan steps interned in [sp], so that a scan prefix is an int and its
     list is built once. A prefix's list is the very object the phase-1
     relays transmitted;
   - the graph's reusable disjoint-path network, which every family
     query runs on;
   - the scratch of [discover]'s prefix memo: per flipped value, an int
     array indexed by prefix id. An entry is only read back by the
     [discover] call that wrote it (its epoch), so it carries nothing
     from one node to the next.

   Nothing in a scope depends on a node's own observations except the
   memo of their claims, which is keyed by node and by the observation
   list itself, so sharing one cannot change a result; the per-node memo
   tables (and the packing certificate cache, whose hit/miss counters
   are observable) stay per node. *)

module Claims_tbl = Hashtbl.Make (struct
  type t = claims

  let equal a b = compare_claims a b = 0

  let hash (a : t) =
    Array.fold_left (fun h k -> (h * 31) + k) (Array.length a) a land max_int
end)

(* One discovery path: the route w..u, its nodes, and the ids of its
   prefixes: [prefixes.(i)] is the id of the first [i] nodes, so node
   [i]'s transmission carries [prefixes.(i)] and [prefixes.(i + 1)] is the
   prefix through it. *)
type scan_path = { route : int list; nodes : int array; prefixes : P.id array }

type scope = {
  g : G.t;
  n : int;
  sp : P.t;
  canon : claims Claims_tbl.t; (* structural -> canonical *)
  met : (claims * claims) list array;
      (* by reporter: the list objects met from it and their canonical
         copies, newest first *)
  own : (report list * claims) list array;
      (* by node: its heard lists and their claims *)
  families : scan_path list Itbl.t; (* by (limit, w, u) *)
  uv : Lbc_graph.Disjoint.network;
  mutable memo : int array array;
      (* by flipped value, then prefix id: [epoch lsl 2 lor evidence] *)
  mutable epoch : int; (* of the running [discover] call *)
}

let create_scope sp =
  let g = P.graph sp in
  {
    g;
    n = G.size g;
    sp;
    canon = Claims_tbl.create 64;
    met = Array.make (G.size g) [];
    own = Array.make (G.size g) [];
    families = Itbl.create 256;
    uv = Lbc_graph.Disjoint.network g;
    memo = [| [||]; [||] |];
    epoch = 0;
  }

(* The claims of [who]'s own phase-1 observations [heard], encoded once
   per list object. *)
let own_claims scope ~who heard =
  match List.assq_opt heard scope.own.(who) with
  | Some claims -> claims
  | None ->
      let claims = claims_of scope.sp scope.g ~who heard in
      scope.own.(who) <- (heard, claims) :: scope.own.(who);
      claims

(* The canonical copy of the report list [claims] that a record from
   [reporter] carries.

   A run's records carry few distinct list objects: honest relays forward
   a value allocation unchanged, and a tampering relay reuses one flipped
   copy per list (see [memoized_flip]). So a lookup first asks the
   reporter's own short list of objects met so far, by physical identity;
   its cost depends on how many variants of one reporter's list circulate,
   not on n or on the lists' length. Only a list object met for the first
   time goes to [canon], which hashes and compares whole arrays. That
   lookup still lets a double-flipped copy find its original. Claims are
   never mutated once flooded, so the identity hit returns exactly what
   the structural lookup would. *)
let canonical scope ~reporter claims =
  let met = scope.met.(reporter) in
  match List.assq_opt claims met with
  | Some c -> c
  | None ->
      let c =
        match Claims_tbl.find_opt scope.canon claims with
        | Some c -> c
        | None ->
            Claims_tbl.replace scope.canon claims claims;
            claims
      in
      scope.met.(reporter) <- (claims, c) :: met;
      c

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
   records by their canonical claims means one membership search per
   group and query, not one per record. *)
type group = {
  claims : claims;
  mutable masks : Packing.mask list; (* one disjointness mask per record *)
}

let attribution_index ?scope g ~me ~heard ~store2 =
  let sp = Flood.paths store2 in
  let scope =
    match scope with
    | None -> create_scope sp
    | Some s ->
        if s.g != g && not (G.equal s.g g) then
          invalid_arg "Algorithm2: scope built for another graph";
        if s.sp != sp then
          invalid_arg "Algorithm2: scope over another path intern table";
        s
  in
  let n = scope.n in
  let direct = own_claims scope ~who:me heard in
  let by_reporter : group list ref Itbl.t = Itbl.create 64 in
  Flood.iter_records store2
    (fun ~origin:reporter ~path:_ ~sans_me:mask ~value:(claims : claims) ->
      let groups =
        match Itbl.find_opt by_reporter reporter with
        | Some gs -> gs
        | None ->
            let gs = ref [] in
            Itbl.replace by_reporter reporter gs;
            gs
      in
      let claims = canonical scope ~reporter claims in
      let group =
        match List.find_opt (fun grp -> grp.claims == claims) !groups with
        | Some grp -> grp
        | None ->
            let grp = { claims; masks = [] } in
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
            if keep grp.claims then
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
    let key = claim_key ~n ~z ~value ~pid in
    if z = me then false (* a node never accuses itself *)
    else if G.mem_edge g z me then has_claim direct key
    else
      let memo = memo_for f sent_memo in
      match Itbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r =
            supported ~f
              (support_masks ~z ~keep:(fun claims -> has_claim claims key))
          in
          Itbl.replace memo key r;
          r
  in
  let silent_pid ~f ~z ~pid =
    let key = key_of ~n ~z ~pid in
    if z = me then false
    else if G.mem_edge g z me then not (has_key direct key)
    else
      let memo = memo_for f silent_memo in
      match Itbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r =
            supported ~f
              (support_masks ~z ~keep:(fun claims -> not (has_key claims key)))
          in
          Itbl.replace memo key r;
          r
  in
  { scope; sent_pid; silent_pid }

let sent (a : attribution) ~f ~z ~(m : Bit.t Flood.wire) =
  a.sent_pid ~f ~z ~value:m.Flood.value ~pid:(pid_in a.scope.sp m)

let silent_on (a : attribution) ~f ~z ~path =
  a.silent_pid ~f ~z ~pid:(P.intern_total a.scope.sp path)

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

(* Honest relays forward a flooded value allocation unchanged, so a
   tampering node flips the same (large) claims array over and over;
   memoizing on physical identity shares the flipped copy too, which
   keeps the downstream attribution's grouping on its physical-equality
   fast path instead of re-proving structural equality per record. One
   memo per faulty role closure, so no state crosses a scenario (or a
   domain); the table stays small — one entry per distinct value object
   the node ever tampers. Purely an allocation/sharing change: the
   flipped arrays are structurally identical. *)
let memoized_flip () =
  let memo = ref [] in
  fun claims ->
    match List.assq_opt claims !memo with
    | Some flipped -> flipped
    | None ->
        let flipped = flip_claims claims in
        memo := (claims, flipped) :: !memo;
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
  (* One path intern table for every flood store of all three floods,
     faulty ones included: every node relays the same paths, so each is
     interned once. Phase-2 claim keys are made in it too. *)
  let paths = P.create g in
  (* Phase 1 *)
  let roles1 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep (strategy v) ~g ~paths ~me:v ~vcompare:Bit.compare
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
  let heard =
    Array.init n (fun v -> if is_faulty v then [] else List.rev (p1 v).heard_rev)
  in
  (* The scope encodes each honest node's claims here and hands the same
     array back to that node's attribution index. *)
  let scope = create_scope paths in
  let reports v =
    if is_faulty v then
      claims_of paths g ~who:v
        (heard_from_transcript g ~who:v r1.Engine.transcript)
    else own_claims scope ~who:v heard.(v)
  in
  let roles2 =
    Array.init n (fun v ->
        if is_faulty v then
          Engine.Faulty
            (Strategy.fstep (strategy v) ~g ~paths ~me:v
               ~vcompare:compare_claims ~input:(reports v) ~default:[||]
               ~flip:(memoized_flip ()) ~seed:(seed + 1))
        else
          Engine.Honest
            (Flood.proc
               (Flood.create g ~me:v ~vcompare:compare_claims ~paths
                  ~initiate:(reports v) ~default:[||] ())))
  in
  let r2 =
    Engine.run topo ~model:Engine.Local_broadcast ~rounds:per_phase
      ~roles:roles2
  in
  (* Fault discovery at each honest node, sharing the scope *)
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
            attribution_index ~scope g ~me:v ~heard:heard.(v) ~store2
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
            (Strategy.fstep (strategy v) ~g ~paths ~me:v ~vcompare:Bit.compare
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
    heard;
    store2 = r2.Engine.outputs;
  }

let run_detailed ~g ~f ~inputs ~faulty ?strategy ?seed () =
  let t = run_traced ~g ~f ~inputs ~faulty ?strategy ?seed () in
  (t.outcome, t.node_reports)

let run ~g ~f ~inputs ~faulty ?strategy ?seed () =
  fst (run_detailed ~g ~f ~inputs ~faulty ?strategy ?seed ())
