(* Per-execution interning of path annotations.

   Wire paths are the message payload of the flooding layer and were
   hashed polymorphically (as [int list]) on every table probe. This
   module maps each distinct path to a dense integer id via a trie over
   node ids: extending a known path by one node is two array reads, and
   every property the flooding rules and acceptance queries need —
   length, first/last node, the node bitset, simple-path validity — is
   computed once when the trie node is created and read back in O(1).

   Memory is linear in the number of trie nodes: a node stores its
   parent id and its last node, not its path. The origin-first list is
   rebuilt from the parent chain the first time {!path} asks for it and
   memoised, so only paths somebody reads pay for a list, and each pays
   once. (Storing every prefix's list eagerly copied the whole prefix per
   trie node — O(len²) words per path.)

   Trie edges: an honest extension always steps to a neighbour of the
   path's last node, so a trie node's children are numbered by rank in
   that node's neighbour list. The rank table, built once per table,
   gives [rank.(l * n + u)] = u's index in [Graph.neighbor_list g l], or
   -1 (n² ints: 80 KB at n = 100). Each trie node gets a child array of
   [degree (last pid)] slots on its first child; the root's has [n]
   slots, indexed by node. Only an extension to a non-neighbour — a
   fabricated annotation — goes to the int-keyed overflow table, keyed
   on [parent * n + node].

   Ids are meaningful only relative to the table that produced them
   (they are allocation-ordered), so they are never serialized and never
   cross an execution boundary; see README.md "Performance". *)

module G = Lbc_graph.Graph

type id = int

let root = 0
let invalid = -1

(* Placeholder in [nodes] for a list not built yet. Compared physically:
   no interned path is ever this allocation. *)
let unbuilt : int list = [ -1 ]

(* Placeholder in [kids] for a trie node without children yet. *)
let no_kids : int array = [||]

type t = {
  g : G.t;
  n : int;
  rank : int array; (* [l * n + u] -> u's index among l's neighbours, or -1 *)
  degree : int array; (* by node, as the rank table counted it *)
  mutable count : int;
  mutable parents : int array; (* -1 for the root *)
  mutable lasts : int array; (* -1 for the root *)
  mutable lens : int array;
  mutable firsts : int array; (* -1 for the root *)
  mutable masks : Packing.mask array; (* set of nodes on the path *)
  mutable simple : bool array; (* is a simple path of [g] (root: true) *)
  mutable nodes : int list array; (* origin first; [unbuilt] until asked *)
  mutable kids : int array array;
      (* child ids by neighbour rank (the root's: by node), [invalid] for
         none; [no_kids] until the first child *)
  overflow : int Itbl.t; (* non-neighbour children, by [parent * n + node] *)
}

let create g =
  let n = G.size g in
  let rank = Array.make (n * n) (-1) in
  let degree = Array.make n 0 in
  for l = 0 to n - 1 do
    List.iteri (fun i u -> rank.((l * n) + u) <- i) (G.neighbor_list g l);
    degree.(l) <- G.degree g l
  done;
  let cap = 64 in
  {
    g;
    n;
    rank;
    degree;
    count = 1;
    parents = Array.make cap (-1);
    lasts = Array.make cap (-1);
    lens = Array.make cap 0;
    firsts = Array.make cap (-1);
    masks = Array.make cap Packing.empty;
    simple = Array.make cap true;
    nodes = Array.make cap [];
    kids = Array.make cap no_kids;
    overflow = Itbl.create 16;
  }

let grow t =
  let cap = Array.length t.lens in
  let cap' = 2 * cap in
  let extend dummy a =
    let a' = Array.make cap' dummy in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.parents <- extend (-1) t.parents;
  t.lasts <- extend (-1) t.lasts;
  t.lens <- extend 0 t.lens;
  t.firsts <- extend (-1) t.firsts;
  t.masks <- extend Packing.empty t.masks;
  t.simple <- extend true t.simple;
  t.nodes <- extend unbuilt t.nodes;
  t.kids <- extend no_kids t.kids

let issued t id = id >= 0 && id < t.count

let check_id t id =
  if not (issued t id) then invalid_arg "Path_intern: invalid id"

(* The slot of [u] among [pid]'s children: its node id under the root,
   its neighbour rank under any other node; -1 for a non-neighbour. *)
let slot t pid u = if pid = root then u else t.rank.((t.lasts.(pid) * t.n) + u)

(* A new trie node [pid · u]; [pid] is issued and [u] in range. The new
   edge exists iff [slot t pid u >= 0] (vacuously under the root). *)
let add t pid u ~slot =
  if t.count = Array.length t.lens then grow t;
  let id = t.count in
  t.count <- id + 1;
  t.parents.(id) <- pid;
  t.lasts.(id) <- u;
  t.lens.(id) <- t.lens.(pid) + 1;
  t.firsts.(id) <- (if pid = root then u else t.firsts.(pid));
  t.masks.(id) <- Packing.add t.masks.(pid) u;
  t.simple.(id) <-
    t.simple.(pid) && (not (Packing.mem t.masks.(pid) u)) && slot >= 0;
  t.nodes.(id) <- unbuilt;
  id

let extend t pid u =
  if pid < 0 || u < 0 || u >= t.n then invalid
  else begin
    (* Refuse an unissued [pid] before anything is written. *)
    check_id t pid;
    let s = slot t pid u in
    if s >= 0 then begin
      let kids =
        let k = t.kids.(pid) in
        if k != no_kids then k
        else begin
          let width = if pid = root then t.n else t.degree.(t.lasts.(pid)) in
          let k = Array.make width invalid in
          t.kids.(pid) <- k;
          k
        end
      in
      let id = kids.(s) in
      if id <> invalid then id
      else begin
        let id = add t pid u ~slot:s in
        kids.(s) <- id;
        id
      end
    end
    else begin
      let key = (pid * t.n) + u in
      match Itbl.find_opt t.overflow key with
      | Some id -> id
      | None ->
          let id = add t pid u ~slot:s in
          Itbl.replace t.overflow key id;
          id
    end
  end

let find t pid u =
  if not (issued t pid) || u < 0 || u >= t.n then invalid
  else
    let s = slot t pid u in
    if s >= 0 then
      let k = t.kids.(pid) in
      if k == no_kids then invalid else k.(s)
    else
      match Itbl.find_opt t.overflow ((pid * t.n) + u) with
      | Some id -> id
      | None -> invalid

let graph t = t.g

let intern t path = List.fold_left (fun pid u -> extend t pid u) root path

let path t id =
  check_id t id;
  let l = t.nodes.(id) in
  if l != unbuilt then l
  else begin
    let rec build acc id =
      if id = root then acc else build (t.lasts.(id) :: acc) t.parents.(id)
    in
    let l = build [] id in
    t.nodes.(id) <- l;
    l
  end

let length t id = if issued t id then t.lens.(id) else -1

let first t id =
  check_id t id;
  t.firsts.(id)

let last t id =
  check_id t id;
  t.lasts.(id)

let mask t id =
  check_id t id;
  t.masks.(id)

let is_path t id = id > root && issued t id && t.simple.(id)
let mem t id u = issued t id && Packing.mem t.masks.(id) u
