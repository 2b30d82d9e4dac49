(* Per-execution interning of path annotations.

   Wire paths are the message payload of the flooding layer and were
   hashed polymorphically (as [int list]) on every table probe. This
   module maps each distinct path to a dense integer id via a trie over
   node ids: extending a known path by one node is one probe of an
   int-keyed table, and every property the flooding rules and acceptance
   queries need — length, first/last node, the node bitset, simple-path
   validity — is computed once when the trie node is created and read
   back in O(1).

   Memory is linear in the number of trie nodes: a node stores its
   parent id and its last node, not its path. The origin-first list is
   rebuilt from the parent chain the first time {!path} asks for it and
   memoised, so only paths somebody reads pay for a list, and each pays
   once. (Storing every prefix's list eagerly copied the whole prefix per
   trie node — O(len²) words per path.) All trie edges of one table live
   in a single int-keyed hash table keyed on [parent * n + node], instead
   of an [n]-wide child array per inner node.

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

(* Trie edges, keyed on [parent * n + node]. *)
module Edges = Hashtbl.Make (Int)

type t = {
  g : G.t;
  n : int;
  mutable count : int;
  mutable parents : int array; (* -1 for the root *)
  mutable lasts : int array; (* -1 for the root *)
  mutable lens : int array;
  mutable firsts : int array; (* -1 for the root *)
  mutable masks : Packing.mask array; (* set of nodes on the path *)
  mutable simple : bool array; (* is a simple path of [g] (root: true) *)
  mutable nodes : int list array; (* origin first; [unbuilt] until asked *)
  children : int Edges.t;
}

let create g =
  let cap = 64 in
  {
    g;
    n = G.size g;
    count = 1;
    parents = Array.make cap (-1);
    lasts = Array.make cap (-1);
    lens = Array.make cap 0;
    firsts = Array.make cap (-1);
    masks = Array.make cap Packing.empty;
    simple = Array.make cap true;
    nodes = Array.make cap [];
    children = Edges.create 64;
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
  t.nodes <- extend unbuilt t.nodes

let extend t pid u =
  if pid < 0 || u < 0 || u >= t.n then invalid
  else begin
    let key = (pid * t.n) + u in
    match Edges.find_opt t.children key with
    | Some id -> id
    | None ->
        if t.count = Array.length t.lens then grow t;
        let id = t.count in
        t.count <- id + 1;
        t.parents.(id) <- pid;
        t.lasts.(id) <- u;
        t.lens.(id) <- t.lens.(pid) + 1;
        t.firsts.(id) <- (if pid = root then u else t.firsts.(pid));
        t.masks.(id) <- Packing.add t.masks.(pid) u;
        t.simple.(id) <-
          t.simple.(pid)
          && (not (Packing.mem t.masks.(pid) u))
          && (pid = root || G.mem_edge t.g t.lasts.(pid) u);
        t.nodes.(id) <- unbuilt;
        Edges.replace t.children key id;
        id
  end

let graph t = t.g

let intern t path = List.fold_left (fun pid u -> extend t pid u) root path

let check_id t id =
  if id < 0 || id >= t.count then invalid_arg "Path_intern: invalid id"

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

let length t id = if id < 0 then -1 else t.lens.(id)

let first t id =
  check_id t id;
  t.firsts.(id)

let last t id =
  check_id t id;
  t.lasts.(id)

let mask t id =
  check_id t id;
  t.masks.(id)

let is_path t id = id > root && id < t.count && t.simple.(id)
let mem t id u = id >= 0 && Packing.mem t.masks.(id) u
