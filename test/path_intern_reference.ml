(* Retained reference implementation of Path_intern: the hashtable trie
   that lib/flood/path_intern.ml used before its trie steps became array
   reads. Every trie edge lives in one int-keyed table keyed on
   [parent * n + node], probed with the stdlib's polymorphic int hash.
   test_path_intern drives it in lock-step with the production table
   over random graphs and random intern/extend sequences and asserts
   equal ids, equal cached facts and equal exceptions.

   The code below the module aliases is the former implementation,
   unchanged. *)

module Packing = Lbc_flood.Packing

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

let issued t id = id >= 0 && id < t.count

let check_id t id =
  if not (issued t id) then invalid_arg "Path_intern: invalid id"

let extend t pid u =
  if pid < 0 || u < 0 || u >= t.n then invalid
  else begin
    let key = (pid * t.n) + u in
    match Edges.find_opt t.children key with
    | Some id -> id
    | None ->
        (* Only issued ids have edges, so an unissued [pid] lands here;
           refuse it before anything is written. *)
        check_id t pid;
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
