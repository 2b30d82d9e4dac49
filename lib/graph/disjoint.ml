(* Split-vertex flow networks: node x becomes x_in = 2x and x_out = 2x + 1
   with a unit-capacity arc between them, so each node carries at most one
   path. The super-source is vertex 2n; the flow sink is [sink]_in, so the
   sink node is shared by all paths. *)

let vin x = 2 * x
let vout x = (2 * x) + 1

let add net ~src ~dst ~cap =
  let (_ : int) = Maxflow.add_edge net ~src ~dst ~cap in
  ()

(* A fresh network for the [Uv] (set-to-node) queries: each source is
   usable by at most one path. *)
let build_set_network ~n ~adj ~sources ~sink ~excluded =
  let net = Maxflow.create ((2 * n) + 1) in
  let s = 2 * n in
  (* Vertex splits. The sink needs no split (paths stop at sink_in). *)
  for x = 0 to n - 1 do
    if x <> sink && not (Nodeset.mem x excluded) then
      add net ~src:(vin x) ~dst:(vout x) ~cap:1
  done;
  (* Directed arcs; arcs out of the sink are irrelevant. Adjacency arcs
     get effectively-infinite capacity so that minimum cuts are realised
     on the vertex-split arcs; path counts are unaffected because every
     unit of flow still crosses unit split arcs. *)
  for x = 0 to n - 1 do
    if x <> sink then
      List.iter
        (fun y ->
          if y <> x && y >= 0 && y < n then
            add net ~src:(vout x) ~dst:(vin y) ~cap:n)
        (adj x)
  done;
  List.iter
    (fun x ->
      if x <> sink then
        if Nodeset.mem x excluded then
          (* Usable as an endpoint only: enter directly at x_out. *)
          add net ~src:s ~dst:(vout x) ~cap:1
        else add net ~src:s ~dst:(vin x) ~cap:1)
    sources;
  (net, s)

(* Decompose the computed unit flow into paths from the super-source to
   sink_in, translating split vertices back to node identifiers: a walk
   drops the super-source and collapses each x_in / x_out pair into x as
   it goes. *)
let extract_paths net ~super ~sink_in ~flow =
  let next v =
    match Maxflow.take_flow net v with
    | Some w -> w
    | None -> invalid_arg "Disjoint.extract_paths: broken flow"
  in
  let rec walk v acc =
    let acc = match acc with y :: _ when y = v / 2 -> acc | _ -> (v / 2) :: acc in
    if v = sink_in then List.rev acc else walk (next v) acc
  in
  List.init flow (fun _ -> walk (next super) [])

let max_disjoint_directed ~n ~adj ~sources ~sink ?(excluded = Nodeset.empty)
    ?limit () =
  let sources = List.filter (fun x -> x <> sink) sources in
  let net, s = build_set_network ~n ~adj ~sources ~sink ~excluded in
  let flow = Maxflow.max_flow ?limit net ~src:s ~sink:(vin sink) in
  extract_paths net ~super:s ~sink_in:(vin sink) ~flow

(* One network answers every [uv] query on a graph. It holds, in this
   order, the split arc of every node (capacity 1), the arc x_out -> y_in
   for every x and every neighbour y in [Graph.neighbor_list] order
   (capacity n), and a super-source arc s -> x_out for every x (capacity
   0). A query (u, v, excluded) first [reset]s, then zeroes the split arcs
   of u, v and the excluded nodes, lowers u's direct arc to v (if any) to
   1 — without a split in between, that edge carries one path — and
   raises u's super-source arc to n.

   This is exactly the network a fresh per-query construction would
   build, plus arcs whose capacity is zero for the whole query: the
   splits of u, v and the excluded nodes, the other nodes' super-source
   arcs, and the sink's adjacency arcs. The last are dead because no
   search reaches v_out: the arcs into it are v's zeroed split, v's zero
   super-source arc and the twins of the sink's adjacency arcs, which
   carry nothing while v_out is unreached. A zero arc never carries
   flow, so its residual twin stays zero too, and both are skipped by
   every search and by [Maxflow.take_flow]. The fresh
   construction adds its arcs in the same relative order (splits, then
   adjacency by x and neighbour order, then the source arc), so each
   vertex sees its usable arcs in the same order as there: every
   augmenting path, the final flow, its decomposition into paths and the
   residual cut are the ones the fresh network gives. *)
type network = {
  net : Maxflow.t;
  n : int;
  split : int array; (* x -> arc x_in -> x_out *)
  super : int array; (* x -> arc s -> x_out *)
  nbrs : int array array; (* x -> neighbours, in neighbor_list order *)
  adj_arc : int array array; (* x -> arcs x_out -> y_in, parallel to nbrs *)
}

let network g =
  let n = Graph.size g in
  let net = Maxflow.create ((2 * n) + 1) in
  let s = 2 * n in
  let split = Array.make n (-1) and super = Array.make n (-1) in
  for x = 0 to n - 1 do
    split.(x) <- Maxflow.add_edge net ~src:(vin x) ~dst:(vout x) ~cap:1
  done;
  let nbrs = Array.init n (fun x -> Array.of_list (Graph.neighbor_list g x)) in
  let adj_arc = Array.map (fun ys -> Array.make (Array.length ys) (-1)) nbrs in
  for x = 0 to n - 1 do
    Array.iteri
      (fun k y ->
        adj_arc.(x).(k) <- Maxflow.add_edge net ~src:(vout x) ~dst:(vin y) ~cap:n)
      nbrs.(x)
  done;
  for x = 0 to n - 1 do
    super.(x) <- Maxflow.add_edge net ~src:s ~dst:(vout x) ~cap:0
  done;
  { net; n; split; super; nbrs; adj_arc }

(* Set the network up for one (u, v) query, run the max-flow, and return
   the flow value; the flow stays recorded for decomposition or a cut. *)
let flow_uv ?(excluded = Nodeset.empty) ?limit t ~u ~v =
  if u = v then invalid_arg "Disjoint: u = v";
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Disjoint: node out of range";
  let net = t.net in
  Maxflow.reset net;
  Maxflow.set_capacity net t.split.(u) 0;
  Maxflow.set_capacity net t.split.(v) 0;
  Nodeset.iter
    (fun x -> if x >= 0 && x < t.n then Maxflow.set_capacity net t.split.(x) 0)
    excluded;
  Array.iteri
    (fun k y -> if y = v then Maxflow.set_capacity net t.adj_arc.(u).(k) 1)
    t.nbrs.(u);
  Maxflow.set_capacity net t.super.(u) t.n;
  Maxflow.max_flow ?limit net ~src:(2 * t.n) ~sink:(vin v)

let uv_paths ?excluded ?limit t ~u ~v =
  let flow = flow_uv ?excluded ?limit t ~u ~v in
  (* The walk enters at u_out, so u is already the first node of each path. *)
  extract_paths t.net ~super:(2 * t.n) ~sink_in:(vin v) ~flow

let disjoint_uv_paths ?excluded ?limit g ~u ~v =
  uv_paths ?excluded ?limit (network g) ~u ~v

let count_uv ?excluded ?limit g ~u ~v = flow_uv ?excluded ?limit (network g) ~u ~v

let disjoint_set_paths ?(excluded = Nodeset.empty) ?limit g ~sources ~sink =
  if Nodeset.mem sink sources then
    invalid_arg "Disjoint.disjoint_set_paths: sink belongs to sources";
  let n = Graph.size g in
  let adj x = Graph.neighbor_list g x in
  max_disjoint_directed ~n ~adj
    ~sources:(Nodeset.elements sources)
    ~sink ~excluded ?limit ()

let is_complete g =
  let n = Graph.size g in
  Graph.num_edges g = n * (n - 1) / 2

(* Row pruning, as in Even's vertex-connectivity algorithm. Both
   searches below only try pairs (u, v) with u < v and u in a short
   prefix of the node ids, which is enough:

   Let S be a vertex separator with |S| < k, and suppose k <= n. Some
   node among 0 .. k-1 lies outside S; let i be the smallest. Nodes
   0 .. i-1 all lie in S, so every node in a component of G - S other
   than i's has an index larger than i, and is not adjacent to i. For
   such a v, Menger gives count_uv i v <= |S| < k, and (i, v) is a pair
   of row i < k.

   So κ(G) < k iff some row u < k has a non-adjacent v > u with fewer
   than k disjoint paths ([connectivity_at_least]). With k = κ + 1 such
   a row i <= κ exists ([connectivity]). Every count is >= κ, so the
   running minimum m never drops below κ. Rows u >= m are skipped: while
   m > κ that never skips row i (i <= κ < m), and once m = κ no row can
   lower it. *)
let connectivity_on g t =
  let n = Graph.size g in
  let best = ref (n - 1) in
  let u = ref 0 in
  while !u < !best do
    for v = !u + 1 to n - 1 do
      if not (Graph.mem_edge g !u v) then
        best := min !best (flow_uv ~limit:!best t ~u:!u ~v)
    done;
    incr u
  done;
  !best

let connectivity g =
  let n = Graph.size g in
  if n <= 1 then 0
  else if not (Traversal.is_connected g) then 0
  else if is_complete g then n - 1
  else connectivity_on g (network g)

let min_vertex_cut g =
  let n = Graph.size g in
  if n <= 1 then invalid_arg "Disjoint.min_vertex_cut: graph too small";
  if not (Traversal.is_connected g) then
    invalid_arg "Disjoint.min_vertex_cut: disconnected graph";
  if is_complete g then invalid_arg "Disjoint.min_vertex_cut: complete graph";
  (* Find a non-adjacent pair realising κ, then read the cut off the
     saturated vertex-split arcs of a full max-flow for that pair. *)
  let t = network g in
  let kappa = connectivity_on g t in
  let best = ref None in
  (try
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         if (not (Graph.mem_edge g u v)) && !best = None then
           if flow_uv ~limit:(kappa + 1) t ~u ~v = kappa then begin
             best := Some (u, v);
             raise Exit
           end
       done
     done
   with Exit -> ());
  match !best with
  | None -> invalid_arg "Disjoint.min_vertex_cut: no cut pair found"
  | Some (u, v) ->
      let (_ : int) = flow_uv t ~u ~v in
      let reach = Maxflow.residual_reachable t.net ~src:(2 * n) in
      let cut = ref Nodeset.empty in
      for x = 0 to n - 1 do
        if
          x <> u && x <> v
          && Nodeset.mem (vin x) reach
          && not (Nodeset.mem (vout x) reach)
        then cut := Nodeset.add x !cut
      done;
      !cut

let connectivity_at_least g k =
  if k <= 0 then true
  else begin
    let n = Graph.size g in
    if n <= k then false
    else if not (Traversal.is_connected g) then false
    else if is_complete g then true
    else begin
      (* Rows u < k suffice; see the pruning note above [connectivity]. *)
      let t = network g in
      let ok = ref true in
      (try
         for u = 0 to k - 1 do
           for v = u + 1 to n - 1 do
             if not (Graph.mem_edge g u v) then
               if flow_uv ~limit:k t ~u ~v < k then begin
                 ok := false;
                 raise Exit
               end
           done
         done
       with Exit -> ());
      !ok
    end
  end
