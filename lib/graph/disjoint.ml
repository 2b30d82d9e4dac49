(* Split-vertex flow network: node x becomes x_in = 2x and x_out = 2x + 1
   with a unit-capacity arc between them, so each node carries at most one
   path. The super-source is vertex 2n; the flow sink is [sink]_in, so the
   sink node is shared by all paths. *)

let vin x = 2 * x
let vout x = (2 * x) + 1

(* Modes for how the source side is wired. *)
type source_mode =
  | Set_sources of int list (* each source usable by at most one path *)
  | Multi_source of int (* a single node originating many paths *)

let build_network ~n ~adj ~sources ~sink ~excluded =
  let net = Maxflow.create ((2 * n) + 1) in
  let s = 2 * n in
  let single_origin =
    match sources with Multi_source u -> Some u | Set_sources _ -> None
  in
  (* Vertex splits. The sink needs no split (paths stop at sink_in); a
     multi-source origin gets capacity 0 so no path may pass through it. *)
  for x = 0 to n - 1 do
    if x <> sink then begin
      let cap =
        if Some x = single_origin then 0
        else if Nodeset.mem x excluded then 0
        else 1
      in
      if cap > 0 then Maxflow.add_edge net ~src:(vin x) ~dst:(vout x) ~cap
    end
  done;
  (* Directed arcs; arcs out of the sink are irrelevant. Adjacency arcs
     get effectively-infinite capacity so that minimum cuts are realised
     on the vertex-split arcs (needed for cut extraction); path counts
     are unaffected because every unit of flow still crosses unit split
     arcs — except a direct multi-source-origin -> sink edge, which has
     no split in between and genuinely carries at most one path. *)
  let big = n in
  for x = 0 to n - 1 do
    if x <> sink then
      let direct_origin =
        match single_origin with Some u -> x = u | None -> false
      in
      List.iter
        (fun y ->
          if y <> x && y >= 0 && y < n then
            let cap = if direct_origin && y = sink then 1 else big in
            Maxflow.add_edge net ~src:(vout x) ~dst:(vin y) ~cap)
        (adj x)
  done;
  (* Source wiring. *)
  (match sources with
  | Multi_source u ->
      Maxflow.add_edge net ~src:s ~dst:(vout u) ~cap:n
  | Set_sources srcs ->
      List.iter
        (fun x ->
          if x <> sink then
            if Nodeset.mem x excluded then
              (* Usable as an endpoint only: enter directly at x_out. *)
              Maxflow.add_edge net ~src:s ~dst:(vout x) ~cap:1
            else Maxflow.add_edge net ~src:s ~dst:(vin x) ~cap:1)
        srcs);
  (net, s)

(* Decompose the computed unit flow into paths from the super-source to
   sink_in, translating split vertices back to node identifiers. *)
let extract_paths net ~super ~sink_in ~flow =
  let rec walk v acc =
    if v = sink_in then List.rev (v :: acc)
    else
      match Maxflow.flow_successors net v with
      | [] -> invalid_arg "Disjoint.extract_paths: broken flow"
      | w :: _ ->
          let consumed = Maxflow.consume_flow_edge net ~src:v ~dst:w in
          assert consumed;
          walk w (v :: acc)
  in
  let to_nodes vertices =
    (* Collapse x_in / x_out pairs; drop the super-source. *)
    List.filter_map
      (fun v -> if v = super then None else Some (v / 2))
      vertices
    |> List.fold_left
         (fun acc x ->
           match acc with
           | y :: _ when y = x -> acc
           | _ -> x :: acc)
         []
    |> List.rev
  in
  List.init flow (fun _ -> to_nodes (walk super []))

let max_disjoint_directed ~n ~adj ~sources ~sink ?(excluded = Nodeset.empty)
    ?limit () =
  let sources = List.filter (fun x -> x <> sink) sources in
  let net, s =
    build_network ~n ~adj ~sources:(Set_sources sources) ~sink ~excluded
  in
  let flow = Maxflow.max_flow ?limit net ~src:s ~sink:(vin sink) in
  extract_paths net ~super:s ~sink_in:(vin sink) ~flow

let max_disjoint_directed_uv ~n ~adj ~src ~sink ?(excluded = Nodeset.empty)
    ?limit () =
  if src = sink then invalid_arg "Disjoint.max_disjoint_directed_uv: src = sink";
  let net, s =
    build_network ~n ~adj ~sources:(Multi_source src) ~sink ~excluded
  in
  let flow = Maxflow.max_flow ?limit net ~src:s ~sink:(vin sink) in
  extract_paths net ~super:s ~sink_in:(vin sink) ~flow

let disjoint_uv_paths ?(excluded = Nodeset.empty) ?limit g ~u ~v =
  if u = v then invalid_arg "Disjoint.disjoint_uv_paths: u = v";
  let n = Graph.size g in
  let adj x = Graph.neighbor_list g x in
  let net, s =
    build_network ~n ~adj ~sources:(Multi_source u) ~sink:v ~excluded
  in
  let flow = Maxflow.max_flow ?limit net ~src:s ~sink:(vin v) in
  (* The walk enters at u_out, so u is already the first node of each path. *)
  extract_paths net ~super:s ~sink_in:(vin v) ~flow

let count_uv ?excluded ?limit g ~u ~v =
  List.length (disjoint_uv_paths ?excluded ?limit g ~u ~v)

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
let connectivity g =
  let n = Graph.size g in
  if n <= 1 then 0
  else if not (Traversal.is_connected g) then 0
  else if is_complete g then n - 1
  else begin
    let best = ref (n - 1) in
    let u = ref 0 in
    while !u < !best do
      for v = !u + 1 to n - 1 do
        if not (Graph.mem_edge g !u v) then
          best := min !best (count_uv ~limit:!best g ~u:!u ~v)
      done;
      incr u
    done;
    !best
  end

let min_vertex_cut g =
  let n = Graph.size g in
  if n <= 1 then invalid_arg "Disjoint.min_vertex_cut: graph too small";
  if not (Traversal.is_connected g) then
    invalid_arg "Disjoint.min_vertex_cut: disconnected graph";
  if is_complete g then invalid_arg "Disjoint.min_vertex_cut: complete graph";
  (* Find a non-adjacent pair realising κ, then read the cut off the
     saturated vertex-split arcs of a fresh max-flow computation. *)
  let kappa = connectivity g in
  let best = ref None in
  (try
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         if (not (Graph.mem_edge g u v)) && !best = None then
           if count_uv ~limit:(kappa + 1) g ~u ~v = kappa then begin
             best := Some (u, v);
             raise Exit
           end
       done
     done
   with Exit -> ());
  match !best with
  | None -> invalid_arg "Disjoint.min_vertex_cut: no cut pair found"
  | Some (u, v) ->
      let adj x = Graph.neighbor_list g x in
      let net, s =
        build_network ~n ~adj ~sources:(Multi_source u) ~sink:v
          ~excluded:Nodeset.empty
      in
      let (_ : int) = Maxflow.max_flow net ~src:s ~sink:(vin v) in
      let reach = Maxflow.residual_reachable net ~src:s in
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
      let ok = ref true in
      (try
         for u = 0 to k - 1 do
           for v = u + 1 to n - 1 do
             if not (Graph.mem_edge g u v) then
               if count_uv ~limit:k g ~u ~v < k then begin
                 ok := false;
                 raise Exit
               end
           done
         done
       with Exit -> ());
      !ok
    end
  end
