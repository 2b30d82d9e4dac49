(* Retained reference for the [uv] queries of lib/graph/disjoint.ml: the
   fresh-network construction and flow decomposition used before one
   network per graph was reused across queries, with the Edmonds–Karp
   max-flow they ran on (allocating its search scratch per augmentation,
   decomposing through [flow_successors]/[consume_flow_edge]).
   test_disjoint drives it in lock-step with a reused production network
   on random graphs and random query sequences and asserts identical
   paths, counts, connectivity answers and minimum cuts.

   Copied verbatim apart from wrapping the max-flow in a submodule and
   dropping the directed and set-source entry points, which are not
   [uv] queries ([disjoint_set_paths] still builds a fresh network in
   production). *)

module Graph = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Traversal = Lbc_graph.Traversal

module Maxflow = struct
  (* Edge-list residual representation: arc [i] and its residual twin [i lxor 1]. *)

  type t = {
    n : int;
    mutable dst : int array; (* arc index -> head vertex *)
    mutable cap : int array; (* arc index -> remaining capacity *)
    mutable src_of : int array; (* arc index -> tail vertex *)
    mutable out : int list array; (* vertex -> incident arc indices *)
    mutable m : int; (* number of arcs *)
  }

  let create n =
    {
      n;
      dst = Array.make 16 0;
      cap = Array.make 16 0;
      src_of = Array.make 16 0;
      out = Array.make (max n 1) [];
      m = 0;
    }

  let grow t =
    let len = Array.length t.dst in
    if t.m + 2 > len then begin
      let len' = 2 * len in
      let ext a fill =
        let a' = Array.make len' fill in
        Array.blit a 0 a' 0 len;
        a'
      in
      t.dst <- ext t.dst 0;
      t.cap <- ext t.cap 0;
      t.src_of <- ext t.src_of 0
    end

  let add_edge t ~src ~dst ~cap =
    if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
    if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
      invalid_arg "Maxflow.add_edge: vertex out of range";
    grow t;
    let i = t.m in
    t.dst.(i) <- dst;
    t.cap.(i) <- cap;
    t.src_of.(i) <- src;
    t.dst.(i + 1) <- src;
    t.cap.(i + 1) <- 0;
    t.src_of.(i + 1) <- dst;
    t.out.(src) <- i :: t.out.(src);
    t.out.(dst) <- (i + 1) :: t.out.(dst);
    t.m <- t.m + 2

  (* One BFS augmentation; returns the amount pushed (0 when no augmenting
     path exists, otherwise the path bottleneck clamped to [max_push]). *)
  let augment t ~src ~sink ~max_push =
    let pred = Array.make t.n (-1) in
    (* arc used to reach vertex *)
    let seen = Array.make t.n false in
    seen.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun i ->
          let v = t.dst.(i) in
          if (not seen.(v)) && t.cap.(i) > 0 then begin
            seen.(v) <- true;
            pred.(v) <- i;
            if v = sink then found := true else Queue.add v q
          end)
        t.out.(u)
    done;
    if not !found then 0
    else begin
      let rec bottleneck v acc =
        if v = src then acc
        else
          let i = pred.(v) in
          bottleneck t.src_of.(i) (min acc t.cap.(i))
      in
      let b = min (bottleneck sink max_int) max_push in
      let rec push v =
        if v <> src then begin
          let i = pred.(v) in
          t.cap.(i) <- t.cap.(i) - b;
          t.cap.(i lxor 1) <- t.cap.(i lxor 1) + b;
          push t.src_of.(i)
        end
      in
      push sink;
      b
    end

  let max_flow ?(limit = max_int) t ~src ~sink =
    if src = sink then invalid_arg "Maxflow.max_flow: src = sink";
    let total = ref 0 in
    let continue = ref true in
    while !continue && !total < limit do
      let b = augment t ~src ~sink ~max_push:(limit - !total) in
      if b = 0 then continue := false else total := !total + b
    done;
    !total

  (* Forward arc [i] carries flow equal to the capacity accumulated on its
     residual twin. Forward arcs are the even-indexed ones. *)
  let flow_successors t u =
    List.concat_map
      (fun i ->
        if i land 1 = 0 && t.cap.(i lxor 1) > 0 then
          List.init t.cap.(i lxor 1) (fun _ -> t.dst.(i))
        else [])
      t.out.(u)

  let consume_flow_edge t ~src ~dst =
    let rec find = function
      | [] -> false
      | i :: rest ->
          if i land 1 = 0 && t.dst.(i) = dst && t.cap.(i lxor 1) > 0 then begin
            t.cap.(i lxor 1) <- t.cap.(i lxor 1) - 1;
            t.cap.(i) <- t.cap.(i) + 1;
            true
          end
          else find rest
    in
    find t.out.(src)

  let residual_reachable t ~src =
    let seen = Array.make t.n false in
    seen.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun i ->
          let v = t.dst.(i) in
          if (not seen.(v)) && t.cap.(i) > 0 then begin
            seen.(v) <- true;
            Queue.add v q
          end)
        t.out.(u)
    done;
    let acc = ref Nodeset.empty in
    Array.iteri (fun v s -> if s then acc := Nodeset.add v !acc) seen;
    !acc
end

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
