module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Engine = Lbc_sim.Engine
module Flood = Lbc_flood.Flood
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec

type proc_family =
  me:int ->
  input:Bit.t ->
  (Bit.t Flood.wire, Bit.t) Engine.proc

(* How a faulty node of execution E2 replays its recorded 𝒢 behaviour:
   either one copy's broadcasts verbatim, or — for equivocating faults of
   the hybrid model — per-receiver unicast of the transcript of the copy
   that faces that receiver. *)
type replay =
  | Broadcast_copy of int
  | Equivocate_copies of (int -> int) (* receiver in G -> 𝒢-copy *)

type t = {
  g : G.t;
  m : int;
  to_g : int array; (* 𝒢-node -> original node *)
  hears : int list array; (* 𝒢 broadcast topology *)
  inputs : Bit.t array; (* 𝒢 inputs of execution E *)
  expect_zero : int list; (* 𝒢-nodes forced to 0 by validity of E1 *)
  expect_one : int list; (* 𝒢-nodes forced to 1 by validity of E3 *)
  e2_faulty : Nodeset.t; (* on G *)
  e2_replay : (int * replay) list; (* faulty G-node -> replay role *)
  e2_model : Engine.model; (* communication model of the E2 replay *)
  e2_inputs : Bit.t array; (* on G *)
  e2_side_a : Nodeset.t;
  e2_side_b : Nodeset.t;
  description : string;
  mutable transcript :
    (int * int * Bit.t Flood.wire Engine.delivery) list option;
}

let network_size t = t.m
let describe t = t.description
let e2_faulty t = t.e2_faulty
let e2_sides t = (t.e2_side_a, t.e2_side_b)

(* Incremental 𝒢 builder. *)
type builder = {
  mutable next : int;
  mutable gmap : int list; (* reversed to_g *)
  mutable edges : (int * int) list; (* directed: receiver hears sender *)
}

let new_builder () = { next = 0; gmap = []; edges = [] }

let alloc b gu =
  let id = b.next in
  b.next <- b.next + 1;
  b.gmap <- gu :: b.gmap;
  id

let undirected b u v =
  b.edges <- (u, v) :: (v, u) :: b.edges

let directed b ~from ~into = b.edges <- (from, into) :: b.edges

let finish b ~g ~inputs ~expect_zero ~expect_one ~e2_faulty ~e2_replay
    ?(e2_model = Engine.Local_broadcast) ~e2_inputs ~e2_side_a ~e2_side_b
    ~description () =
  let m = b.next in
  let to_g = Array.of_list (List.rev b.gmap) in
  let hears = Array.make m [] in
  List.iter (fun (src, dst) -> hears.(src) <- dst :: hears.(src)) b.edges;
  Array.iteri (fun i l -> hears.(i) <- List.sort_uniq Int.compare l) hears;
  {
    g;
    m;
    to_g;
    hears;
    inputs;
    expect_zero;
    expect_one;
    e2_faulty;
    e2_replay;
    e2_model;
    e2_inputs;
    e2_side_a;
    e2_side_b;
    description;
    transcript = None;
  }

(* ------------------------------------------------------------------ *)
(* Lemma A.1: a node z of degree < 2f.                                  *)
(* ------------------------------------------------------------------ *)

let degree_gadget g ~f ?z () =
  let n = G.size g in
  let z =
    match z with
    | Some z -> z
    | None ->
        List.fold_left
          (fun best u -> if G.degree g u < G.degree g best then u else best)
          0 (G.nodes g)
  in
  let d = G.degree g z in
  if f < 1 then invalid_arg "Gadget.degree_gadget: need f >= 1";
  if d >= 2 * f then
    invalid_arg "Gadget.degree_gadget: z has degree >= 2f";
  if d = 0 then invalid_arg "Gadget.degree_gadget: z is isolated";
  let nbrs = G.neighbor_list g z in
  let f2_size = min d f in
  let f1 =
    Nodeset.of_list (List.filteri (fun i _ -> i < d - f2_size) nbrs)
  in
  let f2 =
    Nodeset.of_list (List.filteri (fun i _ -> i >= d - f2_size) nbrs)
  in
  let w =
    Nodeset.diff (G.node_set g)
      (Nodeset.add z (Nodeset.union f1 f2))
  in
  let b = new_builder () in
  (* Singles first: z, F1, F2 (keeping one 𝒢 id each); W doubled. *)
  let single = Array.make n (-1) in
  let copy0 = Array.make n (-1) in
  let copy1 = Array.make n (-1) in
  List.iter
    (fun u ->
      if Nodeset.mem u w then begin
        copy0.(u) <- alloc b u;
        copy1.(u) <- alloc b u
      end
      else single.(u) <- alloc b u)
    (G.nodes g);
  List.iter
    (fun (u, v) ->
      let in_w x = Nodeset.mem x w in
      match (in_w u, in_w v) with
      | true, true ->
          undirected b copy0.(u) copy0.(v);
          undirected b copy1.(u) copy1.(v)
      | false, false -> undirected b single.(u) single.(v)
      | false, true | true, false ->
          let c, ww = if in_w u then (v, u) else (u, v) in
          if Nodeset.mem c f1 then begin
            undirected b single.(c) copy0.(ww);
            directed b ~from:single.(c) ~into:copy1.(ww)
          end
          else if Nodeset.mem c f2 then begin
            directed b ~from:single.(c) ~into:copy0.(ww);
            undirected b single.(c) copy1.(ww)
          end
          else
            (* c = z: z has no neighbours in W by construction. *)
            invalid_arg "Gadget.degree_gadget: unexpected z-W edge")
    (G.edges g);
  let m = b.next in
  (* W0, F1, z get 0; W1, F2 get 1. *)
  let inputs = Array.make m Bit.One in
  List.iter
    (fun u ->
      if Nodeset.mem u w then begin
        inputs.(copy0.(u)) <- Bit.Zero;
        inputs.(copy1.(u)) <- Bit.One
      end
      else if Nodeset.mem u f1 || u = z then inputs.(single.(u)) <- Bit.Zero
      else inputs.(single.(u)) <- Bit.One)
    (G.nodes g);
  let expect_zero =
    (single.(z)
     :: List.map (fun u -> single.(u)) (Nodeset.elements f1))
    @ List.map (fun u -> copy0.(u)) (Nodeset.elements w)
  in
  let expect_one =
    List.map (fun u -> single.(u)) (Nodeset.elements f2)
    @ List.map (fun u -> copy1.(u)) (Nodeset.elements w)
  in
  let e2_inputs =
    Array.init n (fun u -> if u = z then Bit.Zero else Bit.One)
  in
  let description =
    Format.asprintf
      "Lemma A.1 gadget: z=%d (degree %d < 2f=%d), F1=%a, F2=%a, |W|=%d \
       doubled; E2 faulty=F1, sides {z} vs W∪F2"
      z d (2 * f) Nodeset.pp f1 Nodeset.pp f2 (Nodeset.cardinal w)
  in
  finish b ~g ~inputs ~expect_zero ~expect_one ~e2_faulty:f1
    ~e2_replay:
      (List.map
         (fun u -> (u, Broadcast_copy single.(u)))
         (Nodeset.elements f1))
    ~e2_inputs
    ~e2_side_a:(Nodeset.singleton z)
    ~e2_side_b:(Nodeset.union w f2)
    ~description ()

(* ------------------------------------------------------------------ *)
(* Lemma A.2: a vertex cut of size ≤ ⌊3f/2⌋.                           *)
(* ------------------------------------------------------------------ *)

let connectivity_gadget g ~f ?cut () =
  let n = G.size g in
  if f < 1 then invalid_arg "Gadget.connectivity_gadget: need f >= 1";
  let cut =
    match cut with Some c -> c | None -> Lbc_graph.Disjoint.min_vertex_cut g
  in
  if Nodeset.cardinal cut > 3 * f / 2 then
    invalid_arg "Gadget.connectivity_gadget: cut larger than 3f/2";
  (* Sides of the cut. *)
  let rest = Nodeset.diff (G.node_set g) cut in
  if Nodeset.is_empty rest then
    invalid_arg "Gadget.connectivity_gadget: cut covers the graph";
  let seed = Nodeset.min_elt rest in
  let dist = Lbc_graph.Traversal.bfs_dist (G.without_nodes g cut) seed in
  let side_a =
    Nodeset.filter (fun u -> dist.(u) >= 0) rest
  in
  let side_b = Nodeset.diff rest side_a in
  if Nodeset.is_empty side_b then
    invalid_arg "Gadget.connectivity_gadget: cut does not disconnect";
  let cut_list = Nodeset.elements cut in
  let half = f / 2 in
  let c1 = Nodeset.of_list (List.filteri (fun i _ -> i < half) cut_list) in
  let c2 =
    Nodeset.of_list
      (List.filteri (fun i _ -> i >= half && i < 2 * half) cut_list)
  in
  let c3 =
    Nodeset.of_list (List.filteri (fun i _ -> i >= 2 * half) cut_list)
  in
  assert (Nodeset.cardinal c3 <= ((f + 1) / 2));
  let b = new_builder () in
  let single = Array.make n (-1) in
  let copy0 = Array.make n (-1) in
  let copy1 = Array.make n (-1) in
  let doubled u = Nodeset.mem u side_a || Nodeset.mem u side_b in
  List.iter
    (fun u ->
      if doubled u then begin
        copy0.(u) <- alloc b u;
        copy1.(u) <- alloc b u
      end
      else single.(u) <- alloc b u)
    (G.nodes g);
  List.iter
    (fun (u, v) ->
      match (doubled u, doubled v) with
      | true, true ->
          (* both in A, or both in B (no A-B edges exist) *)
          undirected b copy0.(u) copy0.(v);
          undirected b copy1.(u) copy1.(v)
      | false, false -> undirected b single.(u) single.(v)
      | false, true | true, false ->
          let c, s = if doubled v then (u, v) else (v, u) in
          let s_in_a = Nodeset.mem s side_a in
          (* C1: undirected to X0, directed into X1 (X ∈ {A, B}).
             C2: undirected to A0 and B1, directed into A1 and B0.
             C3: undirected to X1, directed into X0. *)
          if Nodeset.mem c c1 then begin
            undirected b single.(c) copy0.(s);
            directed b ~from:single.(c) ~into:copy1.(s)
          end
          else if Nodeset.mem c c2 then
            if s_in_a then begin
              undirected b single.(c) copy0.(s);
              directed b ~from:single.(c) ~into:copy1.(s)
            end
            else begin
              directed b ~from:single.(c) ~into:copy0.(s);
              undirected b single.(c) copy1.(s)
            end
          else begin
            directed b ~from:single.(c) ~into:copy0.(s);
            undirected b single.(c) copy1.(s)
          end)
    (G.edges g);
  let m = b.next in
  let inputs = Array.make m Bit.One in
  List.iter
    (fun u ->
      if doubled u then begin
        inputs.(copy0.(u)) <- Bit.Zero;
        inputs.(copy1.(u)) <- Bit.One
      end
      else if Nodeset.mem u c1 then inputs.(single.(u)) <- Bit.Zero
      else inputs.(single.(u)) <- Bit.One)
    (G.nodes g);
  let copies0 s = List.map (fun u -> copy0.(u)) (Nodeset.elements s) in
  let copies1 s = List.map (fun u -> copy1.(u)) (Nodeset.elements s) in
  let singles s = List.map (fun u -> single.(u)) (Nodeset.elements s) in
  let expect_zero = copies0 side_a @ copies0 side_b @ singles c1 in
  let expect_one = copies1 side_a @ copies1 side_b @ singles c3 in
  let e2_faulty = Nodeset.union c1 c3 in
  let e2_inputs =
    Array.init n (fun u ->
        if Nodeset.mem u side_a then Bit.Zero else Bit.One)
  in
  let description =
    Format.asprintf
      "Lemma A.2 gadget: cut %a (size %d <= 3f/2=%d) split into C1=%a \
       C2=%a C3=%a; sides |A|=%d |B|=%d doubled; E2 faulty=C1∪C3, sides \
       A vs B"
      Nodeset.pp cut (Nodeset.cardinal cut) (3 * f / 2) Nodeset.pp c1
      Nodeset.pp c2 Nodeset.pp c3 (Nodeset.cardinal side_a)
      (Nodeset.cardinal side_b)
  in
  finish b ~g ~inputs ~expect_zero ~expect_one ~e2_faulty
    ~e2_replay:
      (List.map
         (fun u -> (u, Broadcast_copy single.(u)))
         (Nodeset.elements e2_faulty))
    ~e2_inputs ~e2_side_a:side_a ~e2_side_b:side_b ~description ()

(* ------------------------------------------------------------------ *)
(* Lemma D.1: a set S, 0 < |S| <= t, with fewer than 2f+1 neighbours.   *)
(* ------------------------------------------------------------------ *)

(* Sequentially split [xs] into buckets of the given capacities. *)
let split_with_caps xs caps =
  let rec go xs caps acc =
    match caps with
    | [] ->
        if xs = [] then List.rev acc
        else invalid_arg "Gadget.split_with_caps: overflow"
    | c :: caps ->
        let rec take k xs taken =
          if k = 0 then (List.rev taken, xs)
          else
            match xs with
            | [] -> (List.rev taken, [])
            | x :: rest -> take (k - 1) rest (x :: taken)
        in
        let bucket, rest = take c xs [] in
        go rest caps (Nodeset.of_list bucket :: acc)
  in
  go xs caps []

let hybrid_neighborhood_gadget g ~f ~t ?s () =
  let n = G.size g in
  if t < 1 || t > f then
    invalid_arg "Gadget.hybrid_neighborhood_gadget: need 1 <= t <= f";
  let phi = f - t in
  let s =
    match s with
    | Some s -> s
    | None -> (
        (* smallest set with 0 < |S| <= t and 1 <= |N(S)| <= 2f *)
        let candidates =
          Lbc_graph.Combi.subsets_up_to (G.nodes g) t
          |> List.filter_map (fun l ->
                 match l with
                 | [] -> None
                 | _ ->
                     let set = Nodeset.of_list l in
                     let nb = Nodeset.cardinal (G.neighbors_of_set g set) in
                     if nb >= 1 && nb <= 2 * f then Some set else None)
        in
        match candidates with
        | s :: _ -> s
        | [] ->
            invalid_arg
              "Gadget.hybrid_neighborhood_gadget: no small set with <= 2f \
               neighbours")
  in
  let nbhd = G.neighbors_of_set g s in
  if Nodeset.cardinal nbhd > 2 * f then
    invalid_arg "Gadget.hybrid_neighborhood_gadget: S has > 2f neighbours";
  if Nodeset.is_empty nbhd then
    invalid_arg "Gadget.hybrid_neighborhood_gadget: S has no neighbours";
  let buckets =
    split_with_caps (Nodeset.elements nbhd) [ t; phi; phi; t ]
  in
  let r, f1, f2, cap_t_set =
    match buckets with
    | [ r; f1; f2; tt ] -> (r, f1, f2, tt)
    | _ -> invalid_arg "Gadget.hybrid_neighborhood_gadget: bad split"
  in
  if Nodeset.is_empty r then
    invalid_arg "Gadget.hybrid_neighborhood_gadget: R is empty";
  let w =
    Nodeset.diff (G.node_set g) (Nodeset.union s (Nodeset.union nbhd Nodeset.empty))
  in
  let b = new_builder () in
  let single = Array.make n (-1) in
  let copy0 = Array.make n (-1) in
  let copy1 = Array.make n (-1) in
  let doubled u = Nodeset.mem u w || Nodeset.mem u cap_t_set in
  List.iter
    (fun u ->
      if doubled u then begin
        copy0.(u) <- alloc b u;
        copy1.(u) <- alloc b u
      end
      else single.(u) <- alloc b u)
    (G.nodes g);
  let cls u =
    if Nodeset.mem u s then `S
    else if Nodeset.mem u f1 then `F1
    else if Nodeset.mem u f2 then `F2
    else if Nodeset.mem u r then `R
    else if Nodeset.mem u cap_t_set then `T
    else `W
  in
  List.iter
    (fun (u, v) ->
      let connect x y =
        match (cls x, cls y) with
        | `W, `W ->
            undirected b copy0.(x) copy0.(y);
            undirected b copy1.(x) copy1.(y)
        | `T, `T ->
            undirected b copy0.(x) copy0.(y);
            undirected b copy1.(x) copy1.(y)
        | `W, `T | `T, `W ->
            undirected b copy0.(x) copy0.(y);
            undirected b copy1.(x) copy1.(y)
        | `S, `T ->
            undirected b single.(x) copy0.(y);
            directed b ~from:single.(x) ~into:copy1.(y)
        | `F1, `T ->
            undirected b single.(x) copy0.(y);
            directed b ~from:single.(x) ~into:copy1.(y)
        | `F2, `T | `R, `T ->
            undirected b single.(x) copy1.(y);
            directed b ~from:single.(x) ~into:copy0.(y)
        | `F1, `W ->
            undirected b single.(x) copy0.(y);
            directed b ~from:single.(x) ~into:copy1.(y)
        | `F2, `W | `R, `W ->
            undirected b single.(x) copy1.(y);
            directed b ~from:single.(x) ~into:copy0.(y)
        | `S, `W ->
            invalid_arg "Gadget.hybrid_neighborhood_gadget: S-W edge"
        | (`S | `F1 | `F2 | `R), (`S | `F1 | `F2 | `R) ->
            undirected b single.(x) single.(y)
        | (`T | `W), (`S | `F1 | `F2 | `R) ->
            invalid_arg "Gadget.hybrid_neighborhood_gadget: unordered pair"
      in
      match (cls u, cls v) with
      | (`T | `W), (`S | `F1 | `F2 | `R) -> connect v u
      | _ -> connect u v)
    (G.edges g);
  let m = b.next in
  let inputs = Array.make m Bit.One in
  List.iter
    (fun u ->
      match cls u with
      | `S | `F1 -> inputs.(single.(u)) <- Bit.Zero
      | `F2 | `R -> inputs.(single.(u)) <- Bit.One
      | `T | `W ->
          inputs.(copy0.(u)) <- Bit.Zero;
          inputs.(copy1.(u)) <- Bit.One)
    (G.nodes g);
  let singles set = List.map (fun u -> single.(u)) (Nodeset.elements set) in
  let copies0 set = List.map (fun u -> copy0.(u)) (Nodeset.elements set) in
  let copies1 set = List.map (fun u -> copy1.(u)) (Nodeset.elements set) in
  let expect_zero =
    singles s @ singles f1 @ copies0 cap_t_set @ copies0 w
  in
  let expect_one = singles f2 @ singles r @ copies1 cap_t_set @ copies1 w in
  let e2_faulty = Nodeset.union f1 cap_t_set in
  let e2_replay =
    List.map (fun u -> (u, Broadcast_copy single.(u))) (Nodeset.elements f1)
    @ List.map
        (fun u ->
          ( u,
            Equivocate_copies
              (fun v -> if Nodeset.mem v s then copy0.(u) else copy1.(u)) ))
        (Nodeset.elements cap_t_set)
  in
  let e2_inputs =
    Array.init n (fun u -> if Nodeset.mem u s then Bit.Zero else Bit.One)
  in
  let description =
    Format.asprintf
      "Lemma D.1 gadget: S=%a (|N(S)|=%d <= 2f=%d), F1=%a F2=%a R=%a T=%a, \
       |W|=%d; W and T doubled; E2 faulty=F1∪T (T equivocates), sides S vs R"
      Nodeset.pp s (Nodeset.cardinal nbhd) (2 * f) Nodeset.pp f1 Nodeset.pp
      f2 Nodeset.pp r Nodeset.pp cap_t_set (Nodeset.cardinal w)
  in
  finish b ~g ~inputs ~expect_zero ~expect_one ~e2_faulty ~e2_replay
    ~e2_model:(Engine.Hybrid cap_t_set) ~e2_inputs ~e2_side_a:s ~e2_side_b:r
    ~description ()

(* ------------------------------------------------------------------ *)
(* Lemma D.2: a vertex cut of size <= floor(3(f-t)/2) + 2t.             *)
(* ------------------------------------------------------------------ *)

let hybrid_connectivity_gadget g ~f ~t ?cut () =
  let n = G.size g in
  if t < 1 || t > f then
    invalid_arg "Gadget.hybrid_connectivity_gadget: need 1 <= t <= f";
  let phi = f - t in
  let cut =
    match cut with Some c -> c | None -> Lbc_graph.Disjoint.min_vertex_cut g
  in
  if Nodeset.cardinal cut > (3 * phi / 2) + (2 * t) then
    invalid_arg "Gadget.hybrid_connectivity_gadget: cut too large";
  let rest = Nodeset.diff (G.node_set g) cut in
  if Nodeset.is_empty rest then
    invalid_arg "Gadget.hybrid_connectivity_gadget: cut covers the graph";
  let seed = Nodeset.min_elt rest in
  let dist = Lbc_graph.Traversal.bfs_dist (G.without_nodes g cut) seed in
  let side_a = Nodeset.filter (fun u -> dist.(u) >= 0) rest in
  let side_b = Nodeset.diff rest side_a in
  if Nodeset.is_empty side_b then
    invalid_arg "Gadget.hybrid_connectivity_gadget: cut does not disconnect";
  (* Fill the equivocation buckets first: with small cuts this puts the
     weight on R and T, matching the t-dominated regime. *)
  let buckets =
    split_with_caps (Nodeset.elements cut) [ t; t; phi / 2; phi / 2; phi ]
  in
  let r, tt, c1, c2, c3 =
    match buckets with
    | [ r; tt; c1; c2; c3 ] -> (r, tt, c1, c2, c3)
    | _ -> invalid_arg "Gadget.hybrid_connectivity_gadget: bad split"
  in
  if Nodeset.cardinal c3 > (phi + 1) / 2 then
    invalid_arg "Gadget.hybrid_connectivity_gadget: C3 overflow";
  let b = new_builder () in
  let single = Array.make n (-1) in
  let copy0 = Array.make n (-1) in
  let copy1 = Array.make n (-1) in
  let cls u =
    if Nodeset.mem u side_a then `A
    else if Nodeset.mem u side_b then `B
    else if Nodeset.mem u c1 then `C1
    else if Nodeset.mem u c2 then `C2
    else if Nodeset.mem u c3 then `C3
    else if Nodeset.mem u r then `R
    else `T
  in
  let doubled u =
    match cls u with `A | `B | `R | `T -> true | `C1 | `C2 | `C3 -> false
  in
  List.iter
    (fun u ->
      if doubled u then begin
        copy0.(u) <- alloc b u;
        copy1.(u) <- alloc b u
      end
      else single.(u) <- alloc b u)
    (G.nodes g);
  List.iter
    (fun (u, v) ->
      (* Normalise so that a single-copy C node, if any, is first; among
         doubled classes order as (A|B|R) then T for the asymmetric T
         rules. *)
      let connect x y =
        match (cls x, cls y) with
        (* doubled-doubled *)
        | `A, `A | `B, `B | `R, `R | `T, `T ->
            undirected b copy0.(x) copy0.(y);
            undirected b copy1.(x) copy1.(y)
        | `A, `B | `B, `A ->
            invalid_arg "Gadget.hybrid_connectivity_gadget: A-B edge"
        | `A, `R | `B, `R ->
            undirected b copy0.(x) copy0.(y);
            undirected b copy1.(x) copy1.(y)
        | `A, `T ->
            (* a0 - t1 undirected; a0 -> t0; t0 -> a1 *)
            undirected b copy0.(x) copy1.(y);
            directed b ~from:copy0.(x) ~into:copy0.(y);
            directed b ~from:copy0.(y) ~into:copy1.(x)
        | `B, `T ->
            undirected b copy0.(x) copy0.(y);
            undirected b copy1.(x) copy1.(y)
        | `R, `T ->
            (* r0 - t0 undirected; t0 -> r1; r1 -> t1 *)
            undirected b copy0.(x) copy0.(y);
            directed b ~from:copy0.(y) ~into:copy1.(x);
            directed b ~from:copy1.(x) ~into:copy1.(y)
        (* cut singles to doubled *)
        | `C1, (`A | `B | `R) ->
            undirected b single.(x) copy0.(y);
            directed b ~from:single.(x) ~into:copy1.(y)
        | `C2, `A ->
            undirected b single.(x) copy0.(y);
            directed b ~from:single.(x) ~into:copy1.(y)
        | `C2, (`B | `R) ->
            undirected b single.(x) copy1.(y);
            directed b ~from:single.(x) ~into:copy0.(y)
        | `C3, (`A | `B | `R) ->
            undirected b single.(x) copy1.(y);
            directed b ~from:single.(x) ~into:copy0.(y)
        | `C1, `T ->
            undirected b single.(x) copy0.(y);
            directed b ~from:single.(x) ~into:copy1.(y)
        | `C2, `T ->
            undirected b single.(x) copy1.(y);
            directed b ~from:single.(x) ~into:copy0.(y)
        | `C3, `T ->
            undirected b single.(x) copy0.(y);
            directed b ~from:single.(x) ~into:copy1.(y)
        (* cut singles among themselves *)
        | (`C1 | `C2 | `C3), (`C1 | `C2 | `C3) ->
            undirected b single.(x) single.(y)
        | _ -> invalid_arg "Gadget.hybrid_connectivity_gadget: unordered"
      in
      match (cls u, cls v) with
      | (`C1 | `C2 | `C3), _ -> connect u v
      | _, (`C1 | `C2 | `C3) -> connect v u
      | `T, (`A | `B | `R) -> connect v u
      | `R, (`A | `B) -> connect v u
      | _, _ -> connect u v)
    (G.edges g);
  let m = b.next in
  let inputs = Array.make m Bit.One in
  List.iter
    (fun u ->
      match cls u with
      | `C1 -> inputs.(single.(u)) <- Bit.Zero
      | `C2 | `C3 -> inputs.(single.(u)) <- Bit.One
      | `A | `B | `R | `T ->
          inputs.(copy0.(u)) <- Bit.Zero;
          inputs.(copy1.(u)) <- Bit.One)
    (G.nodes g);
  let singles set = List.map (fun u -> single.(u)) (Nodeset.elements set) in
  let copies0 set = List.map (fun u -> copy0.(u)) (Nodeset.elements set) in
  let copies1 set = List.map (fun u -> copy1.(u)) (Nodeset.elements set) in
  let expect_zero = copies0 side_a @ copies0 side_b @ copies0 r @ singles c1 in
  let expect_one = copies1 side_a @ copies1 side_b @ copies1 r @ singles c3 in
  let e2_faulty = Nodeset.union c1 (Nodeset.union c3 r) in
  let e2_replay =
    List.map
      (fun u -> (u, Broadcast_copy single.(u)))
      (Nodeset.elements (Nodeset.union c1 c3))
    @ List.map
        (fun u ->
          ( u,
            Equivocate_copies
              (fun v ->
                if Nodeset.mem v side_a then copy0.(u) else copy1.(u)) ))
        (Nodeset.elements r)
  in
  let e2_inputs =
    Array.init n (fun u -> if Nodeset.mem u side_a then Bit.Zero else Bit.One)
  in
  let description =
    Format.asprintf
      "Lemma D.2 gadget: cut %a (size %d <= 3(f-t)/2+2t=%d) split into \
       C1=%a C2=%a C3=%a R=%a T=%a; sides |A|=%d |B|=%d; A,B,R,T doubled; \
       E2 faulty=C1∪C3∪R (R equivocates), sides A vs B"
      Nodeset.pp cut (Nodeset.cardinal cut)
      ((3 * phi / 2) + (2 * t))
      Nodeset.pp c1 Nodeset.pp c2 Nodeset.pp c3 Nodeset.pp r Nodeset.pp tt
      (Nodeset.cardinal side_a) (Nodeset.cardinal side_b)
  in
  finish b ~g ~inputs ~expect_zero ~expect_one ~e2_faulty ~e2_replay
    ~e2_model:(Engine.Hybrid r) ~e2_inputs ~e2_side_a:side_a
    ~e2_side_b:side_b ~description ()

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

type verdict = {
  outputs : Bit.t array;
  group_zero_ok : bool;
  group_one_ok : bool;
  split : bool;
}

let run t ~proc ~rounds =
  let roles =
    Array.init t.m (fun w ->
        let inner = proc ~me:t.to_g.(w) ~input:t.inputs.(w) in
        Engine.Honest
          {
            Engine.step =
              (fun ~round ~inbox ->
                let inbox =
                  List.map (fun (s, msg) -> (t.to_g.(s), msg)) inbox
                in
                inner.Engine.step ~round ~inbox);
            output = inner.Engine.output;
          })
  in
  let topo = Engine.topology_directed ~n:t.m ~out:(fun w -> t.hears.(w)) in
  let result =
    Engine.run ~record:true topo ~model:Engine.Local_broadcast ~rounds ~roles
  in
  t.transcript <- Some result.Engine.transcript;
  let outputs =
    Array.map (function Some o -> o | None -> Bit.Zero) result.Engine.outputs
  in
  let all_are v = List.for_all (fun w -> outputs.(w) = v) in
  let group_zero_ok = all_are Bit.Zero t.expect_zero in
  let group_one_ok = all_are Bit.One t.expect_one in
  { outputs; group_zero_ok; group_one_ok; split = group_zero_ok && group_one_ok }

let replay_e2 t ~proc ~rounds =
  (match t.transcript with
  | Some _ -> ()
  | None -> ignore (run t ~proc ~rounds));
  let transcript = Option.get t.transcript in
  (* messages per (𝒢-copy, round), in emission order *)
  let table : (int * int, Bit.t Flood.wire list) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (round, sender, d) ->
      match d with
      | Engine.Broadcast m ->
          let key = (sender, round) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt table key) in
          Hashtbl.replace table key (m :: prev)
      | Engine.Unicast _ -> ())
    transcript;
  let copy_msgs copy round =
    match Hashtbl.find_opt table (copy, round) with
    | Some msgs -> List.rev msgs
    | None -> []
  in
  let replay u ~round ~inbox:_ =
    match List.assoc u t.e2_replay with
    | Broadcast_copy copy ->
        List.map (fun m -> Engine.Broadcast m) (copy_msgs copy round)
    | Equivocate_copies copy_for ->
        (* Per-neighbour unicast of the transcript of the copy that faces
           that neighbour — the equivocating faults of the hybrid model. *)
        List.concat_map
          (fun v ->
            List.map (fun m -> Engine.Unicast (v, m))
              (copy_msgs (copy_for v) round))
          (G.neighbor_list t.g u)
  in
  let n = G.size t.g in
  let roles =
    Array.init n (fun u ->
        if Nodeset.mem u t.e2_faulty then Engine.Faulty (replay u)
        else Engine.Honest (proc ~me:u ~input:t.e2_inputs.(u)))
  in
  let topo = Engine.topology_of_graph t.g in
  let result = Engine.run topo ~model:t.e2_model ~rounds ~roles in
  {
    Spec.outputs = result.Engine.outputs;
    faulty = t.e2_faulty;
    inputs = t.e2_inputs;
    rounds;
    phases = 1;
    transmissions = result.Engine.stats.Engine.transmissions;
    deliveries = result.Engine.stats.Engine.deliveries;
  }
