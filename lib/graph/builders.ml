let complete n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.add_edge g u v
    done
  done;
  g

let cycle n =
  if n < 3 then invalid_arg "Builders.cycle: need n >= 3";
  let g = Graph.create n in
  for u = 0 to n - 1 do
    Graph.add_edge g u ((u + 1) mod n)
  done;
  g

let path_graph n =
  let g = Graph.create n in
  for u = 0 to n - 2 do
    Graph.add_edge g u (u + 1)
  done;
  g

let star n =
  if n < 2 then invalid_arg "Builders.star: need n >= 2";
  let g = Graph.create n in
  for u = 1 to n - 1 do
    Graph.add_edge g 0 u
  done;
  g

let wheel n =
  if n < 4 then invalid_arg "Builders.wheel: need n >= 4";
  let g = Graph.create n in
  for u = 1 to n - 1 do
    Graph.add_edge g 0 u;
    let next = if u = n - 1 then 1 else u + 1 in
    Graph.add_edge g u next
  done;
  g

let complete_bipartite a b =
  let g = Graph.create (a + b) in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      Graph.add_edge g u v
    done
  done;
  g

let grid w h =
  if w < 1 || h < 1 then invalid_arg "Builders.grid: empty dimension";
  let g = Graph.create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let id = (y * w) + x in
      if x + 1 < w then Graph.add_edge g id (id + 1);
      if y + 1 < h then Graph.add_edge g id (id + w)
    done
  done;
  g

let torus w h =
  if w < 3 || h < 3 then invalid_arg "Builders.torus: need w, h >= 3";
  let g = Graph.create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let id = (y * w) + x in
      let right = (y * w) + ((x + 1) mod w) in
      let down = (((y + 1) mod h) * w) + x in
      Graph.add_edge g id right;
      Graph.add_edge g id down
    done
  done;
  g

let hypercube d =
  if d < 0 then invalid_arg "Builders.hypercube: negative dimension";
  let n = 1 lsl d in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then Graph.add_edge g u v
    done
  done;
  g

let circulant n jumps =
  if n < 1 then invalid_arg "Builders.circulant: need n >= 1";
  let g = Graph.create n in
  List.iter
    (fun j ->
      if j <= 0 || j >= n then invalid_arg "Builders.circulant: bad jump";
      for u = 0 to n - 1 do
        let v = (u + j) mod n in
        if u <> v then Graph.add_edge g u v
      done)
    jumps;
  g

let harary k n =
  if n <= k then invalid_arg "Builders.harary: need n > k";
  if k < 1 then invalid_arg "Builders.harary: need k >= 1";
  let half = k / 2 in
  let g =
    if half >= 1 then circulant n (List.init half (fun i -> i + 1))
    else Graph.create n
  in
  if k land 1 = 1 then begin
    (* Odd k: add (near-)diametral chords. *)
    if n land 1 = 0 then
      for u = 0 to (n / 2) - 1 do
        Graph.add_edge g u (u + (n / 2))
      done
    else begin
      for u = 0 to n / 2 do
        Graph.add_edge g u ((u + ((n - 1) / 2)) mod n)
      done
    end
  end;
  g

let petersen () =
  Graph.of_edges 10
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (* outer 5-cycle *)
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5); (* inner pentagram *)
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9); (* spokes *)
    ]

let fig1a () = cycle 5
let fig1b () = circulant 8 [ 1; 2 ]

let clique_on g members =
  let arr = Array.of_list members in
  let len = Array.length arr in
  for i = 0 to len - 1 do
    for j = i + 1 to len - 1 do
      Graph.add_edge g arr.(i) arr.(j)
    done
  done

let join_all g xs ys =
  List.iter (fun x -> List.iter (fun y -> Graph.add_edge g x y) ys) xs

let two_cliques_with_cut ~a ~b ~c =
  if a < 1 || b < 1 || c < 1 then
    invalid_arg "Builders.two_cliques_with_cut: empty part";
  let g = Graph.create (a + b + c) in
  let part_a = List.init a Fun.id in
  let part_c = List.init c (fun i -> a + i) in
  let part_b = List.init b (fun i -> a + c + i) in
  clique_on g part_a;
  clique_on g part_b;
  clique_on g part_c;
  join_all g part_a part_c;
  join_all g part_b part_c;
  g

let tight f =
  if f < 1 then invalid_arg "Builders.tight: need f >= 1";
  let side = (f + 1) / 2 in
  let cut = (3 * f / 2) + 1 in
  two_cliques_with_cut ~a:side ~b:side ~c:cut

let deficient_degree f =
  if f < 1 then invalid_arg "Builders.deficient_degree: need f >= 1";
  (* Node 0 has degree 2f - 1; nodes 1 .. 4f form a complete graph. *)
  let n = (4 * f) + 1 in
  let g = Graph.create n in
  clique_on g (List.init (4 * f) (fun i -> i + 1));
  for v = 1 to (2 * f) - 1 do
    Graph.add_edge g 0 v
  done;
  g

let deficient_connectivity f =
  if f < 1 then invalid_arg "Builders.deficient_connectivity: need f >= 1";
  let side = (2 * f) + 1 in
  let cut = max 1 (3 * f / 2) in
  two_cliques_with_cut ~a:side ~b:side ~c:cut

let random_gnp ~seed n p =
  if p < 0.0 || p > 1.0 then invalid_arg "Builders.random_gnp: bad p";
  let st = Random.State.make [| seed |] in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1.0 < p then Graph.add_edge g u v
    done
  done;
  g

let random_geometric_positions ~seed n ~radius =
  if radius < 0.0 then invalid_arg "Builders.random_geometric: bad radius";
  let st = Random.State.make [| seed; 17 |] in
  let pos =
    Array.init n (fun _ ->
        (Random.State.float st 1.0, Random.State.float st 1.0))
  in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let xu, yu = pos.(u) and xv, yv = pos.(v) in
      let d2 = ((xu -. xv) ** 2.) +. ((yu -. yv) ** 2.) in
      if d2 <= radius *. radius then Graph.add_edge g u v
    done
  done;
  (g, pos)

let random_geometric ~seed n ~radius =
  fst (random_geometric_positions ~seed n ~radius)

let random_augmented_circulant ~seed ~n ~k ~extra =
  if k < 1 then invalid_arg "Builders.random_augmented_circulant: k >= 1";
  let half = (k + 1) / 2 in
  if n <= 2 * half then
    invalid_arg "Builders.random_augmented_circulant: n too small";
  let g = circulant n (List.init half (fun i -> i + 1)) in
  let st = Random.State.make [| seed |] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if (not (Graph.mem_edge g u v)) && Random.State.float st 1.0 < extra
      then Graph.add_edge g u v
    done
  done;
  g

let of_spec spec =
  let ( let* ) = Result.bind in
  let int what s =
    Option.to_result ~none:(Printf.sprintf "%s: bad %s" spec what)
      (int_of_string_opt s)
  in
  let rec all f = function
    | [] -> Ok []
    | x :: xs ->
        let* y = f x in
        let* ys = all f xs in
        Ok (y :: ys)
  in
  let pair sep what s =
    match String.split_on_char sep s with
    | [ a; b ] ->
        let* a = int what a in
        let* b = int what b in
        Ok (a, b)
    | _ -> Error (Printf.sprintf "%s: bad %s %s" spec what s)
  in
  let build =
    match String.split_on_char ':' spec with
    | [ "fig1a" ] -> Ok fig1a
    | [ "fig1b" ] -> Ok fig1b
    | [ "petersen" ] -> Ok petersen
    | [ ("cycle" | "ring"); n ] -> Result.map (fun n () -> cycle n) (int "n" n)
    | [ "path"; n ] -> Result.map (fun n () -> path_graph n) (int "n" n)
    | [ ("complete" | "k"); n ] ->
        Result.map (fun n () -> complete n) (int "n" n)
    | [ "star"; n ] -> Result.map (fun n () -> star n) (int "n" n)
    | [ "wheel"; n ] -> Result.map (fun n () -> wheel n) (int "n" n)
    | [ "hypercube"; d ] -> Result.map (fun d () -> hypercube d) (int "d" d)
    | [ "tight"; f ] -> Result.map (fun f () -> tight f) (int "f" f)
    | [ "torus"; wh ] ->
        Result.map (fun (w, h) () -> torus w h) (pair 'x' "dimensions" wh)
    | [ "grid"; wh ] ->
        Result.map (fun (w, h) () -> grid w h) (pair 'x' "dimensions" wh)
    | [ "circulant"; n; jumps ] ->
        let* n = int "n" n in
        let* js = all (int "jump") (String.split_on_char ',' jumps) in
        Ok (fun () -> circulant n js)
    | [ "harary"; k; n ] ->
        let* k = int "k" k in
        let* n = int "n" n in
        Ok (fun () -> harary k n)
    | [ "gnp"; n; p; seed ] ->
        let* n = int "n" n in
        let* p =
          Option.to_result ~none:(spec ^ ": bad p") (float_of_string_opt p)
        in
        let* seed = int "seed" seed in
        Ok (fun () -> random_gnp ~seed n p)
    | [ "edges"; n; es ] ->
        let* n = int "n" n in
        let* edges = all (pair '-' "edge") (String.split_on_char ',' es) in
        Ok (fun () -> Graph.of_edges n edges)
    | "file" :: _ ->
        let path = String.sub spec 5 (String.length spec - 5) in
        Ok
          (fun () ->
            match Graphio.of_file path with
            | Ok g -> g
            | Error msg -> invalid_arg msg)
    | _ ->
        Error
          (spec
         ^ ": unknown graph. Try fig1a, fig1b, petersen, cycle:N, path:N, \
            complete:N, star:N, wheel:N, hypercube:D, tight:F, torus:WxH, \
            grid:WxH, circulant:N:J1,J2, harary:K:N, gnp:N:P:SEED, \
            edges:N:0-1,1-2,..., file:PATH")
  in
  let* build = build in
  (* The builders check their own parameters; a rejected one is a bad
     spec, not a crash. *)
  match build () with
  | g -> Ok g
  | exception (Invalid_argument msg | Sys_error msg) ->
      Error (spec ^ ": " ^ msg)
  | exception Graph.Invalid_node v ->
      Error (Printf.sprintf "%s: node %d out of range" spec v)
