(* Edge-list residual representation: arc [i] and its residual twin [i lxor 1]. *)

type t = {
  n : int;
  mutable dst : int array; (* arc index -> head vertex *)
  mutable cap : int array; (* arc index -> remaining capacity *)
  mutable init : int array; (* arc index -> capacity when added *)
  mutable src_of : int array; (* arc index -> tail vertex *)
  out : int list array; (* vertex -> incident arc indices, newest first *)
  mutable m : int; (* number of arcs *)
  (* BFS scratch, reused by every search on this network. *)
  pred : int array; (* vertex -> arc used to reach it *)
  stamp : int array; (* vertex -> [epoch] of the search that saw it *)
  queue : int array; (* each vertex is enqueued at most once a search *)
  mutable epoch : int;
}

let create n =
  let len = max n 1 in
  {
    n;
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    init = Array.make 16 0;
    src_of = Array.make 16 0;
    out = Array.make len [];
    m = 0;
    pred = Array.make len (-1);
    stamp = Array.make len 0;
    queue = Array.make len 0;
    epoch = 0;
  }

let grow t =
  let len = Array.length t.dst in
  if t.m + 2 > len then begin
    let len' = 2 * len in
    let ext a =
      let a' = Array.make len' 0 in
      Array.blit a 0 a' 0 len;
      a'
    in
    t.dst <- ext t.dst;
    t.cap <- ext t.cap;
    t.init <- ext t.init;
    t.src_of <- ext t.src_of
  end

let add_edge t ~src ~dst ~cap =
  if cap < 0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: vertex out of range";
  grow t;
  let i = t.m in
  t.dst.(i) <- dst;
  t.cap.(i) <- cap;
  t.init.(i) <- cap;
  t.src_of.(i) <- src;
  t.dst.(i + 1) <- src;
  t.cap.(i + 1) <- 0;
  t.init.(i + 1) <- 0;
  t.src_of.(i + 1) <- dst;
  t.out.(src) <- i :: t.out.(src);
  t.out.(dst) <- (i + 1) :: t.out.(dst);
  t.m <- t.m + 2;
  i

let set_capacity t arc cap =
  if cap < 0 then invalid_arg "Maxflow.set_capacity: negative capacity";
  if arc < 0 || arc >= t.m || arc land 1 = 1 then
    invalid_arg "Maxflow.set_capacity: not an arc of this network";
  t.cap.(arc) <- cap

let reset t = Array.blit t.init 0 t.cap 0 t.m

(* Breadth-first search over arcs with residual capacity, in [out] order,
   from [src]; stops as soon as [sink] is reached ([-1] to search
   everything). Marks each vertex it reaches with the new epoch and
   records the arc it was reached by. *)
let search t ~src ~sink =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  t.stamp.(src) <- epoch;
  t.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let found = ref false in
  while (not !found) && !head < !tail do
    let u = t.queue.(!head) in
    incr head;
    List.iter
      (fun i ->
        let v = t.dst.(i) in
        if t.stamp.(v) <> epoch && t.cap.(i) > 0 then begin
          t.stamp.(v) <- epoch;
          t.pred.(v) <- i;
          if v = sink then found := true
          else begin
            t.queue.(!tail) <- v;
            incr tail
          end
        end)
      t.out.(u)
  done;
  !found

(* One BFS augmentation; returns the amount pushed (0 when no augmenting
   path exists, otherwise the path bottleneck clamped to [max_push]). *)
let augment t ~src ~sink ~max_push =
  if not (search t ~src ~sink) then 0
  else begin
    let rec bottleneck v acc =
      if v = src then acc
      else
        let i = t.pred.(v) in
        bottleneck t.src_of.(i) (min acc t.cap.(i))
    in
    let b = min (bottleneck sink max_int) max_push in
    let rec push v =
      if v <> src then begin
        let i = t.pred.(v) in
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
let take_flow t u =
  let rec find = function
    | [] -> None
    | i :: rest ->
        if i land 1 = 0 && t.cap.(i lxor 1) > 0 then begin
          t.cap.(i lxor 1) <- t.cap.(i lxor 1) - 1;
          t.cap.(i) <- t.cap.(i) + 1;
          Some t.dst.(i)
        end
        else find rest
  in
  find t.out.(u)

let residual_reachable t ~src =
  let (_ : bool) = search t ~src ~sink:(-1) in
  let acc = ref Nodeset.empty in
  Array.iteri
    (fun v s -> if s = t.epoch then acc := Nodeset.add v !acc)
    t.stamp;
  !acc
