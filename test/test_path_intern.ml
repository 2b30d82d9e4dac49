(* Path_intern on its own: interning round-trips, the cached per-path
   facts agree with the list functions and Graph.is_path, ids are stable,
   and invalid ids stay invalid. Paths are random lists over a range a
   little wider than the graph's nodes, so repeated nodes, missing edges
   and out-of-range ids all occur. A lock-step property drives the
   retained hashtable trie (path_intern_reference) alongside. *)

module P = Lbc_flood.Path_intern
module R = Path_intern_reference
module Packing = Lbc_flood.Packing
module B = Lbc_graph.Builders
module G = Lbc_graph.Graph

let check = Alcotest.(check bool)

let in_range g l = List.for_all (fun u -> u >= 0 && u < G.size g) l

let rec last_of = function [ x ] -> x | _ :: tl -> last_of tl | [] -> -1

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* A graph, and paths that share prefixes (every list is also interned
   with its prefixes' ids in play). *)
let arb_case =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      int_range 0 9999 >>= fun seed ->
      list_size (int_range 1 12)
        (list_size (int_range 0 (n + 2)) (int_range (-2) (n + 1)))
      >|= fun paths -> (B.random_gnp ~seed n 0.5, paths))
  in
  let print (g, paths) =
    Format.asprintf "%a@ %s" G.pp g
      (String.concat " | "
         (List.map
            (fun l -> String.concat "," (List.map string_of_int l))
            paths))
  in
  QCheck.make ~print gen

let prop_round_trip =
  QCheck.Test.make ~name:"path (intern l) = l, shared on repeat" ~count:300
    arb_case (fun (g, paths) ->
      let t = P.create g in
      let ids = List.map (P.intern t) paths in
      List.for_all2
        (fun l id ->
          if in_range g l then
            let p = P.path t id in
            p = l && P.path t id == p && P.intern t l = id
          else id = P.invalid)
        paths ids)

let prop_facts =
  QCheck.Test.make ~name:"length/first/last/mask/is_path/mem agree" ~count:300
    arb_case (fun (g, paths) ->
      let t = P.create g in
      List.for_all
        (fun l ->
          let id = P.intern t l in
          if not (in_range g l) then
            P.length t id = -1
            && (not (P.is_path t id))
            && List.for_all (fun u -> not (P.mem t id u)) l
            && raises (fun () -> P.path t id)
            && raises (fun () -> P.first t id)
            && raises (fun () -> P.last t id)
            && raises (fun () -> P.mask t id)
          else
            P.length t id = List.length l
            && P.first t id = (match l with u :: _ -> u | [] -> -1)
            && P.last t id = last_of l
            && P.mask t id = Packing.mask_of_nodes l
            && P.is_path t id = (l <> [] && G.is_path g l)
            && List.for_all (fun u -> P.mem t id u = List.mem u l)
                 (List.init (G.size g + 2) (fun u -> u - 1)))
        paths)

let prop_extend_stable =
  QCheck.Test.make ~name:"extend ids stable, invalid stays invalid" ~count:300
    arb_case (fun (g, paths) ->
      let t = P.create g in
      let n = G.size g in
      List.for_all
        (fun l ->
          (* Extending step by step reaches the interned id, and repeating
             any step returns the same id. *)
          let id =
            List.fold_left
              (fun pid u ->
                let id = P.extend t pid u in
                if P.extend t pid u <> id then invalid_arg "unstable";
                id)
              P.root l
          in
          id = P.intern t l
          && List.for_all
               (fun u -> P.extend t P.invalid u = P.invalid)
               (List.init (n + 2) (fun u -> u - 1))
          && P.extend t id (-1) = P.invalid
          && P.extend t id n = P.invalid)
        paths)

(* One step of a lock-step run: intern a list, or extend a raw id (any
   int, so unissued, negative and invalid ids all occur) by a raw node. *)
type op = Intern of int list | Extend of int * int

let arb_ops =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      int_range 0 9999 >>= fun seed ->
      let node = int_range (-2) (n + 1) in
      list_size (int_range 1 60)
        (frequency
           [
             (1, list_size (int_range 0 (n + 2)) node >|= fun l -> Intern l);
             (3, pair (int_range (-2) 40) node >|= fun (p, u) -> Extend (p, u));
           ])
      >|= fun ops -> (B.random_gnp ~seed n 0.5, ops))
  in
  let print (g, ops) =
    Format.asprintf "%a@ %s" G.pp g
      (String.concat "; "
         (List.map
            (function
              | Intern l ->
                  "intern [" ^ String.concat "," (List.map string_of_int l) ^ "]"
              | Extend (p, u) -> Printf.sprintf "extend %d %d" p u)
            ops))
  in
  QCheck.make ~print gen

let outcome f = match f () with x -> Ok x | exception e -> Error e

(* Every query on every id the run could have touched, both tables. *)
let same_answers g t r ~top =
  let n = G.size g in
  List.for_all
    (fun id ->
      P.length t id = R.length r id
      && P.is_path t id = R.is_path r id
      && outcome (fun () -> P.first t id) = outcome (fun () -> R.first r id)
      && outcome (fun () -> P.last t id) = outcome (fun () -> R.last r id)
      && outcome (fun () -> P.mask t id) = outcome (fun () -> R.mask r id)
      && outcome (fun () -> P.path t id) = outcome (fun () -> R.path r id)
      && List.for_all
           (fun u -> P.mem t id u = R.mem r id u)
           (List.init (n + 3) (fun u -> u - 1)))
    (List.init (top + 4) (fun id -> id - 2))

let prop_reference =
  QCheck.Test.make ~name:"lock-step with the hashtable trie reference"
    ~count:300 arb_ops (fun (g, ops) ->
      let t = P.create g and r = R.create g in
      (* The number of ids issued so far: the reference's are dense. *)
      let count = ref 1 in
      let issued () =
        while R.length r !count >= 0 do
          incr count
        done;
        !count
      in
      let step op =
        let issued = issued () in
        match op with
        | Intern l ->
            outcome (fun () -> P.intern t l) = outcome (fun () -> R.intern r l)
        | Extend (pid, u) -> (
            let known = P.find t pid u in
            let a = outcome (fun () -> P.extend t pid u) in
            a = outcome (fun () -> R.extend r pid u)
            &&
            (* [find] answers an interned extension and nothing else *)
            match a with
            | Ok id when id <> P.invalid ->
                known = if id >= issued then P.invalid else id
            | _ -> known = P.invalid)
      in
      List.iteri
        (fun i op ->
          if not (step op) then QCheck.Test.fail_reportf "step %d diverges" i)
        ops;
      same_answers g t r ~top:(issued ()))

let test_root () =
  let g = B.cycle 4 in
  let t = P.create g in
  check "root path" true (P.path t P.root = []);
  check "root length" true (P.length t P.root = 0);
  check "root is not a path" false (P.is_path t P.root);
  check "root first" true (P.first t P.root = -1);
  check "empty list interns to root" true (P.intern t [] = P.root);
  check "ids are dense" true (P.intern t [ 0; 1 ] = 2 && P.intern t [ 3 ] = 3)

(* An id the table never issued is refused by [extend] before anything
   is written, and answered by the total queries like [invalid]. *)
let test_unissued () =
  let t = P.create (B.cycle 5) in
  check "extend past the last id refused" true
    (raises (fun () -> P.extend t 7 1));
  check "next id still dense" true (P.extend t P.root 1 = 1);
  check "id 1 is the path [1]" true
    (P.path t 1 = [ 1 ] && P.length t 1 = 1 && P.is_path t 1);
  List.iter
    (fun id ->
      let name = Printf.sprintf "unissued %d" id in
      check (name ^ " length") true (P.length t id = -1);
      check (name ^ " not a path") false (P.is_path t id);
      check (name ^ " has no nodes") false
        (List.exists (fun u -> P.mem t id u) [ 0; 1; 2; 3; 4 ]);
      check (name ^ " path refused") true (raises (fun () -> P.path t id)))
    [ 2; 7; 1000; -5 ]

(* A table is bound to its graph: a flood store refuses one interned
   over a different graph. *)
let test_foreign_table () =
  let t = P.create (B.cycle 5) in
  let create g =
    Lbc_flood.Flood.create g ~me:0 ~vcompare:Int.compare ~paths:t ()
  in
  check "equal graph accepted" false (raises (fun () -> create (B.cycle 5)));
  check "other graph refused" true (raises (fun () -> create (B.cycle 6)))

let () =
  Alcotest.run "path_intern"
    [
      ( "basics",
        [
          Alcotest.test_case "root and density" `Quick test_root;
          Alcotest.test_case "unissued ids" `Quick test_unissued;
          Alcotest.test_case "foreign table" `Quick test_foreign_table;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_round_trip; prop_facts; prop_extend_stable; prop_reference ]
      );
    ]
