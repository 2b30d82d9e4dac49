(* Content-addressed scenario→verdict cache: the JSON codec of one entry
   over Lbc_store.Store, which owns the files, the key re-check and the
   tallies.

   Scenario ids are already pure functions of scenario content, so
   (id, base seed, round budget) fully determines the verdict and its
   observability counters. The format tag leads the key, so a change to
   the entry layout makes old files misses. *)

module Store = Lbc_store.Store

type entry = {
  algo : string;
  counters : (string * int) list;
  verdict : Scenario.verdict;
}

type t = Store.t

let create = Store.create
let hits = Store.hits
let misses = Store.misses
let stores = Store.stores

let key ~id ~base_seed ~budget =
  Printf.sprintf "lbc-cache/2|%s|seed=%d|budget=%d" id base_seed budget

(* The one on-disk codec of an entry's fields, in this order; a journal
   record is the same fields behind its index and wall time. *)
let entry_fields e =
  [
    ("algo", Jsonio.Str e.algo);
    ( "counters",
      Jsonio.Obj (List.map (fun (k, v) -> (k, Jsonio.Int v)) e.counters) );
    ("verdict", Scenario.verdict_to_json e.verdict);
  ]

let entry_of_json j =
  match
    ( Option.bind (Jsonio.member "algo" j) Jsonio.to_str,
      Jsonio.member "counters" j,
      Jsonio.member "verdict" j )
  with
  | Some algo, Some (Jsonio.Obj cs), Some vj -> (
      match Scenario.verdict_of_json vj with
      | Error _ -> None
      | Ok verdict ->
          let counters =
            List.filter_map
              (fun (k, v) -> Option.map (fun i -> (k, i)) (Jsonio.to_int v))
              cs
          in
          Some { algo; counters; verdict })
  | _ -> None

let find t ~key =
  Option.bind (Store.find t ~key) (fun s ->
      Option.bind (Result.to_option (Jsonio.of_string s)) entry_of_json)

let store t ~key e =
  Store.store t ~key (Jsonio.to_string (Jsonio.Obj (entry_fields e)))
