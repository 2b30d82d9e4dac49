(* Tests for lib/store: the content-addressed byte store under the
   campaign result cache and the deep lint's summary cache. Its reader
   must turn any on-disk bytes other than what it wrote into a miss,
   and a leftover temp file must never block a later write.

   Beside it, the other readers of on-disk or command-line text: JSON,
   campaign artifacts, lint baselines, chaos specs and strategy
   spellings. Whatever bytes they are handed, they return a value or
   their documented [Error], never another exception. *)

module Store = Lbc_store.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let temp_dir () =
  let probe = Filename.temp_file "lbc-store" "" in
  Sys.remove probe;
  probe

let rm_rf dir =
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
   with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The one file a store holds for [key]: the key's FNV-1a in hex. *)
let file_of dir key = Filename.concat dir (Printf.sprintf "%016x" (Store.fnv1a key))
let read path = In_channel.with_open_bin path In_channel.input_all

let write path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let test_roundtrip_and_tallies () =
  with_dir (fun dir ->
      let t = Store.create ~dir in
      let payload = "bytes\000with\nnewlines\255" in
      check "cold lookup misses" true (Store.find t ~key:"k" = None);
      Store.store t ~key:"k" payload;
      check "stored payload returned" true (Store.find t ~key:"k" = Some payload);
      Store.store t ~key:"k" "";
      check "empty payload overwrites" true (Store.find t ~key:"k" = Some "");
      check "other key misses" true (Store.find t ~key:"k2" = None);
      check_int "hits" 2 (Store.hits t);
      check_int "misses" 2 (Store.misses t);
      check_int "stores" 2 (Store.stores t);
      check_int "one file, no temp left" 1 (Array.length (Sys.readdir dir)))

(* A killed writer leaves its temp file behind. Had the temp name been
   fixed per key and opened exclusively, one leftover would block that
   key's store forever; a unique temp name never collides with one. *)
let test_leftover_tmp_does_not_block () =
  with_dir (fun dir ->
      let t = Store.create ~dir in
      let key = "lbclint-sum|unit" in
      let name = file_of dir key in
      List.iter
        (fun suffix -> write (name ^ suffix) "torn")
        [ ".tmp"; ".sum.tmp"; ".json.tmp.1" ];
      Store.store t ~key "summary";
      check_int "store lands" 1 (Store.stores t);
      check "lookup hits" true (Store.find t ~key = Some "summary");
      check_int "hit counted" 1 (Store.hits t))

(* A file stored under another key, renamed onto [key]'s name (the
   hash-collision shape), is a miss. *)
let test_foreign_key_is_miss () =
  with_dir (fun dir ->
      let t = Store.create ~dir in
      Store.store t ~key:"other" "impostor";
      Sys.rename (file_of dir "other") (file_of dir "victim");
      check "embedded-key mismatch is a miss" true
        (Store.find t ~key:"victim" = None);
      (* a key that is a prefix of the stored one must not match *)
      Store.store t ~key:"abc" "x";
      Sys.rename (file_of dir "abc") (file_of dir "ab");
      check "prefix key is a miss" true (Store.find t ~key:"ab" = None))

let test_write_atomic_replaces () =
  with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let path = Filename.concat dir "out.sarif" in
      write (path ^ ".tmp") "leftover";
      Store.write_atomic ~path "one";
      Store.write_atomic ~path "two";
      check_str "last write wins" "two" (read path);
      check "missing directory raises Sys_error" true
        (match
           Store.write_atomic ~path:(Filename.concat dir "no/such/file") "x"
         with
        | () -> false
        | exception Sys_error _ -> true))

(* The per-step masking of the former campaign cache, kept as the
   reference: masking once at the end must give the same hash, so
   scenario seeds and grid fingerprints do not move. *)
let fnv1a_masked_each_step s =
  let h = ref 0x0BF29CE484222325 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001b3 land max_int)
    s;
  !h

let prop_fnv1a_masking =
  QCheck.Test.make ~name:"fnv1a mask once = mask each step" ~count:500
    QCheck.string (fun s -> Store.fnv1a s = fnv1a_masked_each_step s)

type mutation = Truncate of int | Flip of int * int | Extend of string | Empty

let gen_mutation_case =
  let open QCheck.Gen in
  let* key = string_size ~gen:printable (int_range 0 40) in
  let* payload = string_size (int_range 0 200) in
  let* m =
    oneof
      [
        map (fun n -> Truncate n) nat;
        map2 (fun p x -> Flip (p, x)) nat (int_range 1 255);
        map (fun s -> Extend s) (string_size (int_range 1 16));
        return Empty;
      ]
  in
  return (key, payload, m)

let print_mutation_case (key, payload, m) =
  Printf.sprintf "key=%S payload=%S %s" key payload
    (match m with
    | Truncate n -> Printf.sprintf "truncate %d" n
    | Flip (p, x) -> Printf.sprintf "flip %d lxor %d" p x
    | Extend s -> Printf.sprintf "extend %S" s
    | Empty -> "empty")

let mutate s = function
  | Truncate n -> String.sub s 0 (n mod (String.length s + 1))
  | Flip (p, x) ->
      let b = Bytes.of_string s in
      let p = p mod Bytes.length b in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x));
      Bytes.to_string b
  | Extend e -> s ^ e
  | Empty -> ""

(* Whatever happens to a stored file, [find] returns the original
   payload when the bytes are untouched and a miss otherwise; it never
   raises. All cases share one directory: each stores its own key
   first, so what an earlier case left behind does not matter. *)
let prop_mutation_is_miss_or_original dir =
  let t = Store.create ~dir in
  QCheck.Test.make ~name:"mutated file: original or miss" ~count:300
    (QCheck.make ~print:print_mutation_case gen_mutation_case)
    (fun (key, payload, m) ->
      Store.store t ~key payload;
      let path = file_of dir key in
      let original = read path in
      let mutated = mutate original m in
      (* remove, then write: on ext4, overwriting a file in place makes
         its later unlink wait for a flush (auto_da_alloc) *)
      Sys.remove path;
      write path mutated;
      let want = if String.equal mutated original then Some payload else None in
      Store.find t ~key = want)

(* ------------------------------------------------------------------ *)
(* Readers never crash                                                  *)
(* ------------------------------------------------------------------ *)

(* Random edits of a valid text. Inserted bytes lean towards the
   grammars' own punctuation, so edits reach past the first token. *)
type edit =
  | Flip_byte of int * int
  | Cut of int * int
  | Insert of int * string
  | Repeat of int * int

let gen_edits =
  let open QCheck.Gen in
  let syntax =
    oneof
      [
        printable;
        oneofl
          [ '"'; '{'; '}'; '['; ']'; ','; ':'; '='; '-'; '.'; '\\'; 'e'; '0';
            '9'; ' '; '\n'; '\000'; '\255' ];
      ]
  in
  list_size (int_range 1 4)
    (oneof
       [
         map2 (fun p x -> Flip_byte (p, x)) nat (int_range 1 255);
         map2 (fun p k -> Cut (p, k)) nat (int_range 1 12);
         map2 (fun p t -> Insert (p, t)) nat (string_size ~gen:syntax (int_range 1 8));
         map2 (fun p k -> Repeat (p, k)) nat (int_range 1 24);
       ])

let print_edits edits =
  String.concat "; "
    (List.map
       (function
         | Flip_byte (p, x) -> Printf.sprintf "flip %d lxor %d" p x
         | Cut (p, k) -> Printf.sprintf "cut %d+%d" p k
         | Insert (p, t) -> Printf.sprintf "insert %d %S" p t
         | Repeat (p, k) -> Printf.sprintf "repeat %d+%d" p k)
       edits)

let apply_edit s e =
  let len = String.length s in
  let at p = p mod (len + 1) in
  let span p k = min k (len - at p) in
  match e with
  | Flip_byte (p, x) ->
      if len = 0 then s
      else begin
        let b = Bytes.of_string s in
        let p = p mod len in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x));
        Bytes.to_string b
      end
  | Cut (p, k) ->
      let p = at p in
      String.sub s 0 p ^ String.sub s (p + span p k) (len - p - span p k)
  | Insert (p, t) ->
      let p = at p in
      String.sub s 0 p ^ t ^ String.sub s p (len - p)
  | Repeat (p, k) ->
      let p = at p in
      String.sub s 0 (p + span p k) ^ String.sub s p (len - p)

(* [read] over random edits of one of [bases]: any result is fine, an
   exception is not. *)
let never_raises name ~count bases read =
  let bases = Array.of_list bases in
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun (i, edits) -> Printf.sprintf "base %d: %s" i (print_edits edits))
       QCheck.Gen.(pair (int_bound (Array.length bases - 1)) gen_edits))
    (fun (i, edits) ->
      let s = List.fold_left apply_edit bases.(i mod Array.length bases) edits in
      match read s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%S raised %s" s (Printexc.to_string e))

module C = Lbc_campaign

(* The CI smoke campaign's artifact, in both renderings. *)
let smoke_artifacts () =
  match C.Grids.by_name "smoke" with
  | None -> Alcotest.fail "no smoke grid"
  | Some grid ->
      let a = C.Runner.run_exn grid in
      [ C.Artifact.to_string a; C.Artifact.deterministic_string a ]

let baselines =
  [
    "# lbclint baseline: grandfathered findings, one 'RULE FILE COUNT' per \
     line.\n\
     D2 lib/campaign/runner.ml 2\n\
     E3 lib/campaign/pool.ml 1\n\
     X1 lib/core/bit.mli 12\n";
    "";
  ]

let chaos_specs =
  [
    "drop=0.1,dup=0.2,delay=2,delay-p=0.5,crash=0.05,crash-len=3";
    "delay=1";
    "none";
  ]

let strategy_specs =
  List.map Lbc_adversary.Strategy.to_string Lbc_adversary.Strategy.kinds_hybrid
  @ [ "omit:1,2,3"; "flip-from:0,4"; "crash:12"; "noise:0" ]

let reader_props () =
  let artifacts = smoke_artifacts () in
  [
    never_raises "Jsonio.of_string never raises" ~count:300 artifacts
      C.Jsonio.of_string;
    never_raises "Artifact.of_string never raises" ~count:300 artifacts
      C.Artifact.of_string;
    never_raises "Baseline.of_string never raises" ~count:500 baselines
      Lbc_lint.Baseline.of_string;
    never_raises "Perturb.parse never raises" ~count:1000 chaos_specs
      Lbc_sim.Perturb.parse;
    never_raises "Strategy.of_string never raises" ~count:1000 strategy_specs
      Lbc_adversary.Strategy.of_string;
  ]

let () =
  let dir = temp_dir () in
  at_exit (fun () -> rm_rf dir);
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip and tallies" `Quick
            test_roundtrip_and_tallies;
          Alcotest.test_case "leftover tmp does not block" `Quick
            test_leftover_tmp_does_not_block;
          Alcotest.test_case "foreign key is a miss" `Quick
            test_foreign_key_is_miss;
          Alcotest.test_case "write_atomic replaces" `Quick
            test_write_atomic_replaces;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fnv1a_masking; prop_mutation_is_miss_or_original dir ] );
      ("readers", List.map QCheck_alcotest.to_alcotest (reader_props ()));
    ]
