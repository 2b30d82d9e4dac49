(* Random byte edits of a valid file body, shared by the property
   tests that feed damaged artifacts, specs and journals to their
   readers. Inserted bytes lean towards the grammars' own punctuation,
   so edits reach past the first token. *)

type edit =
  | Flip_byte of int * int
  | Cut of int * int
  | Insert of int * string
  | Repeat of int * int

(* [pos] draws edit positions, taken modulo the body length: the
   default [nat] favours a body's first bytes, where a grammar's
   outermost tokens are; a wide uniform bound spreads the edits over a
   long body. *)
let gen_edits_at pos =
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
         map2 (fun p x -> Flip_byte (p, x)) pos (int_range 1 255);
         map2 (fun p k -> Cut (p, k)) pos (int_range 1 12);
         map2
           (fun p t -> Insert (p, t))
           pos
           (string_size ~gen:syntax (int_range 1 8));
         map2 (fun p k -> Repeat (p, k)) pos (int_range 1 24);
       ])

let gen_edits = gen_edits_at QCheck.Gen.nat

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
