(* File layout for key K and payload P:

     lbc-store/1 '\n' <decimal length of K> '\n' K  MD5(P)  P

   A lookup rebuilds the header (everything up to K) from its own key
   and compares it as a prefix: the tag and the key are checked in one
   step, and the length keeps a longer key from matching a shorter one.
   Decoders only ever see bytes whose digest matched, which is what
   keeps flipped bytes in a cached file away from [Marshal]. *)

type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
}

let format_tag = "lbc-store/1"

let create ~dir =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  { dir; hits = Atomic.make 0; misses = Atomic.make 0; stores = Atomic.make 0 }

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let stores t = Atomic.get t.stores

(* Masking once at the end equals masking after every step: the low 62
   bits of a product or xor depend only on the low 62 bits of the
   operands. *)
let fnv1a s =
  let h = ref 0x0BF29CE484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h land max_int

let path_of t ~key =
  Filename.concat t.dir (Printf.sprintf "%016x" (fnv1a key))

let header key = Printf.sprintf "%s\n%d\n%s" format_tag (String.length key) key
let digest_len = 16

let write_atomic ~path text =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  try
    output_string oc text;
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ as e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let find t ~key =
  let header = header key in
  let off = String.length header + digest_len in
  let payload =
    match In_channel.with_open_bin (path_of t ~key) In_channel.input_all with
    | exception Sys_error _ -> None
    | s when String.length s >= off && String.starts_with ~prefix:header s ->
        let payload = String.sub s off (String.length s - off) in
        let digest = String.sub s (off - digest_len) digest_len in
        if String.equal digest (Digest.string payload) then Some payload
        else None
    | _ -> None
  in
  Atomic.incr (if Option.is_some payload then t.hits else t.misses);
  payload

let store t ~key payload =
  match
    write_atomic ~path:(path_of t ~key)
      (String.concat "" [ header key; Digest.string payload; payload ])
  with
  | () -> Atomic.incr t.stores
  | exception Sys_error _ -> ()
