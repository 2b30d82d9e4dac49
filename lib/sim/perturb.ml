type spec = {
  drop : float;
  dup : float;
  delay : int;
  delay_p : float;
  crash : float;
  crash_len : int;
}

let zero =
  { drop = 0.0; dup = 0.0; delay = 0; delay_p = 0.0; crash = 0.0; crash_len = 1 }

let is_zero s =
  s.drop = 0.0 && s.dup = 0.0
  && (s.delay = 0 || s.delay_p = 0.0)
  && s.crash = 0.0

let validate s =
  let prob name p =
    if p < 0.0 || p > 1.0 || Float.is_nan p then
      Error (Printf.sprintf "perturb: %s=%g out of [0,1]" name p)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let* () = prob "drop" s.drop in
  let* () = prob "dup" s.dup in
  let* () = prob "delay-p" s.delay_p in
  let* () = prob "crash" s.crash in
  let* () =
    if s.delay < 0 then Error (Printf.sprintf "perturb: delay=%d < 0" s.delay)
    else Ok ()
  in
  let* () =
    if s.crash_len < 1 then
      Error (Printf.sprintf "perturb: crash-len=%d < 1" s.crash_len)
    else Ok ()
  in
  Ok s

(* %.17g would be exact but ugly; %g is exact for the short decimal
   literals rates are written as, and the string is only an identity
   token (ids, CLI round-trips), never parsed back into arithmetic. *)
let fstr = Printf.sprintf "%g"

let to_string s =
  let parts =
    List.filter_map Fun.id
      [
        (if s.drop > 0.0 then Some ("drop=" ^ fstr s.drop) else None);
        (if s.dup > 0.0 then Some ("dup=" ^ fstr s.dup) else None);
        (if s.delay > 0 then Some (Printf.sprintf "delay=%d" s.delay) else None);
        (if s.delay > 0 && s.delay_p <> 1.0 then
           Some ("delay-p=" ^ fstr s.delay_p)
         else None);
        (if s.crash > 0.0 then Some ("crash=" ^ fstr s.crash) else None);
        (if s.crash > 0.0 && s.crash_len <> 1 then
           Some (Printf.sprintf "crash-len=%d" s.crash_len)
         else None);
      ]
  in
  String.concat "," parts

let pp fmt s =
  Format.pp_print_string fmt (if is_zero s then "(none)" else to_string s)

let parse str =
  if String.trim str = "none" then Ok zero
  else
  let ( let* ) = Result.bind in
  let fields =
    List.filter (fun p -> String.trim p <> "") (String.split_on_char ',' str)
  in
  let parse_field acc field =
    let* (s, saw_delay_p, saw_crash_len) = acc in
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "perturb: expected key=value, got %S" field)
    | Some i ->
        let key = String.trim (String.sub field 0 i) in
        let value =
          String.trim (String.sub field (i + 1) (String.length field - i - 1))
        in
        let* f =
          match float_of_string_opt value with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "perturb: %s=%S is not a number" key value)
        in
        (* Integer keys take integer literals only: truncating "2.7",
           or converting "1e30" and "nan" (unspecified in OCaml), would
           run a different spec than the one written. *)
        let int () =
          match int_of_string_opt value with
          | Some n -> Ok n
          | None ->
              Error (Printf.sprintf "perturb: %s=%S is not an integer" key value)
        in
        (match key with
        | "drop" -> Ok ({ s with drop = f }, saw_delay_p, saw_crash_len)
        | "dup" -> Ok ({ s with dup = f }, saw_delay_p, saw_crash_len)
        | "delay" ->
            let* n = int () in
            Ok ({ s with delay = n }, saw_delay_p, saw_crash_len)
        | "delay-p" | "delay_p" -> Ok ({ s with delay_p = f }, true, saw_crash_len)
        | "crash" -> Ok ({ s with crash = f }, saw_delay_p, saw_crash_len)
        | "crash-len" | "crash_len" ->
            let* n = int () in
            Ok ({ s with crash_len = n }, saw_delay_p, true)
        | _ ->
            Error
              (Printf.sprintf
                 "perturb: unknown key %S (expected drop, dup, delay, \
                  delay-p, crash, crash-len)"
                 key))
  in
  let* s, saw_delay_p, saw_crash_len =
    List.fold_left parse_field (Ok (zero, false, false)) fields
  in
  let s = if s.delay > 0 && not saw_delay_p then { s with delay_p = 1.0 } else s in
  let s = if s.crash > 0.0 && not saw_crash_len then { s with crash_len = 1 } else s in
  validate s

(* ------------------------------------------------------------------ *)
(* Decision oracle                                                     *)
(* ------------------------------------------------------------------ *)

type ctx = { cspec : spec; cseed : int }

let make cspec ~seed = { cspec; cseed = seed }
let spec c = c.cspec
let seed c = c.cseed

(* splitmix64 finalizer: full 64-bit avalanche, platform-stable (Int64
   arithmetic, unlike the native-int FNV used for scenario ids). *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Hash (seed, salt, round, a, b) by absorbing each word through the
   finalizer — one multiply-xor sponge, cheap and collision-free enough
   for fault sampling. Distinct salts give independent decision streams
   (drop vs dup vs delay vs crash) over the same coordinates. *)
let hash ctx ~salt ~round ~a ~b =
  let open Int64 in
  let z = mix64 (add (of_int ctx.cseed) 0x9e3779b97f4a7c15L) in
  let z = mix64 (logxor z (of_int salt)) in
  let z = mix64 (logxor z (of_int round)) in
  let z = mix64 (logxor z (of_int a)) in
  mix64 (logxor z (of_int b))

(* Top 53 bits -> uniform float in [0, 1). *)
let uniform ctx ~salt ~round ~a ~b =
  Int64.to_float (Int64.shift_right_logical (hash ctx ~salt ~round ~a ~b) 11)
  /. 9007199254740992.0

let uniform_int ctx ~salt ~round ~a ~b ~bound =
  Int64.to_int
    (Int64.rem
       (Int64.shift_right_logical (hash ctx ~salt ~round ~a ~b) 1)
       (Int64.of_int bound))

let salt_drop = 1
let salt_dup = 2
let salt_delay1 = 3
let salt_amount1 = 4
let salt_delay2 = 5
let salt_amount2 = 6
let salt_crash = 7

let copy_offset ctx ~salt_delay ~salt_amount ~round ~sender ~receiver =
  let s = ctx.cspec in
  if s.delay <= 0 || s.delay_p <= 0.0 then 0
  else if uniform ctx ~salt:salt_delay ~round ~a:sender ~b:receiver < s.delay_p
  then
    1
    + uniform_int ctx ~salt:salt_amount ~round ~a:sender ~b:receiver
        ~bound:s.delay
  else 0

let offsets ctx ~round ~sender ~receiver =
  let s = ctx.cspec in
  if
    s.drop > 0.0
    && uniform ctx ~salt:salt_drop ~round ~a:sender ~b:receiver < s.drop
  then []
  else
    let first =
      copy_offset ctx ~salt_delay:salt_delay1 ~salt_amount:salt_amount1 ~round
        ~sender ~receiver
    in
    if
      s.dup > 0.0
      && uniform ctx ~salt:salt_dup ~round ~a:sender ~b:receiver < s.dup
    then
      first
      :: [
           copy_offset ctx ~salt_delay:salt_delay2 ~salt_amount:salt_amount2
             ~round ~sender ~receiver;
         ]
    else [ first ]

let crash_now ctx ~node ~round =
  let s = ctx.cspec in
  s.crash > 0.0 && uniform ctx ~salt:salt_crash ~round ~a:node ~b:0 < s.crash

(* ------------------------------------------------------------------ *)
(* Ambient installation (Domain.DLS, same idiom as Lbc_obs.Obs)        *)
(* ------------------------------------------------------------------ *)

let key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_chaos spec ~seed f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some (make spec ~seed));
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let current () = Domain.DLS.get key
