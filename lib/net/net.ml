type dist =
  | Constant of int
  | Uniform of { lo : int; hi : int }
  | Lognormal of { mu : float; sigma : float; cap : int }

type profile = { pname : string; base : dist; jitter : dist; compute : dist }

let dist_is_zero = function
  | Constant c -> c = 0
  | Uniform { lo; hi } -> lo = 0 && hi = 0
  | Lognormal _ -> false

let is_ideal p =
  dist_is_zero p.base && dist_is_zero p.jitter && dist_is_zero p.compute

let zero = Constant 0
let ideal = { pname = "ideal"; base = zero; jitter = zero; compute = zero }

let us n = n * 1_000
let ms n = n * 1_000_000

let lan =
  {
    pname = "lan";
    base = Uniform { lo = us 50; hi = us 200 };
    jitter = Uniform { lo = 0; hi = us 100 };
    compute = Constant (us 20);
  }

(* mu/sigma are log-ns: e^13 ~ 0.44 ms median jitter for wan; heavy-tail
   puts e^14 ~ 1.2 ms at the median with sigma 2.5, so the p99 lives in
   the hundreds of milliseconds and the cap (2 s) bites occasionally. *)
let wan =
  {
    pname = "wan";
    base = Uniform { lo = ms 10; hi = ms 80 };
    jitter = Lognormal { mu = 13.0; sigma = 1.0; cap = ms 200 };
    compute = Constant (us 100);
  }

let satellite =
  {
    pname = "satellite";
    base = Constant (ms 280);
    jitter = Uniform { lo = 0; hi = ms 30 };
    compute = Constant (us 100);
  }

let heavy_tail =
  {
    pname = "heavy-tail";
    base = Uniform { lo = ms 1; hi = ms 10 };
    jitter = Lognormal { mu = 14.0; sigma = 2.5; cap = ms 2_000 };
    compute = Constant (us 50);
  }

let names = [ "ideal"; "lan"; "wan"; "satellite"; "heavy-tail" ]
let name p = p.pname

let parse s =
  match String.trim s with
  | "" | "none" | "ideal" -> Ok ideal
  | "lan" -> Ok lan
  | "wan" -> Ok wan
  | "satellite" -> Ok satellite
  | "heavy-tail" | "heavy_tail" -> Ok heavy_tail
  | str -> (
      match String.index_opt str ':' with
      | Some i when String.sub str 0 i = "const" -> (
          let v = String.sub str (i + 1) (String.length str - i - 1) in
          match int_of_string_opt v with
          | Some ns when ns >= 0 ->
              Ok
                {
                  pname = "const:" ^ string_of_int ns;
                  base = Constant ns;
                  jitter = zero;
                  compute = zero;
                }
          | Some _ | None ->
              Error (Printf.sprintf "net: const:%S is not a non-negative ns count" v))
      | _ ->
          Error
            (Printf.sprintf "net: unknown profile %S (expected %s or const:NS)"
               str
               (String.concat ", " names)))

let pp fmt p = Format.pp_print_string fmt p.pname

(* ------------------------------------------------------------------ *)
(* Decision oracle: splitmix64, mirroring lib/sim/perturb               *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cprofile : profile;
  cseed : int;
  mutable total_ns : int;
  (* binary min-heap of this round's completion times (ns); reused
     across rounds to stay allocation-light on instrumented hot paths *)
  mutable heap : int array;
  mutable hsize : int;
}

let make cprofile ~seed =
  { cprofile; cseed = seed; total_ns = 0; heap = Array.make 16 0; hsize = 0 }

let profile c = c.cprofile
let seed c = c.cseed

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

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

(* Salts 16+ keep the net sample streams independent of perturb's
   decision streams (salts 1-7) over the same (seed, round, link)
   coordinates. Each Lognormal consumes salt and salt+1 (Box-Muller). *)
let salt_base = 16
let salt_jitter = 18
let salt_compute = 20

let sample ctx dist ~salt ~round ~a ~b =
  match dist with
  | Constant c -> c
  | Uniform { lo; hi } ->
      if hi <= lo then lo
      else lo + uniform_int ctx ~salt ~round ~a ~b ~bound:(hi - lo + 1)
  | Lognormal { mu; sigma; cap } ->
      (* Box-Muller from two hash-derived uniforms; u1 is shifted into
         (0, 1] so the log is finite. *)
      let u1 =
        (Int64.to_float
           (Int64.shift_right_logical (hash ctx ~salt ~round ~a ~b) 11)
        +. 1.0)
        /. 9007199254740992.0
      in
      let u2 = uniform ctx ~salt:(salt + 1) ~round ~a ~b in
      let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
      let x = exp (mu +. (sigma *. z)) in
      if Float.is_nan x || x < 0.0 then 0
      else if x >= float_of_int cap then cap
      else int_of_float x

let link_latency_ns ctx ~round ~sender ~receiver =
  let p = ctx.cprofile in
  sample ctx p.compute ~salt:salt_compute ~round ~a:sender ~b:0
  (* base is per directed link, round-independent: keyed at round 0 *)
  + sample ctx p.base ~salt:salt_base ~round:0 ~a:sender ~b:receiver
  + sample ctx p.jitter ~salt:salt_jitter ~round ~a:sender ~b:receiver

(* ------------------------------------------------------------------ *)
(* Simulated-clock event queue                                          *)
(* ------------------------------------------------------------------ *)

let push ctx v =
  let n = ctx.hsize in
  if n = Array.length ctx.heap then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit ctx.heap 0 bigger 0 n;
    ctx.heap <- bigger
  end;
  ctx.heap.(n) <- v;
  ctx.hsize <- n + 1;
  let i = ref n in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    ctx.heap.(parent) > ctx.heap.(!i)
  do
    let parent = (!i - 1) / 2 in
    let tmp = ctx.heap.(parent) in
    ctx.heap.(parent) <- ctx.heap.(!i);
    ctx.heap.(!i) <- tmp;
    i := parent
  done

let pop ctx =
  let top = ctx.heap.(0) in
  ctx.hsize <- ctx.hsize - 1;
  ctx.heap.(0) <- ctx.heap.(ctx.hsize);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < ctx.hsize && ctx.heap.(l) < ctx.heap.(!smallest) then smallest := l;
    if r < ctx.hsize && ctx.heap.(r) < ctx.heap.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = ctx.heap.(!smallest) in
      ctx.heap.(!smallest) <- ctx.heap.(!i);
      ctx.heap.(!i) <- tmp;
      i := !smallest
    end
  done;
  top

let begin_round ctx = ctx.hsize <- 0

let on_delivery ctx ~round ~sender ~receiver =
  let lat = link_latency_ns ctx ~round ~sender ~receiver in
  (* Zero-latency deliveries queue nothing and record nothing: under the
     ideal profile the whole layer is a no-op, which is what keeps
     fingerprints of no-net and ideal-net runs byte-identical. *)
  if lat > 0 then begin
    Lbc_obs.Obs.observe "net.link_ns" lat;
    push ctx lat
  end

let end_round ctx ~round =
  if ctx.hsize > 0 then begin
    (* Drain completions in simulated-time order; the last one out is
       the barrier the synchronous round waits on. *)
    let duration = ref 0 in
    while ctx.hsize > 0 do
      let t = pop ctx in
      duration := t;
      if Lbc_obs.Obs.tracing () then
        Lbc_obs.Obs.emit
          { Lbc_obs.Obs.round; label = "net.delivery"; fields = [ ("ns", t) ] }
    done;
    ctx.total_ns <- ctx.total_ns + !duration;
    Lbc_obs.Obs.observe "net.round_ns" !duration
  end

(* ------------------------------------------------------------------ *)
(* Ambient installation (Domain.DLS, same idiom as Perturb)             *)
(* ------------------------------------------------------------------ *)

let key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_net profile ~seed f =
  let prev = Domain.DLS.get key in
  let ctx = make profile ~seed in
  Domain.DLS.set key (Some ctx);
  let result = Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f in
  if ctx.total_ns > 0 then Lbc_obs.Obs.add "net.sim_ns" ctx.total_ns;
  (result, ctx.total_ns)

let current () = Domain.DLS.get key

let sim_time_s ns = float_of_int ns /. 1e9
