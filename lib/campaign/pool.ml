type failure = {
  index : int;
  description : string;
  message : string;
  backtrace : string;
  attempts : int;
  prior_messages : string list;
}

exception Task_failed of failure

let () =
  Printexc.register_printer (function
    | Task_failed fl ->
        Some
          (Printf.sprintf "Task_failed(task %d%s: %s)" fl.index
             (if fl.description = "" then "" else " [" ^ fl.description ^ "]")
             fl.message)
    | _ -> None)

let failure_of ~describe ~attempts ~prior i t exn bt =
  {
    index = i;
    description = describe i t;
    message = Printexc.to_string exn;
    backtrace = Printexc.raw_backtrace_to_string bt;
    attempts;
    prior_messages = prior;
  }

type steal_report = { steals : int; retried : int }

(* One contiguous block of task indices per worker. The owner pops from
   the front, thieves pop from the back; both under the block's mutex —
   at scenario granularity the lock is cold, so a lock-free deque would
   buy nothing and cost the memory-model reasoning. *)
type block = { mutable lo : int; mutable hi : int; lock : Mutex.t }

let take_front b =
  Mutex.lock b.lock;
  let r =
    if b.lo < b.hi then begin
      let i = b.lo in
      b.lo <- i + 1;
      Some i
    end
    else None
  in
  Mutex.unlock b.lock;
  r

let take_back b =
  Mutex.lock b.lock;
  let r =
    if b.lo < b.hi then begin
      let i = b.hi - 1 in
      b.hi <- i;
      Some i
    end
    else None
  in
  Mutex.unlock b.lock;
  r

(* splitmix64 finalizer (Int64 ops for platform stability, like
   lib/sim/perturb) — seeds the deterministic backoff jitter. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Deterministic jitter in [0.5, 1.5): keyed by (seed, task, attempt) so
   a given retry sleeps the same duration in every run and on every
   domain layout. *)
let jitter ~seed ~index ~attempt =
  let open Int64 in
  let z = mix64 (add (of_int seed) 0x9e3779b97f4a7c15L) in
  let z = mix64 (logxor z (of_int index)) in
  let z = mix64 (logxor z (of_int attempt)) in
  let u = to_int (logand z 0x3FFL) in
  0.5 +. (float_of_int u /. 1024.0)

let run ?(describe = fun _ _ -> "") ?(seed = 0) ?(retries = 1)
    ?(backoff_s = (0.001, 0.05)) ?deadline ?(fatal = fun _ -> false) ~domains
    ~tasks f =
  let n = Array.length tasks in
  let workers = max 1 (min (max 1 domains) (max 1 n)) in
  let blocks =
    Array.init workers (fun w ->
        { lo = w * n / workers; hi = (w + 1) * n / workers;
          lock = Mutex.create () })
  in
  let steals = Atomic.make 0 in
  let retried = Atomic.make 0 in
  let aborted = Atomic.make None in
  let failures_mutex = Mutex.create () in
  let failures = ref [] in
  (* Watchdog bookkeeping: which task each worker is running and since
     when, guarded by one mutex (critical sections are a few words). *)
  let watch_mutex = Mutex.create () in
  let running : (int * float) option array = Array.make workers None in
  let fired : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let set_running w v =
    Mutex.lock watch_mutex;
    running.(w) <- v;
    Mutex.unlock watch_mutex
  in
  let base_backoff, cap_backoff = backoff_s in
  let exec w i =
    let t = tasks.(i) in
    let rec attempt k prior =
      set_running w (Some (i, Clock.now_s ()));
      match f i t with
      | () -> ()
      | exception exn when fatal exn ->
          (* A fatal exception (e.g. the kill-point shim's simulated
             crash) aborts the whole pool: no retry, no quarantine — the
             caller re-raises it after the join. *)
          ignore (Atomic.compare_and_set aborted None (Some exn))
      | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          if k <= retries then begin
            Atomic.incr retried;
            (* Capped exponential backoff with deterministic jitter:
               transient contention (file-system races, memory pressure)
               gets room to clear without the retry schedule depending on
               wall-clock randomness. *)
            let d =
              Float.min cap_backoff
                (base_backoff *. Float.pow 2.0 (float_of_int (k - 1)))
              *. jitter ~seed ~index:i ~attempt:k
            in
            Unix.sleepf d;
            attempt (k + 1) (Printexc.to_string exn :: prior)
          end
          else begin
            let fl =
              failure_of ~describe ~attempts:k ~prior:(List.rev prior) i t exn
                bt
            in
            Mutex.lock failures_mutex;
            failures := fl :: !failures;
            Mutex.unlock failures_mutex
          end
    in
    attempt 1 [];
    set_running w None
  in
  let worker w =
    let rec own () =
      if Atomic.get aborted <> None then ()
      else
        match take_front blocks.(w) with
        | Some i ->
            exec w i;
            own ()
        | None -> rob 1
    and rob k =
      (* Victim scan in a fixed ring order from the thief: deterministic
         given the interleaving, and no two thieves share a preferred
         victim. Blocks only ever shrink, so one full empty scan means
         the pool is drained and the worker can exit. *)
      if k >= workers || Atomic.get aborted <> None then ()
      else
        match take_back blocks.((w + k) mod workers) with
        | Some i ->
            Atomic.incr steals;
            exec w i;
            own ()
        | None -> rob (k + 1)
    in
    own ()
  in
  let stop = Atomic.make false in
  let watchdog =
    match deadline with
    | None -> None
    | Some (limit_s, on_overdue) ->
        (* Poll fast enough to catch an overdue task promptly, but cap
           the sleep so the post-run watchdog join never stalls behind a
           generous deadline. *)
        let poll = Float.max 0.001 (Float.min 0.05 (limit_s /. 8.0)) in
        Some
          (Domain.spawn (fun () ->
               while not (Atomic.get stop) do
                 Unix.sleepf poll;
                 let now = Clock.now_s () in
                 let overdue = ref [] in
                 Mutex.lock watch_mutex;
                 Array.iter
                   (fun slot ->
                     match slot with
                     | Some (i, t0)
                       when now -. t0 > limit_s && not (Hashtbl.mem fired i)
                       ->
                         Hashtbl.replace fired i ();
                         overdue := i :: !overdue
                     | Some _ | None -> ())
                   running;
                 Mutex.unlock watch_mutex;
                 (* Fire outside the lock: the callback may take other
                    locks (the runner's fuel-cell registry). *)
                 List.iter (fun i -> on_overdue i tasks.(i)) !overdue
               done))
  in
  let spawned = if domains <= 1 then 0 else workers - 1 in
  let ds =
    List.init (max 0 spawned) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
  in
  let finish () =
    List.iter Domain.join ds;
    Atomic.set stop true;
    Option.iter Domain.join watchdog
  in
  (match worker 0 with
  | () -> finish ()
  | exception exn ->
      (* [exec] never raises, so this is a pool bug or an async exn —
         still join everything before propagating. *)
      finish ();
      raise exn);
  (match Atomic.get aborted with Some exn -> raise exn | None -> ());
  ( { steals = Atomic.get steals; retried = Atomic.get retried },
    List.sort (fun a b -> Int.compare a.index b.index) !failures )
