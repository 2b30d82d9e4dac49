(** Latency-realistic network model over the synchronous engine.

    The paper's results are stated in synchronous {e rounds}; an
    operator cares about {e wall-time} under heterogeneous links. This
    module bridges the two without leaving the synchronous abstraction:
    every delivery the engine performs is assigned a latency drawn from
    a per-profile distribution, the completions of one round are drained
    through a simulated-clock event queue, and the round's {e duration}
    is the time its slowest delivery completes — the barrier a
    synchronous round waits on. Summed over the execution this yields a
    simulated wall-time ([sim_ns]) reported alongside round counts.

    Latencies are {e integer nanoseconds} (summation is exact; no
    float-ordering hazards) and every sample is a pure splitmix64
    function of [(seed, round, sender, receiver)] — the same decision
    style as {!Lbc_sim.Perturb}, with disjoint hash salts, so a profiled
    execution is exactly reproducible from the scenario seed on any
    domain, in any schedule, and composes freely with chaos
    perturbation.

    The {!ideal} profile (all distributions zero) is observationally
    equivalent to running without any network layer: no events are
    queued, no [net.*] counters or histograms are recorded, and the
    accumulated simulated time is 0 — the analogue of perturb's
    zero-rate equivalence, tested as such.

    Installation is ambient and domain-local ({!with_net}), same idiom
    as {!Lbc_sim.Perturb.with_chaos}: the engine consults {!current};
    algorithm call sites need no new parameters. *)

(** {1 Delay distributions} *)

type dist =
  | Constant of int  (** fixed latency, ns *)
  | Uniform of { lo : int; hi : int }  (** uniform on [lo, hi], ns *)
  | Lognormal of { mu : float; sigma : float; cap : int }
      (** [exp (mu + sigma·Z)] ns, truncated to [cap] — heavy-tailed
          link behaviour; [mu]/[sigma] are in log-ns space *)

type profile = {
  pname : string;  (** canonical name; the [|net=] id segment *)
  base : dist;
      (** per-directed-link propagation delay, sampled once per link
          (round-independent) *)
  jitter : dist;  (** per-(round, link) additional delay *)
  compute : dist;  (** per-(round, sender) processing cost *)
}

val ideal : profile
(** All distributions zero — the identity network. *)

val is_ideal : profile -> bool
(** [true] iff every distribution is statically zero; such a profile is
    observationally equivalent to no network layer at all, and scenario
    ids keep their historical spelling for it. *)

val lan : profile
(** Sub-millisecond links: 50–200 µs base, up to 100 µs jitter. *)

val wan : profile
(** Inter-region links: 10–80 ms base with lognormal jitter. *)

val satellite : profile
(** Geostationary hop: 280 ms constant base, up to 30 ms jitter. *)

val heavy_tail : profile
(** Mild base (1–10 ms) with a heavy lognormal tail (σ = 2.5, capped at
    2 s) — the stress profile for tail-latency studies. *)

val names : string list
(** The named profiles accepted by {!parse}, for help text. *)

val name : profile -> string
(** Canonical name: {!parse} [ (name p) ] recovers [p]. *)

val parse : string -> (profile, string) result
(** ["ideal"], ["lan"], ["wan"], ["satellite"], ["heavy-tail"], or the
    parametric form ["const:NS"] (every link a constant [NS]
    nanoseconds). ["none"] parses to {!ideal}. *)

val pp : Format.formatter -> profile -> unit

(** {1 Decision oracle} *)

type ctx
(** A profile bound to a seed plus the running simulated clock: the
    oracle the engine consults. Mutable (clock, per-round event queue);
    confined to one domain by {!with_net}. *)

val make : profile -> seed:int -> ctx
val profile : ctx -> profile
val seed : ctx -> int

val link_latency_ns : ctx -> round:int -> sender:int -> receiver:int -> int
(** Total latency of one delivery: [compute(round, sender) + base(link)
    + jitter(round, link)], ns. Pure in the coordinates — the engine and
    the tests see the same numbers. *)

(** {1 Engine hooks}

    Called by {!Lbc_sim.Engine.run} when a context is installed. The
    queue discipline: {!begin_round} resets the round's event queue,
    each {!on_delivery} pushes one completion event (and records the
    [net.link_ns] histogram), and {!end_round} drains completions in
    simulated-time order — emitting [net.delivery] trace events when
    tracing — then advances the clock by the round's duration (the last,
    i.e. largest, completion) and records it in [net.round_ns]. A round
    with no positive-latency delivery advances the clock by 0 and
    records nothing, which is what makes {!ideal} free. *)

val begin_round : ctx -> unit
val on_delivery : ctx -> round:int -> sender:int -> receiver:int -> unit
val end_round : ctx -> round:int -> unit

(** {1 Ambient installation} *)

val with_net : profile -> seed:int -> (unit -> 'a) -> 'a * int
(** Install a context for the current domain around a thunk (restoring
    the previous one, also on exception) and return the thunk's result
    with the simulated time (ns) accumulated across every engine run in
    the extent — multi-phase algorithms sum their phases. When positive,
    the total is also recorded as the [net.sim_ns] counter. *)

val current : unit -> ctx option
(** The context installed in the current domain, if any. *)

val sim_time_s : int -> float
(** Display conversion: nanoseconds to seconds. *)
