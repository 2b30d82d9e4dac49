(** Seeded beyond-model fault injection ("chaos") for the engine.

    The paper's guarantees are proved under perfect synchronous
    local-broadcast delivery; this module perturbs exactly that layer so
    the degradation of Algorithms 1–3 can be measured when the
    {e environment} (not the adversary) misbehaves:

    - {e drop}: a broadcast copy fails to reach one hearer — deliberately
      breaking the all-or-nothing local-broadcast property;
    - {e duplication}: a hearer receives the same transmission twice;
    - {e bounded delay}: a copy is re-delivered up to [delay] rounds
      late instead of in the next round;
    - {e honest crash-restart}: an honest node goes down for
      [crash_len] rounds (missing its inbox and emitting nothing), then
      resumes with its state intact. Byzantine nodes never crash — the
      adversary keeps its full power.

    Every decision is a pure function of [(seed, round, sender,
    receiver)] via a splitmix64-style hash — no hidden RNG state — so a
    perturbed execution is exactly reproducible from the scenario seed,
    on any domain, in any schedule. The layer composes with every
    {!Lbc_adversary.Strategy}: faulty transmissions are perturbed like
    honest ones.

    Installation is ambient and domain-local (same idiom as
    {!Lbc_obs.Obs}): {!with_chaos} installs a context for the current
    domain and {!Engine.run} consults {!current} — callers of the
    algorithms need no new parameters. *)

type spec = {
  drop : float;  (** per-(round, sender, receiver) loss probability *)
  dup : float;  (** probability a delivered copy is duplicated *)
  delay : int;  (** max extra rounds a copy may be late; 0 disables *)
  delay_p : float;  (** probability a copy is delayed (by 1..[delay]) *)
  crash : float;  (** per-(round, honest node) crash probability *)
  crash_len : int;  (** rounds a crashed node stays down; min 1 *)
}

val zero : spec
(** All rates 0 — the identity perturbation. *)

val is_zero : spec -> bool

val validate : spec -> (spec, string) result
(** Check ranges: probabilities in [0,1], [delay >= 0], [crash_len >= 1].
    Returns the spec unchanged when valid. *)

val to_string : spec -> string
(** Canonical compact form, parseable back by {!parse}: non-default
    fields only, e.g. ["drop=0.1,delay=2,delay-p=0.25"]; [""] for
    {!zero}. Equal specs render equally — the form is used in scenario
    ids. *)

val parse : string -> (spec, string) result
(** Parse a comma-separated [key=value] list. Keys: [drop], [dup],
    [delay], [delay-p], [crash], [crash-len]. Unspecified keys default
    to {!zero}'s values, except that [delay-p] defaults to 1 when
    [delay] is given without it, and [crash-len] defaults to 1 when
    [crash] is given without it. [""] and ["none"] parse to {!zero}. *)

val pp : Format.formatter -> spec -> unit
(** Human rendering: {!to_string}, or ["(none)"] for {!zero}. *)

type ctx
(** A spec bound to a seed: the decision oracle the engine consults. *)

val make : spec -> seed:int -> ctx
val spec : ctx -> spec
val seed : ctx -> int

val offsets : ctx -> round:int -> sender:int -> receiver:int -> int list
(** Delivery offsets for the copies of [sender]'s round-[round]
    transmissions that reach [receiver]: [[]] means dropped; each
    element [k >= 0] schedules one copy [k] rounds later than normal
    delivery ([0] = on time, i.e. next round). Length 2 means
    duplicated. The decision is per link and round: all messages a
    sender emits in one round share their fate on a given link, which
    keeps the oracle independent of message contents. *)

val crash_now : ctx -> node:int -> round:int -> bool
(** Does honest [node] crash at the {e start} of [round]? (Sampled only
    while the node is up; the engine keeps it down for
    [crash_len] rounds.) *)

(** {1 Ambient installation} *)

val with_chaos : spec -> seed:int -> (unit -> 'a) -> 'a
(** Install a context for the current domain around a thunk (restoring
    the previous one, also on exception). A {!zero} spec still installs
    — {!Engine.run} then consults the oracle, whose decisions are all
    identity, which is what the zero-rate equivalence property tests. *)

val current : unit -> ctx option
(** The context installed in the current domain, if any. *)
