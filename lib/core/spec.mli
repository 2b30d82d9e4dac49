(** The Byzantine consensus problem specification (§3) and execution
    outcomes.

    An algorithm solves consensus in the presence of at most [f] faults
    when every execution satisfies:
    - {e Agreement}: all non-faulty nodes output the same value;
    - {e Validity}: every non-faulty output is the input of some
      non-faulty node;
    - {e Termination}: all non-faulty nodes decide in finite time (in the
      simulator: the run completes and every honest node has an
      output). *)

type outcome = {
  outputs : Bit.t option array;
      (** per-node decision; [None] for faulty nodes *)
  faulty : Lbc_graph.Nodeset.t;  (** the actual fault set of the run *)
  inputs : Bit.t array;  (** the input assignment of the run *)
  rounds : int;  (** synchronous rounds executed in total *)
  phases : int;  (** protocol phases executed (1 for single-shot) *)
  transmissions : int;  (** transmissions performed, summed over phases *)
  deliveries : int;  (** message receptions, summed over phases *)
}

val agreement : outcome -> bool
(** All honest outputs present and equal. *)

val validity : outcome -> bool
(** Every honest output equals the input of some honest node. For binary
    inputs this is: if all honest inputs are [b], every honest output is
    [b]; otherwise any output satisfies it. *)

val decision : outcome -> Bit.t option
(** The common decision when {!agreement} holds, otherwise [None]. *)

val consensus_ok : outcome -> bool
(** [agreement o && validity o]. *)
