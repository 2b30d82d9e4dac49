(** Feasibility-checked automatic algorithm selection: what
    [lbcast run --algo auto] runs.

    Given a graph and a fault budget, picks the cheapest applicable
    algorithm from the paper:

    - 2f-connected graph → {!Algorithm2} (O(n) rounds, Theorem 5.6);
    - otherwise, tight condition satisfied → {!Algorithm1} (exponential
      phases, Theorem 5.1);
    - condition violated → refuses, returning the witness from
      {!Lbc_graph.Conditions.lbc_explain} (running anyway is exactly what
      the Appendix A gadgets exploit).

    The paper leaves an efficient algorithm for the tight condition as
    future work, so the dispatch boundary (κ ≥ 2f vs the ⌊3f/2⌋+1 floor)
    is the paper's own efficiency frontier. *)

type choice = Efficient  (** Algorithm 2 *) | Exponential  (** Algorithm 1 *)

val pp_choice : Format.formatter -> choice -> unit

val choose : g:Lbc_graph.Graph.t -> f:int -> (choice, Lbc_graph.Conditions.verdict) result
(** Which algorithm to run, or why it refuses. *)
