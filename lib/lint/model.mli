(** M1 — local-broadcast model invariant.

    [Engine.Unicast] (a per-receiver payload: the equivocation
    primitive of the classical point-to-point model) may only be
    constructed under a path containing an [adversary] or [lowerbound]
    component. Lib scope only. *)

val run : Callgraph.t -> Rules.finding list
