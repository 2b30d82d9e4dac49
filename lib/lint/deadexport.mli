(** X1 — [.mli] exports never referenced outside their defining module
    (advisory: reported, never gates).

    Any other compilation unit counts as a user — same-library
    neighbours (their use {e requires} the export), executables, tests.
    Functor-argument units are exempt. *)

val run : Callgraph.t -> Rules.finding list
