(* X1 fixture: [used] is referenced from the lbc_deepfix_user library,
   [dead] from nowhere, [chained] only through an alias of an alias. *)
val used : int
val dead : int
val chained : int -> int
