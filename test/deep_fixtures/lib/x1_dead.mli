(* X1 fixture: [used] is used from lbc_deepfix_user, [dead] nowhere, [chained]
   via an alias of an alias, [via_let_module] via a [let module] alias. *)
val used : int
val dead : int
val chained : int -> int
val via_let_module : int
