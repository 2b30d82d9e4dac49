let refers_to_used = Lbc_deepfix.X1_dead.used + 1

(* [chained] is reached only through [X1], an alias of the alias
   [Deepfix]. *)
module Deepfix = Lbc_deepfix
module X1 = Deepfix.X1_dead

let refers_to_chained = X1.chained 1

(* [via_let_module] is reached only through a local module alias. *)
let refers_via_let_module () =
  let module M = Lbc_deepfix.X1_dead in
  M.via_let_module
