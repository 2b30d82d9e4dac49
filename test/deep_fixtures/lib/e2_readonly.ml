(* E2 without E3: a spawn-reachable read of a top-level ref whose only
   write ([configure]) lies outside the spawned region. *)
let limit = ref 10
let peek () = !limit
let launch () = Domain.join (Domain.spawn (fun () -> peek ()))
let configure n = limit := n
