type severity = Error | Warning

type rule =
  | D1 (* wall-clock primitives *)
  | D2 (* unordered Hashtbl traversal *)
  | D3 (* ambient Random state *)
  | D4 (* polymorphic comparison in lib/ *)
  | D5 (* top-level mutable state in lib/ *)
  | D6 (* catch-all exception handler *)
  | E1 (* deep: nondeterminism reaching verdict/artifact/fingerprint *)
  | E2 (* deep: unguarded cross-domain mutable state *)
  | E3 (* deep: empty lockset on a domain-shared mutable location *)
  | E4 (* deep: check-then-act atomicity violation *)
  | M1 (* deep: per-receiver payload outside the sanctioned modules *)
  | X1 (* deep: .mli export never referenced outside its library *)
  | Badsup (* malformed suppression directive *)
  | Parse (* file failed to parse *)

let all = [ D1; D2; D3; D4; D5; D6 ]
let deep = [ E1; E2; E3; E4; M1; X1 ]

let id = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | D5 -> "D5"
  | D6 -> "D6"
  | E1 -> "E1"
  | E2 -> "E2"
  | E3 -> "E3"
  | E4 -> "E4"
  | M1 -> "M1"
  | X1 -> "X1"
  | Badsup -> "SUP"
  | Parse -> "PARSE"

let of_id = function
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "D3" -> Some D3
  | "D4" -> Some D4
  | "D5" -> Some D5
  | "D6" -> Some D6
  | "E1" -> Some E1
  | "E2" -> Some E2
  | "E3" -> Some E3
  | "E4" -> Some E4
  | "M1" -> Some M1
  | "X1" -> Some X1
  | _ -> None (* SUP and PARSE are synthetic: not suppressible by name *)

let severity = function
  | D1 | D2 | D3 | D6 | E1 | E2 | E3 | E4 | M1 | Badsup | Parse -> Error
  | D4 | D5 | X1 -> Warning

let severity_string = function Error -> "error" | Warning -> "warning"

(* X1 is advisory: an export that nothing outside its library references
   is a candidate for narrowing the .mli, not a correctness defect, so
   it is reported without failing the gate. Every other rule gates. *)
let gating = function X1 -> false | _ -> true

(* D1/D3/D6 violate the determinism contract outright and are cheap to
   fix at the point of introduction; grandfathering them would let the
   byte-identity guarantee rot. D2/D4/D5 have pre-existing, individually
   justified sites, so they may ride in the checked-in baseline. The
   deep rules (E1-E4/M1/X1) are whole-program approximations, so a
   finding may legitimately outlive one PR while the flow it names is
   restructured — they are baselinable, though the repo's own baseline
   stays empty. *)
let baselinable = function
  | D2 | D4 | D5 | E1 | E2 | E3 | E4 | M1 | X1 -> true
  | D1 | D3 | D6 | Badsup | Parse -> false

let describe = function
  | D1 ->
      "wall-clock primitive (Unix.gettimeofday/Sys.time/Unix.time); use \
       the monotonic Lbc_campaign.Clock.now_s"
  | D2 ->
      "Hashtbl.iter/fold order is unspecified; pipe the fold into a \
       deterministic sort or suppress with a reason"
  | D3 ->
      "ambient Random state; thread RNG through the seeded \
       splitmix64/FNV paths (Random.State with an explicit seed is \
       allowed)"
  | D4 ->
      "polymorphic compare/=/Hashtbl.hash in lib/; use a monomorphic \
       comparator (Int.compare, String.compare, Lbc_sim.Det)"
  | D5 ->
      "top-level mutable state (ref/Hashtbl/Buffer/Queue/Stack) in a \
       module reachable from pool workers; guard with Mutex/Domain.DLS \
       or move it into the computation"
  | D6 ->
      "try ... with _ -> swallows every exception (including \
       Stack_overflow and the containment layer's signals); match the \
       specific exceptions instead"
  | E1 ->
      "whole-program taint: a verdict/artifact/fingerprint path \
       transitively reaches a nondeterministic primitive (wall clock, \
       ambient Random, unordered Hashtbl traversal) through the call \
       graph"
  | E2 ->
      "whole-program domain safety: top-level mutable state is \
       referenced from code reachable from Domain.spawn without a \
       dominating Mutex.protect/Domain.DLS guard"
  | E3 ->
      "lockset analysis: a domain-shared mutable location is accessed \
       along two spawn-reachable paths whose held-mutex sets have empty \
       intersection and the location is not Atomic.t/DLS — a data race \
       under the OCaml 5 memory model"
  | E4 ->
      "atomicity: check-then-act on shared state — a guarded read whose \
       lock is released before the dependent write, or Atomic.get \
       followed by Atomic.set where compare_and_set/fetch_and_add is \
       required"
  | M1 ->
      "local-broadcast model invariant: only lib/adversary and \
       lib/lowerbound may construct per-receiver payloads \
       (Engine.Unicast); honest algorithm code is broadcast-bound"
  | X1 ->
      ".mli export never referenced outside its library; narrow the \
       interface or delete the dead code (advisory: does not gate)"
  | Badsup -> "suppression directive without a reason"
  | Parse -> "file failed to parse"

type finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

let rule_order r =
  match r with
  | D1 -> 1
  | D2 -> 2
  | D3 -> 3
  | D4 -> 4
  | D5 -> 5
  | D6 -> 6
  | E1 -> 7
  | E2 -> 8
  | E3 -> 9
  | E4 -> 10
  | M1 -> 11
  | X1 -> 12
  | Badsup -> 13
  | Parse -> 0

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Int.compare (rule_order a.rule) (rule_order b.rule) in
        if c <> 0 then c else String.compare a.message b.message
