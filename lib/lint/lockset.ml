(* E3 — Eraser-style lockset analysis.

   E2 answers "is this access guarded at all"; this pass answers the
   sharper question: is there one mutex that protects EVERY
   spawn-reachable access to a shared mutable location? Two accesses
   each under a lock — but under different locks — still race, and E2
   cannot see it.

   The pass has two halves.

   {b Top-level locations} (E3a). For each definition creating
   top-level mutable state (and not [Atomic.t] — atomics carry their
   own discipline, E4's business), collect every in-function access
   from the concurrent region R (shared with E2). The lockset of an
   access is the set of mutexes lexically held at the access site,
   unioned with the locks held on every path INTO the enclosing
   definition — computed by a witness fixpoint: each R member carries
   up to a few (lockset, call chain) witnesses propagated from the
   spawn roots, and the entry lockset is the intersection over
   witnesses (a lock only counts if every path holds it). The rule
   fires once per location when the intersection of access locksets is
   empty and at least one access can mutate. DLS-guarded accesses are
   domain-local and ignored.

   {b Escaped cells} (E3b). The fuel-cell shape: a cell lives in
   domain-local storage, an accessor leaks the raw [ref] to another
   domain, and the other domain writes through the leaked handle —
   no top-level definition anywhere, invisible to E3a. The call-graph
   walk records writes through cells the writer did not create,
   tagged with provenance (bound from [Domain.DLS.get], returned by an
   internal call, or fetched from a container seen storing such
   cells). Writes are grouped by originating cell — provenance is
   unified down to the DLS key or leaking accessor — and a group fires
   when two distinct definitions in R write the same cell with no
   common mutex held AND at least one write goes through a leaked
   handle rather than [DLS.get] (two [DLS.get] writers each touch
   their own domain's cell; a leaked handle is what crosses domains).

   Both halves under-approximate through unresolved flow and say so;
   what they do report comes with the two unsynchronized paths.

   Why E2 stays beside this pass: E3 only intersects accesses made from
   inside R, so a spawn-reachable read of a ref whose only write lies
   outside R (a [configure] called before or after the domains run) is
   invisible here, while E2 reports the unguarded read
   (deep_fixtures/lib/e2_readonly.ml: E2 fires, E3 is silent). Every
   other E2 fixture co-fires with E3. The per-file D5 rule stays too: it
   is the only domain-safety rule in [dune build @lint], which runs
   without .cmt files. *)

let lib_scope file = List.mem "lib" (String.split_on_char '/' file)

(* ------------------------------------------------------------------ *)
(* Witness fixpoint: locks held on paths from spawn roots              *)
(* ------------------------------------------------------------------ *)

type witness = { w_locks : string list; w_chain : string list }

let max_witnesses = 4
let max_chain = 30

let inter a b = List.filter (fun x -> List.mem x b) a

let witnesses (g : Callgraph.t) region =
  let tbl : (string, witness list) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let offer key w =
    if List.length w.w_chain <= max_chain then begin
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      if
        List.length cur < max_witnesses
        && not (List.exists (fun w' -> w'.w_locks = w.w_locks) cur)
      then begin
        Hashtbl.replace tbl key (cur @ [ w ]);
        Queue.add key queue
      end
    end
  in
  (* Seeds: defs that spawn and the closures handed to spawn run with
     no a-priori locks; iteration order is the deterministic def
     order. *)
  List.iter
    (fun (d : Callgraph.def) ->
      if Hashtbl.mem region d.key then begin
        if d.spawns then offer d.key { w_locks = []; w_chain = [ d.key ] };
        List.iter
          (fun (u : Callgraph.use) ->
            if u.in_spawn && Hashtbl.mem region u.target then
              offer u.target { w_locks = []; w_chain = [ u.target ] })
          d.uses
      end)
    (Callgraph.defs_in_order g);
  while not (Queue.is_empty queue) do
    let key = Queue.take queue in
    match (Callgraph.find g key, Hashtbl.find_opt tbl key) with
    | Some d, Some ws ->
        List.iter
          (fun (u : Callgraph.use) ->
            if u.target <> key && Hashtbl.mem region u.target then
              List.iter
                (fun w ->
                  offer u.target
                    {
                      w_locks =
                        List.sort_uniq String.compare (w.w_locks @ u.locks);
                      w_chain = w.w_chain @ [ u.target ];
                    })
                ws)
          d.uses
    | _ -> ()
  done;
  (* R members never reached from a seed (joined via the closure-escape
     fixpoint) get the conservative empty-lockset witness. *)
  List.iter
    (fun (d : Callgraph.def) ->
      if Hashtbl.mem region d.key && not (Hashtbl.mem tbl d.key) then
        Hashtbl.replace tbl d.key [ { w_locks = []; w_chain = [ d.key ] } ])
    (Callgraph.defs_in_order g);
  tbl

(* Locks guaranteed held on entry: the intersection over witnesses. *)
let entry_locks wtbl key =
  match Hashtbl.find_opt wtbl key with
  | None | Some [] -> []
  | Some (w :: ws) ->
      List.fold_left (fun acc w -> inter acc w.w_locks) w.w_locks ws

let entry_chain wtbl key =
  match Hashtbl.find_opt wtbl key with
  | None | Some [] -> [ key ]
  | Some (w :: _) -> w.w_chain

let pp_locks = function
  | [] -> "no mutex"
  | ls -> String.concat "+" ls

(* ------------------------------------------------------------------ *)
(* E3a: top-level shared locations                                     *)
(* ------------------------------------------------------------------ *)

type access = {
  a_def : Callgraph.def;
  a_use : Callgraph.use;
  a_locks : string list;  (* use locks ∪ entry locks of the def *)
}

let can_write (u : Callgraph.use) =
  match u.kind with
  | Callgraph.Write -> true
  | Callgraph.Plain -> true  (* the ref itself escapes: assume the worst *)
  | Callgraph.Read | Callgraph.Atomic_get | Callgraph.Atomic_set
  | Callgraph.Atomic_rmw ->
      false

let top_level g region wtbl =
  (* location key -> accesses, in deterministic def order *)
  let accesses : (string, access list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (d : Callgraph.def) ->
      if Hashtbl.mem region d.key then
        List.iter
          (fun (u : Callgraph.use) ->
            match Callgraph.find g u.target with
            | Some target
              when target.mutable_top
                   && (not target.atomic_top)
                   && lib_scope target.file && u.in_function
                   && not u.dls_guarded ->
                let a =
                  {
                    a_def = d;
                    a_use = u;
                    a_locks =
                      List.sort_uniq String.compare
                        (u.locks @ entry_locks wtbl d.key);
                  }
                in
                Hashtbl.replace accesses u.target
                  (Option.value ~default:[] (Hashtbl.find_opt accesses u.target)
                  @ [ a ])
            | _ -> ())
          d.uses)
    (Callgraph.defs_in_order g);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) accesses []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (loc_key, accs) ->
         let locksets = List.map (fun a -> a.a_locks) accs in
         let common =
           match locksets with
           | [] -> []
           | l :: ls -> List.fold_left inter l ls
         in
         if common <> [] || not (List.exists (fun a -> can_write a.a_use) accs)
         then None
         else
           let target_name =
             match Callgraph.find g loc_key with
             | Some d -> d.Callgraph.name
             | None -> loc_key
           in
           (* Pick the offending pair: prefer two accesses with disjoint
              locksets where one writes; a lone access means the same
              path may run on two domains at once. *)
           let pair =
             let rec find_pair = function
               | [] -> None
               | a :: rest -> (
                   match
                     List.find_opt
                       (fun b ->
                         inter a.a_locks b.a_locks = []
                         && (can_write a.a_use || can_write b.a_use))
                       rest
                   with
                   | Some b -> Some (a, b)
                   | None -> find_pair rest)
             in
             find_pair accs
           in
           let fire a b same =
             let site = a.a_use in
             Some
               {
                 Rules.rule = Rules.E3;
                 file = a.a_def.Callgraph.file;
                 line = site.Callgraph.uline;
                 col = site.Callgraph.ucol;
                 message =
                   (if same then
                      Printf.sprintf
                        "empty lockset on %s: %s accesses it holding %s and \
                         two domains may execute this path concurrently \
                         (path: %s)"
                        target_name a.a_def.Callgraph.name
                        (pp_locks a.a_locks)
                        (Callgraph.pp_chain g
                           (entry_chain wtbl a.a_def.Callgraph.key))
                    else
                      Printf.sprintf
                        "empty lockset on %s: %s holds %s (path: %s) while \
                         %s holds %s (path: %s) — no common mutex protects \
                         the location"
                        target_name a.a_def.Callgraph.name
                        (pp_locks a.a_locks)
                        (Callgraph.pp_chain g
                           (entry_chain wtbl a.a_def.Callgraph.key))
                        b.a_def.Callgraph.name (pp_locks b.a_locks)
                        (Callgraph.pp_chain g
                           (entry_chain wtbl b.a_def.Callgraph.key)));
               }
           in
           match pair with
           | Some (a, b) -> fire a b (a.a_use == b.a_use)
           | None -> (
               match
                 List.find_opt (fun a -> can_write a.a_use) accs
               with
               | Some a -> fire a a true
               | None -> None))

(* ------------------------------------------------------------------ *)
(* E3b: escaped cells                                                  *)
(* ------------------------------------------------------------------ *)

(* Unify a provenance down to its originating definition: a DLS key, or
   the function that leaked the cell. [From_call f] folds onto f's DLS
   key when f reads one (the accessor shape); the leaker's own name is
   kept alongside for the message. *)
let unify_provenance (g : Callgraph.t) prov =
  let dls_key_of f =
    match Callgraph.find g f with
    | Some d ->
        List.find_map
          (fun (u : Callgraph.use) ->
            match Callgraph.find g u.target with
            | Some t when t.Callgraph.dls_key_top -> Some u.target
            | _ -> None)
          d.Callgraph.uses
    | None -> None
  in
  match prov with
  | Callgraph.From_dls key -> (key, None)
  | Callgraph.From_call f -> (
      match dls_key_of f with
      | Some key -> (key, Some f)
      | None -> (f, Some f))
  | Callgraph.From_lookup (_, src) -> (
      match dls_key_of src with
      | Some key -> (key, Some src)
      | None -> (src, Some src))

let escaped g region wtbl =
  (* origin -> (def, write, via-leaker option) list *)
  let groups : (string, (Callgraph.def * Callgraph.escape_write * string option) list)
      Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (d : Callgraph.def) ->
      if Hashtbl.mem region d.key && lib_scope d.file then
        List.iter
          (fun (ew : Callgraph.escape_write) ->
            if ew.ew_in_function then begin
              let origin, via = unify_provenance g ew.ew_prov in
              Hashtbl.replace groups origin
                (Option.value ~default:[] (Hashtbl.find_opt groups origin)
                @ [ (d, ew, via) ])
            end)
          d.escape_writes)
    (Callgraph.defs_in_order g);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (origin, writes) ->
         let leaked w =
           match w with
           | _, _, Some _ -> true
           | _, { Callgraph.ew_prov = Callgraph.From_dls _; _ }, None -> false
           | _ -> true
         in
         let defs =
           List.sort_uniq String.compare
             (List.map (fun ((d : Callgraph.def), _, _) -> d.key) writes)
         in
         let common =
           match writes with
           | [] -> []
           | (_, w, _) :: rest ->
               List.fold_left
                 (fun acc (_, w, _) -> inter acc w.Callgraph.ew_locks)
                 w.Callgraph.ew_locks rest
         in
         if
           List.length defs < 2
           || common <> []
           || not (List.exists leaked writes)
         then None
         else
           let origin_name =
             match Callgraph.find g origin with
             | Some d -> d.Callgraph.name
             | None -> origin
           in
           let leakers =
             List.sort_uniq String.compare
               (List.filter_map (fun (_, _, via) -> via) writes)
           in
           let leaker_names =
             List.map
               (fun k ->
                 match Callgraph.find g k with
                 | Some d -> d.Callgraph.name
                 | None -> k)
               leakers
           in
           let (wd, ww, _) =
             match List.find_opt leaked writes with
             | Some w -> w
             | None -> List.hd writes
           in
           let (od, ow, _) =
             match
               List.find_opt
                 (fun ((d : Callgraph.def), _, _) ->
                   d.key <> wd.Callgraph.key)
                 writes
             with
             | Some w -> w
             | None -> List.hd writes
           in
           Some
             {
               Rules.rule = Rules.E3;
               file = wd.Callgraph.file;
               line = ww.Callgraph.ew_line;
               col = ww.Callgraph.ew_col;
               message =
                 Printf.sprintf
                   "escaped mutable cell from %s%s is written cross-domain \
                    with no common mutex: %s writes it at line %d holding %s \
                    (path: %s) while %s writes it at line %d holding %s \
                    (path: %s); use Atomic.t for the cell"
                   origin_name
                   (match leaker_names with
                   | [] -> ""
                   | ns -> " (leaked via " ^ String.concat ", " ns ^ ")")
                   wd.Callgraph.name ww.Callgraph.ew_line
                   (pp_locks ww.Callgraph.ew_locks)
                   (Callgraph.pp_chain g (entry_chain wtbl wd.Callgraph.key))
                   od.Callgraph.name ow.Callgraph.ew_line
                   (pp_locks ow.Callgraph.ew_locks)
                   (Callgraph.pp_chain g (entry_chain wtbl od.Callgraph.key));
             })

let run (g : Callgraph.t) =
  let region = Domsafe.concurrent_region g in
  let wtbl = witnesses g region in
  top_level g region wtbl @ escaped g region wtbl
