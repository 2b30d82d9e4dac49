(* Retained reference implementation of the engine's delivery loop: the
   lock-step, perfect-synchrony loop that lib/sim/engine.ml ran when no
   Perturb context was installed, before the engine folded it into its
   single scheduling loop. The body of [run_plain] is kept verbatim.
   test_sim drives it in lock-step with [Engine.run] on random
   topologies, models, adversaries and network profiles and asserts the
   observable behaviour (outputs, stats, transcript, counters,
   histograms, trace events and model-violation messages) is identical.

   Fuel is the one omission: the engine's round budget is private to
   lib/sim, and the equivalence property installs none. *)

open Lbc_sim.Engine

let may_unicast model u =
  match model with
  | Local_broadcast -> false
  | Point_to_point -> true
  | Hybrid equivocators -> Lbc_graph.Nodeset.mem u equivocators

let consume_fuel (_ : int) = ()

let run_plain ~record ~net topo ~model ~rounds ~roles =
  let transmissions = ref 0 in
  let deliveries = ref 0 in
  let transcript = ref [] in
  let net_deliver ~round u v =
    match net with
    | None -> ()
    | Some nc -> Lbc_net.Net.on_delivery nc ~round ~sender:u ~receiver:v
  in
  (* inboxes.(v) accumulates (sender, msg) for the next round, in reverse
     arrival order; arrival order is (sender asc, emission order), which we
     obtain by iterating senders in ascending id order each round. *)
  let inboxes = Array.make topo.n [] in
  for round = 0 to rounds - 1 do
    consume_fuel 1;
    (match net with None -> () | Some nc -> Lbc_net.Net.begin_round nc);
    let tx0 = !transmissions and rx0 = !deliveries in
    let incoming = Array.map List.rev inboxes in
    Array.fill inboxes 0 topo.n [];
    for u = 0 to topo.n - 1 do
      let out =
        match roles.(u) with
        | Honest p -> List.map (fun m -> Broadcast m) (p.step ~round ~inbox:incoming.(u))
        | Faulty f -> f ~round ~inbox:incoming.(u)
      in
      List.iter
        (fun d ->
          incr transmissions;
          if record then transcript := (round, u, d) :: !transcript;
          match d with
          | Broadcast m ->
              List.iter
                (fun v ->
                  incr deliveries;
                  net_deliver ~round u v;
                  inboxes.(v) <- (u, m) :: inboxes.(v))
                (topo.hears u)
          | Unicast (v, m) ->
              if not (may_unicast model u) then begin
                Lbc_obs.Obs.incr "engine.reject_unicast_model";
                raise
                  (Model_violation
                     (Printf.sprintf
                        "node %d attempted unicast under a broadcast-bound \
                         model"
                        u))
              end;
              if not (topo.link u v) then begin
                Lbc_obs.Obs.incr "engine.reject_unicast_link";
                raise
                  (Model_violation
                     (Printf.sprintf "node %d unicast to non-neighbour %d" u v))
              end;
              incr deliveries;
              net_deliver ~round u v;
              inboxes.(v) <- (u, m) :: inboxes.(v))
        out
    done;
    (match net with None -> () | Some nc -> Lbc_net.Net.end_round nc ~round);
    if Lbc_obs.Obs.tracing () then
      Lbc_obs.Obs.emit
        {
          Lbc_obs.Obs.round;
          label = "engine.round";
          fields =
            [ ("tx", !transmissions - tx0); ("rx", !deliveries - rx0) ];
        }
  done;
  Lbc_obs.Obs.add "engine.rounds" rounds;
  Lbc_obs.Obs.add "engine.tx" !transmissions;
  Lbc_obs.Obs.add "engine.rx" !deliveries;
  let outputs =
    Array.map
      (function Honest p -> Some (p.output ()) | Faulty _ -> None)
      roles
  in
  {
    outputs;
    stats =
      { rounds; transmissions = !transmissions; deliveries = !deliveries };
    transcript = List.rev !transcript;
  }

let run ?(record = false) topo ~model ~rounds ~roles =
  if Array.length roles <> topo.n then
    invalid_arg "Engine.run: roles length must equal topology size";
  run_plain ~record ~net:(Lbc_net.Net.current ()) topo ~model ~rounds ~roles
