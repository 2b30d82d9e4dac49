type node_id = int

type topology = {
  n : int;
  hears : node_id -> node_id list;
  link : node_id -> node_id -> bool;
}

let topology_of_graph g =
  let n = Lbc_graph.Graph.size g in
  let tbl = Array.init n (fun u -> Lbc_graph.Graph.neighbor_list g u) in
  {
    n;
    hears = (fun u -> tbl.(u));
    link = (fun u v -> Lbc_graph.Graph.mem_edge g u v);
  }

let topology_directed ~n ~out =
  let tbl = Array.init n (fun u -> List.sort_uniq Int.compare (out u)) in
  let sets = Array.map Lbc_graph.Nodeset.of_list tbl in
  {
    n;
    hears = (fun u -> tbl.(u));
    link = (fun u v -> Lbc_graph.Nodeset.mem v sets.(u));
  }

type model =
  | Local_broadcast
  | Point_to_point
  | Hybrid of Lbc_graph.Nodeset.t

type 'msg delivery = Broadcast of 'msg | Unicast of node_id * 'msg

exception Model_violation of string

type ('msg, 'out) proc = {
  step : round:int -> inbox:(node_id * 'msg) list -> 'msg list;
  output : unit -> 'out;
}

type 'msg fstep = round:int -> inbox:(node_id * 'msg) list -> 'msg delivery list
type ('msg, 'out) role = Honest of ('msg, 'out) proc | Faulty of 'msg fstep

type stats = { rounds : int; transmissions : int; deliveries : int }

type ('msg, 'out) result = {
  outputs : 'out option array;
  stats : stats;
  transcript : (int * node_id * 'msg delivery) list;
}

let may_unicast model u =
  match model with
  | Local_broadcast -> false
  | Point_to_point -> true
  | Hybrid equivocators -> Lbc_graph.Nodeset.mem u equivocators

(* ------------------------------------------------------------------ *)
(* Fuel: a domain-local round budget shared by every engine run in a   *)
(* dynamic extent, so a livelocked (or merely huge) execution raises   *)
(* instead of hanging its domain. The cell is an Atomic.t because the  *)
(* handle escapes through [current_fuel_cell] to the campaign watchdog,*)
(* which zeroes it from ANOTHER domain — a plain ref write would not   *)
(* be guaranteed to become visible to the worker under the OCaml 5     *)
(* memory model.                                                       *)
(* ------------------------------------------------------------------ *)

exception Fuel_exhausted of { budget : int }

let fuel_key : (int * int Atomic.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_fuel ~budget f =
  let prev = Domain.DLS.get fuel_key in
  Domain.DLS.set fuel_key (Some (budget, Atomic.make budget));
  Fun.protect ~finally:(fun () -> Domain.DLS.set fuel_key prev) f

let check_fuel () =
  match Domain.DLS.get fuel_key with
  | Some (budget, r) when Atomic.get r <= 0 -> raise (Fuel_exhausted { budget })
  | Some _ | None -> ()

let consume_fuel n =
  match Domain.DLS.get fuel_key with
  | None -> ()
  | Some (budget, r) ->
      let old = Atomic.fetch_and_add r (-n) in
      if old - n < 0 then raise (Fuel_exhausted { budget })

let current_fuel_cell () =
  match Domain.DLS.get fuel_key with
  | None -> None
  | Some (_, r) -> Some r

(* ------------------------------------------------------------------ *)
(* The round loop                                                       *)
(* ------------------------------------------------------------------ *)

(* Deliveries are scheduled into a ring of future inboxes: a copy with
   offset [k] lands [1 + k] rounds ahead. Only copies that some later
   round consumes are stored, so [1 + k <= min (delay + 1) (rounds - 1)
   < horizon] and a scheduled slot is never the one being consumed; the
   ring is bounded by the run, not by the spec's delay. Per-receiver
   buckets accumulate in scheduling order (round asc, then sender asc,
   then emission order), which keeps the inbox order — and therefore the
   whole execution — deterministic. Without a Perturb context every
   offset is 0 and the ring is the lock-step next-round inbox. *)
let run ?(record = false) topo ~model ~rounds ~roles =
  if Array.length roles <> topo.n then
    invalid_arg "Engine.run: roles length must equal topology size";
  let net = Lbc_net.Net.current () in
  let chaos = Perturb.current () in
  let spec = match chaos with None -> Perturb.zero | Some c -> Perturb.spec c in
  let horizon = min spec.Perturb.delay (max rounds 0) + 2 in
  let future = Array.init horizon (fun _ -> Array.make topo.n []) in
  (* crashed_until.(u) = last round of u's current down window; honest
     nodes only. While down a node is not stepped, receives nothing and
     emits nothing; it restarts with its closure state intact. *)
  let crashed_until = Array.make topo.n (-1) in
  let transmissions = ref 0 in
  let deliveries = ref 0 in
  let transcript = ref [] in
  (* A copy counts as a delivery, and is charged its link latency at the
     send round, even when no later round consumes it: final-round
     transmissions, and perturb-delayed copies past the last round. *)
  let schedule ~round u v m k =
    incr deliveries;
    (match net with
    | None -> ()
    | Some nc -> Lbc_net.Net.on_delivery nc ~round ~sender:u ~receiver:v);
    if k < rounds - round - 1 then begin
      let slot = (round + 1 + k) mod horizon in
      future.(slot).(v) <- (u, m) :: future.(slot).(v)
    end
    else if k > 0 then Lbc_obs.Obs.incr "perturb.expired"
  in
  for round = 0 to rounds - 1 do
    consume_fuel 1;
    (match net with None -> () | Some nc -> Lbc_net.Net.begin_round nc);
    let tx0 = !transmissions and rx0 = !deliveries in
    let slot = round mod horizon in
    let incoming = Array.map List.rev future.(slot) in
    Array.fill future.(slot) 0 topo.n [];
    (match chaos with
    | Some ctx when spec.Perturb.crash > 0.0 ->
        for u = 0 to topo.n - 1 do
          match roles.(u) with
          | Honest _ ->
              if crashed_until.(u) < round && Perturb.crash_now ctx ~node:u ~round
              then begin
                crashed_until.(u) <- round + spec.Perturb.crash_len - 1;
                Lbc_obs.Obs.incr "perturb.crashes"
              end
          | Faulty _ -> ()
        done
    | Some _ | None -> ());
    for u = 0 to topo.n - 1 do
      if crashed_until.(u) >= round then
        (* Down: the inbox for this round is lost, nothing is emitted. *)
        Lbc_obs.Obs.incr "perturb.crash_rounds"
      else begin
        let out =
          match roles.(u) with
          | Honest p ->
              List.map (fun m -> Broadcast m) (p.step ~round ~inbox:incoming.(u))
          | Faulty f -> f ~round ~inbox:incoming.(u)
        in
        let deliver v m =
          match chaos with
          | None -> schedule ~round u v m 0
          | Some ctx -> (
              match Perturb.offsets ctx ~round ~sender:u ~receiver:v with
              | [] -> Lbc_obs.Obs.incr "perturb.dropped"
              | offs ->
                  List.iteri
                    (fun i k ->
                      if i > 0 then Lbc_obs.Obs.incr "perturb.duplicated";
                      if k > 0 then Lbc_obs.Obs.incr "perturb.delayed";
                      schedule ~round u v m k)
                    offs)
        in
        List.iter
          (fun d ->
            incr transmissions;
            if record then transcript := (round, u, d) :: !transcript;
            match d with
            | Broadcast m -> List.iter (fun v -> deliver v m) (topo.hears u)
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
                       (Printf.sprintf "node %d unicast to non-neighbour %d" u
                          v))
                end;
                deliver v m)
          out
      end
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
