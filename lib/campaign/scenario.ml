module G = Lbc_graph.Graph
module Nodeset = Lbc_graph.Nodeset
module Bit = Lbc_consensus.Bit
module Spec = Lbc_consensus.Spec
module S = Lbc_adversary.Strategy
module Engine = Lbc_sim.Engine
module Perturb = Lbc_sim.Perturb
module Net = Lbc_net.Net

type algo = A1 | A2 | A3 of int | Relay | Eig

let algo_name = function
  | A1 -> "a1"
  | A2 -> "a2"
  | A3 _ -> "a3"
  | Relay -> "relay"
  | Eig -> "eig"

let algo_of_name ~t = function
  | "a1" -> Ok A1
  | "a2" -> Ok A2
  | "a3" -> Ok (A3 t)
  | "relay" -> Ok Relay
  | "eig" -> Ok Eig
  | other -> Error ("unknown algorithm " ^ other ^ " (a1, a2, a3, eig, relay)")

type t = {
  gname : string;
  build : unit -> G.t;
  algo : algo;
  f : int;
  faulty : Nodeset.t;
  equivocators : Nodeset.t;
  strategy : S.kind;
  per_node : (int * S.kind) list;
  inputs : Bit.t array;
  chaos : Perturb.spec option;
  net : Net.profile option;
}

(* Sorted by node; an assignment giving every faulty node one kind
   collapses to the uniform [strategy] spelling, and a mixed one keeps
   [strategy] as its lowest node's kind. *)
let normalise s =
  let by_node (u, _) (v, _) = Int.compare u v in
  match List.stable_sort by_node s.per_node with
  | [] -> s
  | (_, k) :: _ as sorted ->
      if
        List.for_all
          (fun (_, k') -> String.equal (S.to_string k) (S.to_string k'))
          sorted
        && List.equal Int.equal (List.map fst sorted)
             (Nodeset.elements s.faulty)
      then { s with strategy = k; per_node = [] }
      else { s with strategy = k; per_node = sorted }

let make ~gname ~build ~algo ~f ~faulty ?(equivocators = Nodeset.empty)
    ~strategy ?(per_node = []) ~inputs ?chaos ?net () =
  let s =
    { gname; build; algo; f; faulty; equivocators; strategy; per_node; inputs;
      chaos; net }
  in
  match per_node with [] -> s | _ -> normalise s

let node_strategy s =
  match s.per_node with
  | [] -> fun _ -> s.strategy
  | l -> fun v -> Option.value ~default:s.strategy (List.assoc_opt v l)

(* The adversary's spelling: [pp] of the uniform kind, or per node
   [V:KIND/...] in ids ([S.pp_kind]) and [V=KIND/...] after [-s]
   ([S.to_string]). Neither separator occurs in a kind's spelling, and
   neither needs shell quoting. *)
let spell ~sep pp s =
  match s.per_node with
  | [] -> pp s.strategy
  | l ->
      String.concat "/"
        (List.map (fun (v, k) -> Printf.sprintf "%d%c%s" v sep (pp k)) l)

let strategy_label s =
  spell ~sep:':' (fun k -> Format.asprintf "%a" S.pp_kind k) s

let strategy_of_string str =
  let item part =
    match String.split_on_char '=' part with
    | [ v; k ] -> (
        match int_of_string_opt v with
        | Some v when v >= 0 -> Result.map (fun k -> (v, k)) (S.of_string k)
        | _ -> Error (Printf.sprintf "%s: bad node id %S" str v))
    | _ -> Error (Printf.sprintf "%s: %S is not NODE=STRATEGY" str part)
  in
  let rec items acc = function
    | [] ->
        let l = List.rev acc in
        Ok (snd (List.hd l), l)
    | part :: rest -> Result.bind (item part) (fun x -> items (x :: acc) rest)
  in
  if String.contains str '=' then items [] (String.split_on_char '/' str)
  else Result.map (fun k -> (k, [])) (S.of_string str)

let ids_string s = if Nodeset.is_empty s then "-" else Nodeset.to_csv s

let chaos_string = function
  | None -> "none"
  | Some spec ->
      let str = Perturb.to_string spec in
      if str = "" then "none" else str

let id s =
  let t_part = match s.algo with A3 t -> Printf.sprintf "|t=%d" t | _ -> "" in
  let eq_part =
    if Nodeset.is_empty s.equivocators then ""
    else Printf.sprintf "|eq=%s" (ids_string s.equivocators)
  in
  let chaos_part =
    (* [None] keeps the pre-chaos id spelling, so fingerprints of
       existing grids (and their checkpoints) are unchanged. *)
    match s.chaos with
    | None -> ""
    | Some _ -> Printf.sprintf "|chaos=%s" (chaos_string s.chaos)
  in
  let net_part =
    (* [None] keeps the pre-net spelling; so does the ideal profile,
       which is observationally equivalent to no network layer — the
       equivalence the net test suite checks byte-for-byte. *)
    match s.net with
    | Some p when not (Net.is_ideal p) ->
        Printf.sprintf "|net=%s" (Net.name p)
    | Some _ | None -> ""
  in
  Printf.sprintf "%s|%s|f=%d%s|faulty=%s%s|s=%s|in=%s%s%s" (algo_name s.algo)
    s.gname s.f t_part (ids_string s.faulty) eq_part (strategy_label s)
    (Bit.array_to_string s.inputs) chaos_part net_part

(* FNV-1a over the id string: a deterministic, platform-stable hash (we
   avoid [Hashtbl.hash], whose value is not documented to be stable). *)
let scenario_seed ~base s =
  (Lbc_store.Store.fnv1a (id s) lxor (base * 0x9e3779b9)) land max_int

type status =
  | Checked
  | Timed_out of { budget : int }
  | Crashed of { exn : string; backtrace : string; repro : string }

type verdict = {
  index : int;
  id : string;
  status : status;
  ok : bool;
  agreement : bool;
  validity : bool;
  termination : bool;
  decision : Bit.t option;
  expected : Bit.t option;
  rounds : int;
  phases : int;
  transmissions : int;
  deliveries : int;
  sim_ns : int;
  counterexample : string option;
}

let validate s g =
  let n = G.size g in
  let bad fmt =
    Printf.ksprintf (fun m -> invalid_arg ("scenario " ^ id s ^ ": " ^ m)) fmt
  in
  if Array.length s.inputs <> n then
    bad "%d inputs for a %d-node graph" (Array.length s.inputs) n;
  let outside = Nodeset.filter (fun v -> v >= n) s.faulty in
  if not (Nodeset.is_empty outside) then
    bad "faulty nodes %s are not in the %d-node graph"
      (Nodeset.to_string outside) n;
  if not (Nodeset.subset s.equivocators s.faulty) then
    bad "equivocators %s are not all faulty"
      (Nodeset.to_string (Nodeset.diff s.equivocators s.faulty));
  match s.per_node with
  | [] -> ()
  | l ->
      let named = List.map fst l in
      if not (List.equal Int.equal named (Nodeset.elements s.faulty)) then
        bad "per-node strategies name nodes %s, not the faulty set %s"
          (String.concat "," (List.map string_of_int named))
          (Nodeset.to_string s.faulty);
      if s.algo = Eig then bad "eig takes one strategy for every faulty node"

let run_unfueled s ~seed =
  let g = s.build () in
  let n = G.size g in
  validate s g;
  let strategy = node_strategy s in
  let go () =
    match s.algo with
  | A1 ->
      Lbc_consensus.Algorithm1.run ~g ~f:s.f ~inputs:s.inputs
        ~faulty:s.faulty ~strategy ~seed ()
  | A2 ->
      Lbc_consensus.Algorithm2.run ~g ~f:s.f ~inputs:s.inputs
        ~faulty:s.faulty ~strategy ~seed ()
  | A3 t ->
      Lbc_consensus.Algorithm3.run ~g ~f:s.f ~t ~inputs:s.inputs
        ~faulty:s.faulty ~equivocators:s.equivocators ~strategy ~seed ()
  | Relay ->
      Lbc_consensus.Baseline_relay.run ~g ~f:s.f ~inputs:s.inputs
        ~faulty:s.faulty ~strategy ~seed ()
  | Eig ->
      let attack =
        match s.strategy with
        | S.Silent | S.Crash_at _ -> Lbc_consensus.Baseline_eig.Silent
        | S.Equivocate -> Lbc_consensus.Baseline_eig.Equivocate seed
        | _ -> Lbc_consensus.Baseline_eig.Lie
      in
      Lbc_consensus.Baseline_eig.run ~n ~f:s.f ~inputs:s.inputs
        ~faulty:s.faulty ~attack ~seed ()
  in
  let perturbed () =
    match s.chaos with
    | None -> go ()
    | Some spec -> Perturb.with_chaos spec ~seed go
  in
  match s.net with
  | None -> (perturbed (), 0)
  | Some p -> Net.with_net p ~seed perturbed

let run ?max_rounds s ~seed =
  match max_rounds with
  | None -> run_unfueled s ~seed
  | Some budget -> Engine.with_fuel ~budget (fun () -> run_unfueled s ~seed)

let unanimous_honest s =
  let honest = ref [] in
  Array.iteri
    (fun v b -> if not (Nodeset.mem v s.faulty) then honest := b :: !honest)
    s.inputs;
  match !honest with
  | [] -> None
  | b :: rest -> if List.for_all (Bit.equal b) rest then Some b else None

let repro_command s ~seed =
  let parts =
    [
      "lbcast run";
      Printf.sprintf "-g %s" s.gname;
      Printf.sprintf "--algo %s" (algo_name s.algo);
      Printf.sprintf "-f %d" s.f;
      (match s.algo with A3 t -> Printf.sprintf "-t %d" t | _ -> "");
      (if Nodeset.is_empty s.faulty then ""
       else Printf.sprintf "--faulty %s" (ids_string s.faulty));
      (if Nodeset.is_empty s.equivocators then ""
       else Printf.sprintf "--equivocators %s" (ids_string s.equivocators));
      Printf.sprintf "-s %s" (spell ~sep:'=' S.to_string s);
      Printf.sprintf "-i %s" (Bit.array_to_string s.inputs);
      (match s.chaos with
      | None -> ""
      | Some _ -> Printf.sprintf "--chaos %s" (chaos_string s.chaos));
      (match s.net with
      | Some p when not (Net.is_ideal p) ->
          Printf.sprintf "--net %s" (Net.name p)
      | Some _ | None -> "");
      Printf.sprintf "--seed %d" seed;
    ]
  in
  String.concat " " (List.filter (( <> ) "") parts)

let execute_strict ?(base_seed = 0) ?max_rounds ~index s =
  let seed = scenario_seed ~base:base_seed s in
  let o, sim_ns = run ?max_rounds s ~seed in
  let agreement = Spec.agreement o in
  let validity = Spec.validity o in
  let termination =
    (* [o.outputs] marks faulty nodes [None] by construction; termination
       asks whether every honest slot decided. *)
    let all = ref true in
    Array.iteri
      (fun v out ->
        if (not (Nodeset.mem v o.Spec.faulty)) && out = None then all := false)
      o.Spec.outputs;
    !all
  in
  let decision = Spec.decision o in
  let expected = unanimous_honest s in
  let ok =
    agreement && validity && termination
    &&
    match expected with
    | None -> true
    | Some b -> ( match decision with Some d -> Bit.equal d b | None -> false)
  in
  let counterexample =
    if ok then None
    else
      Some
        (Printf.sprintf "outputs=[%s] reproduce: %s"
           (String.concat ";"
              (Array.to_list
                 (Array.mapi
                    (fun v out ->
                      match out with
                      | Some b -> Printf.sprintf "%d:%s" v (Bit.to_string b)
                      | None -> Printf.sprintf "%d:faulty" v)
                    o.Spec.outputs)))
           (repro_command s ~seed))
  in
  {
    index;
    id = id s;
    status = Checked;
    ok;
    agreement;
    validity;
    termination;
    decision;
    expected;
    rounds = o.Spec.rounds;
    phases = o.Spec.phases;
    transmissions = o.Spec.transmissions;
    deliveries = o.Spec.deliveries;
    sim_ns;
    counterexample;
  }

let failed_verdict ~index s status =
  {
    index;
    id = id s;
    status;
    ok = false;
    agreement = false;
    validity = false;
    termination = false;
    decision = None;
    expected = unanimous_honest s;
    rounds = 0;
    phases = 0;
    transmissions = 0;
    deliveries = 0;
    sim_ns = 0;
    counterexample = None;
  }

let crashed_verdict ~index ~id ~repro ~message =
  {
    index;
    id;
    status =
      Crashed
        {
          exn = message;
          (* Runner-level crash records carry no backtrace: the frames
             would reflect the worker's call stack (1-domain vs N-domain
             differ), and this verdict lives in the deterministic portion
             of the artifact. *)
          backtrace = "";
          repro;
        };
    ok = false;
    agreement = false;
    validity = false;
    termination = false;
    decision = None;
    expected = None;
    rounds = 0;
    phases = 0;
    transmissions = 0;
    deliveries = 0;
    sim_ns = 0;
    counterexample = None;
  }

let execute ?(base_seed = 0) ?max_rounds ~index s =
  (* Backtrace recording is per-domain runtime state and is off in
     freshly spawned domains, so without forcing it on here a crashed
     verdict's backtrace would depend on which domain (and which
     embedding program) happened to run the shard. Force it on for the
     duration, restoring the caller's setting on the way out. *)
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev)
  @@ fun () ->
  try execute_strict ~base_seed ?max_rounds ~index s with
  | Engine.Fuel_exhausted { budget } ->
      failed_verdict ~index s (Timed_out { budget })
  | exn ->
      (* Capture the backtrace before anything else can raise. It names
         source lines, so it stays out of the artifact's deterministic
         portion: an edit anywhere on the crash path would otherwise
         change the campaign fingerprint. *)
      let backtrace =
        Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
      in
      let seed = scenario_seed ~base:base_seed s in
      failed_verdict ~index s
        (Crashed
           {
             exn = Printexc.to_string exn;
             backtrace;
             repro = repro_command s ~seed;
           })

(* Counter lists are sorted before merging; key then value, the same
   order the polymorphic compare gave on (string * int) pairs, so the
   artifact byte layout is unchanged. *)
let compare_counter (a, x) (b, y) =
  match String.compare a b with 0 -> Int.compare x y | c -> c

let execute_observed ?base_seed ?max_rounds ~index s =
  let v, report =
    Lbc_obs.Obs.record (fun () -> execute ?base_seed ?max_rounds ~index s)
  in
  (* Verdict-level tallies join the instrumentation counters so the
     per-algo aggregates carry round/phase/message sums even for
     uninstrumented baselines. *)
  let verdict_counters =
    List.sort compare_counter
      ([
         ("verdict.ok", if v.ok then 1 else 0);
         ("verdict.violations", if v.ok then 0 else 1);
         ("verdict.rounds", v.rounds);
         ("verdict.phases", v.phases);
         ("verdict.tx", v.transmissions);
         ("verdict.rx", v.deliveries);
       ]
      @
      match v.status with
      | Checked -> []
      | Timed_out _ -> [ ("verdict.timeouts", 1) ]
      | Crashed _ -> [ ("verdict.crashed", 1) ])
  in
  let counters =
    Lbc_obs.Obs.merge_counters report.Lbc_obs.Obs.counters
      (Lbc_obs.Obs.merge_counters
         (List.sort compare_counter
            (Lbc_obs.Obs.flatten_stats report.Lbc_obs.Obs.stats))
         verdict_counters)
  in
  (v, counters)

(* ------------------------------------------------------------------ *)
(* Verdict serialization                                               *)
(* ------------------------------------------------------------------ *)

let bit_opt_json = function
  | None -> Jsonio.Null
  | Some b -> Jsonio.Int (Bit.to_int b)

let status_fields ~backtrace = function
  | Checked -> []
  | Timed_out { budget } ->
      [ ("status", Jsonio.Str "timeout"); ("budget", Jsonio.Int budget) ]
  | Crashed { exn; backtrace = bt; repro } ->
      (("status", Jsonio.Str "crashed") :: ("exn", Jsonio.Str exn)
       :: (if backtrace then [ ("backtrace", Jsonio.Str bt) ] else []))
      @ [ ("repro", Jsonio.Str repro) ]

let verdict_to_json ?(backtrace = true) v =
  let base =
    [
      ("i", Jsonio.Int v.index);
      ("id", Jsonio.Str v.id);
      ("ok", Jsonio.Bool v.ok);
      ("agreement", Jsonio.Bool v.agreement);
      ("validity", Jsonio.Bool v.validity);
      ("termination", Jsonio.Bool v.termination);
      ("decision", bit_opt_json v.decision);
      ("expected", bit_opt_json v.expected);
      ("rounds", Jsonio.Int v.rounds);
      ("phases", Jsonio.Int v.phases);
      ("tx", Jsonio.Int v.transmissions);
      ("rx", Jsonio.Int v.deliveries);
      ("sim_ns", Jsonio.Int v.sim_ns);
    ]
  in
  let cx =
    match v.counterexample with
    | None -> []
    | Some s -> [ ("counterexample", Jsonio.Str s) ]
  in
  Jsonio.Obj (base @ status_fields ~backtrace v.status @ cx)

let verdict_of_json j =
  let ( let* ) = Option.bind in
  let field k conv = let* x = Jsonio.member k j in conv x in
  let bit_opt k =
    match Jsonio.member k j with
    | Some Jsonio.Null | None -> Some None
    | Some (Jsonio.Int i) -> (
        try Some (Some (Bit.of_int i)) with Invalid_argument _ -> None)
    | Some _ -> None
  in
  let status =
    let str k = Option.bind (Jsonio.member k j) Jsonio.to_str in
    let getstr k = Option.value ~default:"" (str k) in
    match str "status" with
    | None -> Some Checked
    | Some "timeout" ->
        Option.map
          (fun budget -> Timed_out { budget })
          (Option.bind (Jsonio.member "budget" j) Jsonio.to_int)
    | Some "crashed" ->
        Some
          (Crashed
             {
               exn = getstr "exn";
               backtrace = getstr "backtrace";
               repro = getstr "repro";
             })
    | Some _ -> None
  in
  let v =
    let* status = status in
    let* index = field "i" Jsonio.to_int in
    let* id = field "id" Jsonio.to_str in
    let* ok = field "ok" Jsonio.to_bool in
    let* agreement = field "agreement" Jsonio.to_bool in
    let* validity = field "validity" Jsonio.to_bool in
    let* termination = field "termination" Jsonio.to_bool in
    let* decision = bit_opt "decision" in
    let* expected = bit_opt "expected" in
    let* rounds = field "rounds" Jsonio.to_int in
    let* phases = field "phases" Jsonio.to_int in
    let* transmissions = field "tx" Jsonio.to_int in
    let* deliveries = field "rx" Jsonio.to_int in
    let sim_ns =
      (* Absent in pre-v4 verdicts; default keeps old fixtures parseable
         in unit tests even though the artifact loader rejects them. *)
      Option.value ~default:0
        (Option.bind (Jsonio.member "sim_ns" j) Jsonio.to_int)
    in
    let counterexample =
      Option.bind (Jsonio.member "counterexample" j) Jsonio.to_str
    in
    Some
      {
        index;
        id;
        status;
        ok;
        agreement;
        validity;
        termination;
        decision;
        expected;
        rounds;
        phases;
        transmissions;
        deliveries;
        sim_ns;
        counterexample;
      }
  in
  match v with Some v -> Ok v | None -> Error "malformed verdict"

let pp_verdict fmt v =
  match v.status with
  | Checked ->
      Format.fprintf fmt "[%d] %s: %s (%d rounds, %d tx)%s" v.index v.id
        (if v.ok then "ok" else "VIOLATION")
        v.rounds v.transmissions
        (match v.counterexample with None -> "" | Some c -> " " ^ c)
  | Timed_out { budget } ->
      Format.fprintf fmt "[%d] %s: TIMEOUT (round budget %d spent)" v.index
        v.id budget
  | Crashed { exn; repro; _ } ->
      Format.fprintf fmt "[%d] %s: CRASHED (%s) reproduce: %s" v.index v.id
        exn repro
