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

type t = {
  gname : string;
  build : unit -> G.t;
  algo : algo;
  f : int;
  faulty : Nodeset.t;
  equivocators : Nodeset.t;
  strategy : S.kind;
  inputs : Bit.t array;
  chaos : Perturb.spec option;
  net : Net.profile option;
}

let make ~gname ~build ~algo ~f ~faulty ?(equivocators = Nodeset.empty)
    ~strategy ~inputs ?chaos ?net () =
  { gname; build; algo; f; faulty; equivocators; strategy; inputs; chaos; net }

let ids_string s =
  if Nodeset.is_empty s then "-"
  else
    String.concat ","
      (List.map string_of_int (Nodeset.elements s))

let inputs_string inputs =
  String.concat "" (Array.to_list (Array.map Bit.to_string inputs))

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
    s.gname s.f t_part (ids_string s.faulty) eq_part
    (Format.asprintf "%a" S.pp_kind s.strategy)
    (inputs_string s.inputs) chaos_part net_part

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

let run_outcome s ~seed =
  let g = s.build () in
  let n = G.size g in
  if Array.length s.inputs <> n then
    invalid_arg
      (Printf.sprintf "scenario %s: %d inputs for a %d-node graph" (id s)
         (Array.length s.inputs) n);
  let strategy _ = s.strategy in
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

let unanimous_honest s =
  let honest = ref [] in
  Array.iteri
    (fun v b -> if not (Nodeset.mem v s.faulty) then honest := b :: !honest)
    s.inputs;
  match !honest with
  | [] -> None
  | b :: rest -> if List.for_all (Bit.equal b) rest then Some b else None

(* The CLI's [-s] spelling (bin/lbcast.ml parse_strategy) — [S.pp_kind]
   is the human rendering and is not parseable back. *)
let cli_kind = function
  | S.Honest_behavior -> "honest"
  | S.Silent -> "silent"
  | S.Crash_at r -> Printf.sprintf "crash:%d" r
  | S.Lie -> "lie"
  | S.Flip_forwards -> "flip"
  | S.Flip_from ids ->
      Printf.sprintf "flip-from:%s"
        (String.concat "," (List.map string_of_int (Nodeset.elements ids)))
  | S.Omit_from ids ->
      Printf.sprintf "omit:%s"
        (String.concat "," (List.map string_of_int (Nodeset.elements ids)))
  | S.Omit_sampled k -> Printf.sprintf "omit-sampled:%d" k
  | S.Spurious k -> Printf.sprintf "spurious:%d" k
  | S.Noise k -> Printf.sprintf "noise:%d" k
  | S.Equivocate -> "equivocate"

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
      Printf.sprintf "-s %s" (cli_kind s.strategy);
      Printf.sprintf "-i %s" (inputs_string s.inputs);
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
  let o, sim_ns =
    match max_rounds with
    | None -> run_outcome s ~seed
    | Some budget -> Engine.with_fuel ~budget (fun () -> run_outcome s ~seed)
  in
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
      (* Capture the backtrace before anything else can raise: the
         frames from the raise point up to this handler are a pure
         function of the scenario, so the string is identical no matter
         which domain executes the shard — it can live in the
         deterministic portion of the artifact. *)
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

let status_fields = function
  | Checked -> []
  | Timed_out { budget } ->
      [ ("status", Jsonio.Str "timeout"); ("budget", Jsonio.Int budget) ]
  | Crashed { exn; backtrace; repro } ->
      [
        ("status", Jsonio.Str "crashed");
        ("exn", Jsonio.Str exn);
        ("backtrace", Jsonio.Str backtrace);
        ("repro", Jsonio.Str repro);
      ]

let verdict_to_json v =
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
  Jsonio.Obj (base @ status_fields v.status @ cx)

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
