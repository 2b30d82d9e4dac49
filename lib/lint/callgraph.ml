(* Whole-program call graph over typed ASTs.

   One walk per compilation unit collects, for every top-level value
   binding (including bindings inside nested structures):

   - the internal values it references, each tagged with whether the
     reference sits under a lambda (so it executes after module
     initialisation), inside a [Domain.spawn] argument, which mutexes
     are lexically held ([Mutex.protect lock (fun () -> ...)], with the
     lock expression resolved to a canonical name), whether a
     [Domain.DLS] guard dominates it, and HOW the value is accessed
     (plain reference, [!] read, [:=]/[incr]/[decr] write, or one of the
     [Atomic] operations) — the E3 lockset and E4 atomicity passes need
     the access mode and the precise lock identity, not just "guarded";
   - the nondeterministic primitives it touches directly (the D1/D2/D3
     source set, with the same sort-sanctioning as the per-file pass);
   - the [Engine.Unicast] constructions it performs;
   - whether it calls [Domain.spawn], and which internal functions it
     passes as functional arguments to other internal calls (the
     one-level closure-escape approximation used by the E2/E3 passes);
   - writes through {e escaped} mutable cells: a [:=]/[incr]/[decr]
     whose target is not a top-level definition and not a ref created
     locally in the same definition, with the provenance of the cell
     (bound from [Domain.DLS.get key], from a call to an internal
     function, or looked up from a local container previously seen to
     store such a cell). This is the raw material for the E3 analysis
     of closure-captured state that escapes into [Domain.spawn] — the
     watchdog/fuel-cell shape that pure top-level tracking misses.

   Reference resolution bridges dune's module mangling: a use appears in
   the typedtree as [Lbc_campaign.Clock.now_s] (the wrapped-alias path)
   while the defining unit is named [Lbc_campaign__Clock]; both spellings
   normalise to the same key. Local module aliases
   ([module C = Lbc_campaign.Clock]) are expanded, and an alias of an
   alias ([module Campaign = Lbc_campaign] then
   [module Scenario = Campaign.Scenario]) is stored already expanded, so
   a chain resolves in one step; an expression-level
   [let module M = A.B in ...] is expanded the same way. References
   that resolve to nothing we know (parameters, let-locals, functor
   internals) are dropped — the analysis under-approximates through
   higher-order flow and says so in its rule descriptions.

   The walk is split into two layers so the incremental cache can store
   its result: {!summarize} reduces one compilation unit to a
   {!summary} — plain serialisable data, no typedtree inside — and
   {!assemble} folds summaries into the whole-program graph. A summary
   depends only on the unit's own annotations plus the set of unit
   names (for path canonicalisation), which is exactly the invalidation
   key the cache uses. *)

type access_kind =
  | Plain  (* a resolved reference we cannot classify further *)
  | Read  (* argument of [!] *)
  | Write  (* argument of [:=] / [incr] / [decr] *)
  | Atomic_get
  | Atomic_set
  | Atomic_rmw  (* compare_and_set / exchange / fetch_and_add / incr / decr *)

type use = {
  target : string;  (* canonical key, e.g. "Lbc_campaign__Clock.now_s" *)
  uline : int;
  ucol : int;
  guarded : bool;  (* under Mutex.protect or Domain.DLS.get/set *)
  locks : string list;  (* canonical names of mutexes lexically held *)
  guard_site : int;  (* innermost Mutex.protect occurrence id, 0 = none *)
  dls_guarded : bool;
  kind : access_kind;
  in_function : bool;
  in_spawn : bool;
}

(* Provenance of a cell written through a local name: how did the
   mutable value reach this definition? *)
type provenance =
  | From_dls of string  (* bound from [Domain.DLS.get <key def>] *)
  | From_call of string  (* bound from a call of this resolved function *)
  | From_lookup of string * string
      (* looked up from a local container (name) that was seen storing
         cells of the given provenance source *)

type escape_write = {
  ew_line : int;
  ew_col : int;
  ew_locks : string list;  (* mutexes lexically held at the write *)
  ew_dls_guarded : bool;
  ew_in_function : bool;
  ew_prov : provenance;
}

type def = {
  key : string;
  unit_name : string;
  name : string;
  file : string;
  line : int;
  col : int;
  uses : use list;  (* in source order *)
  prims : (Rules.rule * string * int) list;  (* family, primitive, line *)
  unicasts : (int * int) list;  (* line, col of Engine.Unicast builds *)
  spawns : bool;
  mutable_top : bool;
  atomic_top : bool;  (* the binding creates an [Atomic.t] cell *)
  dls_key_top : bool;  (* the binding creates a [Domain.DLS.key] *)
  leaks_ref : bool;
      (* a function whose return type contains a bare [ref] — it hands
         callers a mutable cell whose origin they cannot see *)
  escape_writes : escape_write list;
  arrow_arg_calls : string list;
      (* internal callees that received a function-typed argument *)
}

type summary = {
  s_unit : string;
  s_impl : string option;  (* build-root-relative .ml path *)
  s_intf : string option;
  s_defs : def list;  (* in source order *)
  s_functor_args : string list;  (* unit names applied as functor args *)
  s_exports : (string * int * int) list;  (* .mli values: name, line, col *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (* def keys, deterministic *)
  functor_arg_units : (string, unit) Hashtbl.t;
  exports : (string * string * (string * int * int) list) list;
      (* unit name, intf source, exported values — X1's input *)
}

let find t key = Hashtbl.find_opt t.defs key
let defs_in_order t = List.filter_map (Hashtbl.find_opt t.defs) t.order

(* ------------------------------------------------------------------ *)
(* Path utilities                                                      *)
(* ------------------------------------------------------------------ *)

let rec path_components (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_components p @ [ s ]
  | _ -> []

let path_head (p : Path.t) =
  match p with
  | Path.Pident id -> Some id
  | _ -> (
      let rec head = function
        | Path.Pident id -> Some id
        | Path.Pdot (p, _) -> head p
        | _ -> None
      in
      head p)

(* Canonical key of a fully-qualified reference. [unit_names] lets
   [A.B.x] (wrapped-alias spelling) fold onto unit [A__B]; anything else
   keeps its first component as the "unit", which for non-loaded
   libraries (Stdlib, Unix) yields stable external names like
   ["Stdlib.Hashtbl.iter"]. *)
let canonical ~unit_names comps =
  match comps with
  | [] | [ _ ] -> None
  | u :: rest ->
      let contains_sep s =
        let n = String.length s in
        let rec go i = i + 2 <= n && (String.sub s i 2 = "__" || go (i + 1)) in
        go 0
      in
      let unit_, name =
        if contains_sep u then (u, rest)
        else
          match rest with
          | m :: tail when tail <> [] && Hashtbl.mem unit_names (u ^ "__" ^ m)
            ->
              (u ^ "__" ^ m, tail)
          | _ -> (u, rest)
      in
      Some (unit_ ^ "." ^ String.concat "." name)

(* ------------------------------------------------------------------ *)
(* Primitive classification (the deep D1/D2/D3 source set)             *)
(* ------------------------------------------------------------------ *)

let classify_prim ~sorted key =
  match String.split_on_char '.' key with
  | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Stdlib"; "Sys"; "time" ]
    ->
      Some (Rules.D1, key)
  | [ "Stdlib"; "Hashtbl"; "iter" ] -> Some (Rules.D2, key)
  | [ "Stdlib"; "Hashtbl"; "fold" ] when not sorted -> Some (Rules.D2, key)
  | "Stdlib" :: "Random" :: f :: _ when f <> "State" -> Some (Rules.D3, key)
  | _ -> None

let dls_guard_heads = [ "Stdlib.Domain.DLS.get"; "Stdlib.Domain.DLS.set" ]
let protect_head = "Stdlib.Mutex.protect"
let spawn_head = "Stdlib.Domain.spawn"

let mutable_creators =
  [
    "Stdlib.ref";
    "Stdlib.Hashtbl.create";
    "Stdlib.Buffer.create";
    "Stdlib.Queue.create";
    "Stdlib.Stack.create";
  ]

let atomic_creator = "Stdlib.Atomic.make"
let dls_key_creator = "Stdlib.Domain.DLS.new_key"

(* Access modes keyed on the applied head: the classified argument is
   the first one. *)
let ref_access_heads =
  [
    ("Stdlib.!", Read);
    ("Stdlib.:=", Write);
    ("Stdlib.incr", Write);
    ("Stdlib.decr", Write);
  ]

let atomic_access_heads =
  [
    ("Stdlib.Atomic.get", Atomic_get);
    ("Stdlib.Atomic.set", Atomic_set);
    ("Stdlib.Atomic.exchange", Atomic_rmw);
    ("Stdlib.Atomic.compare_and_set", Atomic_rmw);
    ("Stdlib.Atomic.fetch_and_add", Atomic_rmw);
    ("Stdlib.Atomic.incr", Atomic_rmw);
    ("Stdlib.Atomic.decr", Atomic_rmw);
  ]

let ref_write_heads = [ "Stdlib.:="; "Stdlib.incr"; "Stdlib.decr" ]

let container_store_heads = [ "Stdlib.Hashtbl.replace"; "Stdlib.Hashtbl.add" ]
let container_lookup_heads = [ "Stdlib.Hashtbl.find_opt"; "Stdlib.Hashtbl.find" ]

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

let is_sortish comps =
  match List.rev comps with
  | name :: _ -> contains_sub (String.lowercase_ascii name) "sort"
  | [] -> false

let rec is_arrow (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tlink ty | Types.Tsubst (ty, _) -> is_arrow ty
  | Types.Tpoly (ty, _) -> is_arrow ty
  | _ -> false

(* Does the (finite-depth) structure of [ty] mention the [ref]
   constructor? Cyclic type_exprs are possible, hence the visited set. *)
let type_mentions_ref ty =
  let rec go visited ty =
    let id = Types.get_id ty in
    if List.mem id visited then false
    else
      let visited = id :: visited in
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) -> (
          match List.rev (path_components p) with
          | "ref" :: _ -> true
          | _ -> List.exists (go visited) args)
      | Types.Ttuple tys -> List.exists (go visited) tys
      | Types.Tlink ty | Types.Tsubst (ty, _) | Types.Tpoly (ty, _) ->
          go visited ty
      | _ -> false
  in
  go [] ty

(* The codomain after stripping every arrow: [unit -> int ref option]
   yields [int ref option]. *)
let rec codomain ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, r, _) -> codomain r
  | Types.Tlink ty | Types.Tsubst (ty, _) | Types.Tpoly (ty, _) -> codomain ty
  | _ -> ty

(* A function definition whose result type contains a bare [ref] hands
   its callers a cell they did not create — the escape hatch the E3
   pass tracks (the fuel-cell accessor is exactly this shape). *)
let leaks_ref_type ty = is_arrow ty && type_mentions_ref (codomain ty)

(* Is this constructor the per-receiver delivery of the engine? Keyed on
   the constructor name and its result type's name, so the rule follows
   the concept rather than one module path. *)
let is_unicast (cd : Types.constructor_description) =
  cd.Types.cstr_name = "Unicast"
  &&
  match Types.get_desc cd.Types.cstr_res with
  | Types.Tconstr (p, _, _) -> (
      match List.rev (path_components p) with
      | t :: _ -> t = "delivery"
      | [] -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pass 1: register definitions                                        *)
(* ------------------------------------------------------------------ *)

type pending = {
  p_key : string;
  p_name : string;
  p_loc : Location.t;
  p_expr : Typedtree.expression option;  (* None for externals *)
  p_mutable : bool;
  p_atomic : bool;
  p_dls_key : bool;
}

(* [iter_general_pattern] applies [f] to the node itself and recurses
   on its own — hand it a shallow action. Polymorphic in the pattern
   category so match-case (computation) patterns work too. *)
let binding_idents : type k. k Typedtree.general_pattern -> _ =
 fun pat ->
  let acc = ref [] in
  let f : type k. k Typedtree.general_pattern -> unit =
   fun p ->
    match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, name) -> acc := (id, name.Location.txt) :: !acc
    | Typedtree.Tpat_alias (_, id, name) ->
        acc := (id, name.Location.txt) :: !acc
    | _ -> ()
  in
  Typedtree.iter_general_pattern { f } pat;
  List.rev !acc

let rhs_creator ~unit_names (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _) -> (
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _) ->
          canonical ~unit_names (path_components p)
      | _ -> None)
  | _ -> None

let is_mutable_rhs ~unit_names (e : Typedtree.expression) =
  match rhs_creator ~unit_names e with
  | Some key -> List.mem key mutable_creators
  | None -> (
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_record { fields; _ } ->
          Array.exists
            (fun ((lbl : Types.label_description), _) ->
              lbl.Types.lbl_mut = Asttypes.Mutable)
            fields
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Summarize one unit                                                  *)
(* ------------------------------------------------------------------ *)

type unit_ctx = {
  idents : (string, string) Hashtbl.t;  (* Ident.unique_name -> def key *)
  aliases : (string, string list) Hashtbl.t;
      (* local module alias -> path components *)
}

let exported_values (sg : Typedtree.signature) =
  List.filter_map
    (fun (item : Typedtree.signature_item) ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd ->
          let loc = vd.Typedtree.val_loc in
          let pos = loc.Location.loc_start in
          Some
            ( Ident.name vd.Typedtree.val_id,
              pos.Lexing.pos_lnum,
              pos.Lexing.pos_cnum - pos.Lexing.pos_bol )
      | _ -> None)
    sg.Typedtree.sig_items

(* The module a module expression merely names, through constraints. *)
let rec local_alias (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me, _, _, _) -> local_alias me
  | _ -> None

let summarize ~unit_names (u : Cmt_load.unit_info) =
  let functor_args = ref [] in
  let note_functor_arg comps =
    match canonical ~unit_names (comps @ [ "_" ]) with
    | Some key -> (
        match String.index_opt key '.' with
        | Some i -> functor_args := String.sub key 0 i :: !functor_args
        | None -> ())
    | None -> ()
  in
  let uctx = { idents = Hashtbl.create 32; aliases = Hashtbl.create 8 } in
  (* The components of [p] with a local alias at its head expanded;
     aliases are recorded through this, so their components never start
     with another local alias. *)
  let expand (p : Path.t) =
    let comps = path_components p in
    match (path_head p, comps) with
    | Some head, _ :: rest when not (Ident.global head) -> (
        match Hashtbl.find_opt uctx.aliases (Ident.unique_name head) with
        | Some alias_comps -> alias_comps @ rest
        | None -> comps)
    | _ -> comps
  in
  let pending = ref [] in
  let add_pending ~prefix name loc expr mut atomic dls =
    let qname = if prefix = "" then name else prefix ^ "." ^ name in
    let key = u.Cmt_load.unit_name ^ "." ^ qname in
    pending :=
      {
        p_key = key;
        p_name = qname;
        p_loc = loc;
        p_expr = expr;
        p_mutable = mut;
        p_atomic = atomic;
        p_dls_key = dls;
      }
      :: !pending;
    key
  in
  let add_def ~prefix id name loc expr mut atomic dls =
    let key = add_pending ~prefix name loc expr mut atomic dls in
    Hashtbl.replace uctx.idents (Ident.unique_name id) key
  in
  (* [let () = ...] and [;;]-style toplevel effects bind nothing
     but still call into the program (an executable's entry point
     is exactly this shape); give them synthetic defs so their
     references feed reachability and export liveness. *)
  let add_init ~prefix (loc : Location.t) expr =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    ignore
      (add_pending ~prefix
         (Printf.sprintf "(init:%d)" line)
         loc (Some expr) false false false)
  in
  let rec structure ~prefix (str : Typedtree.structure) =
    List.iter (structure_item ~prefix) str.Typedtree.str_items
  and structure_item ~prefix (si : Typedtree.structure_item) =
    match si.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let mut = is_mutable_rhs ~unit_names vb.Typedtree.vb_expr in
            let creator = rhs_creator ~unit_names vb.Typedtree.vb_expr in
            let atomic = creator = Some atomic_creator in
            let dls = creator = Some dls_key_creator in
            match binding_idents vb.Typedtree.vb_pat with
            | [] -> add_init ~prefix vb.Typedtree.vb_loc vb.Typedtree.vb_expr
            | ids ->
                List.iter
                  (fun (id, name) ->
                    add_def ~prefix id name vb.Typedtree.vb_loc
                      (Some vb.Typedtree.vb_expr) mut atomic dls)
                  ids)
          vbs
    | Typedtree.Tstr_eval (e, _) -> add_init ~prefix si.Typedtree.str_loc e
    | Typedtree.Tstr_primitive vd ->
        add_def ~prefix vd.Typedtree.val_id
          (Ident.name vd.Typedtree.val_id)
          vd.Typedtree.val_loc None false false false
    | Typedtree.Tstr_module mb -> module_binding ~prefix mb
    | Typedtree.Tstr_recmodule mbs -> List.iter (module_binding ~prefix) mbs
    | _ -> ()
  and module_binding ~prefix (mb : Typedtree.module_binding) =
    let name =
      match mb.Typedtree.mb_name.Location.txt with Some n -> n | None -> "_"
    in
    let sub = if prefix = "" then name else prefix ^ "." ^ name in
    module_expr ~prefix:sub ~alias_id:mb.Typedtree.mb_id mb.Typedtree.mb_expr
  and module_expr ~prefix ~alias_id (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure str -> structure ~prefix str
    | Typedtree.Tmod_constraint (me, _, _, _) ->
        module_expr ~prefix ~alias_id me
    | Typedtree.Tmod_ident (p, _) -> (
        match alias_id with
        | Some id ->
            Hashtbl.replace uctx.aliases (Ident.unique_name id) (expand p)
        | None -> ())
    | Typedtree.Tmod_apply (f, arg, _) ->
        (match arg.Typedtree.mod_desc with
        | Typedtree.Tmod_ident (p, _) -> note_functor_arg (expand p)
        | _ -> ());
        module_expr ~prefix ~alias_id:None f
    | _ -> ()
  in
  (match u.Cmt_load.structure with
  | Some str -> structure ~prefix:"" str
  | None -> ());
  let pending = List.rev !pending in
  (* Pass 2: walk each pending definition's body. *)
  let file = Option.value ~default:"" u.Cmt_load.impl_source in
  let resolve (p : Path.t) =
    match path_head p with
    | None -> None
    | Some head ->
        if
          Ident.global head
          || Hashtbl.mem uctx.aliases (Ident.unique_name head)
        then canonical ~unit_names (expand p)
        else Hashtbl.find_opt uctx.idents (Ident.unique_name head)
  in
  let defs =
    List.map
      (fun p ->
        let uses = ref [] in
        let prims = ref [] in
        let unicasts = ref [] in
        let spawns = ref false in
        let arrow_args = ref [] in
        let escapes = ref [] in
        let sorted = ref 0 in
        let lambda = ref 0 in
        let spawn_depth = ref 0 in
        let dls_depth = ref 0 in
        (* Innermost-first stack of (lock name, site id) for the
           Mutex.protect occurrences lexically containing the walk
           position; [site_seq] numbers occurrences within the def. *)
        let lock_stack = ref [] in
        let site_seq = ref 0 in
        (* Local mutable-cell bookkeeping for escape-write provenance. *)
        let local_refs : (string, unit) Hashtbl.t = Hashtbl.create 8 in
        let bound : (string, provenance) Hashtbl.t = Hashtbl.create 8 in
        let container_taint : (string, string) Hashtbl.t = Hashtbl.create 4 in
        let record_ref ?(kind = Plain) key (loc : Location.t) =
          let pos = loc.Location.loc_start in
          let line = pos.Lexing.pos_lnum in
          let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
          let locks =
            List.sort_uniq String.compare (List.map fst !lock_stack)
          in
          (* internal iff some unit defines it: decided by the
             consumer via [find]; we record everything that resolved. *)
          uses :=
            {
              target = key;
              uline = line;
              ucol = col;
              guarded = locks <> [] || !dls_depth > 0;
              locks;
              guard_site =
                (match !lock_stack with [] -> 0 | (_, s) :: _ -> s);
              dls_guarded = !dls_depth > 0;
              kind;
              in_function = !lambda > 0;
              in_spawn = !spawn_depth > 0;
            }
            :: !uses;
          match classify_prim ~sorted:(!sorted > 0) key with
          | Some (rule, prim) -> prims := (rule, prim, line) :: !prims
          | None -> ()
        in
        let rec head_comps (e : Typedtree.expression) =
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> path_components p
          | Typedtree.Texp_apply (f, _) -> head_comps f
          | _ -> []
        in
        let head_key (e : Typedtree.expression) =
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> resolve p
          | _ -> None
        in
        let arg_ident (e : Typedtree.expression) =
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> path_head p
          | _ -> None
        in
        (* The canonical name a [Mutex.protect] lock expression
           contributes to the lexical lockset: the resolved key when
           the lock is a named value, otherwise a token unique to this
           definition (distinct unknown locks must never alias). *)
        let lock_name (e : Typedtree.expression) =
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (pa, _, _) -> (
              match resolve pa with
              | Some k -> k
              | None -> (
                  match path_head pa with
                  | Some id -> "<" ^ p.p_key ^ ":" ^ Ident.name id ^ ">"
                  | None -> "<" ^ p.p_key ^ ":?>"))
          | _ ->
              let pos = e.Typedtree.exp_loc.Location.loc_start in
              Printf.sprintf "<%s:%d:%d>" p.p_key pos.Lexing.pos_lnum
                (pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
        in
        (* Where does the value of [e] come from, for cell-binding
           purposes? Checked at [let]/[match] binding points. *)
        let provenance_of (e : Typedtree.expression) =
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_apply (f, args) -> (
              match head_key f with
              | Some k when k = "Stdlib.Domain.DLS.get" -> (
                  match args with
                  | (_, Some a) :: _ -> (
                      match
                        Option.bind (arg_ident a) (fun id ->
                            resolve (Path.Pident id))
                      with
                      | Some key_def -> Some (From_dls key_def)
                      | None -> Some (From_dls "<unknown-key>"))
                  | _ -> Some (From_dls "<unknown-key>"))
              | Some k when List.mem k container_lookup_heads -> (
                  match args with
                  | (_, Some c) :: _ -> (
                      match arg_ident c with
                      | Some id -> (
                          match
                            Hashtbl.find_opt container_taint
                              (Ident.unique_name id)
                          with
                          | Some src ->
                              Some (From_lookup (Ident.name id, src))
                          | None -> None)
                      | None -> None)
                  | _ -> None)
              | Some k
                when (not (String.length k >= 7 && String.sub k 0 7
                           = "Stdlib."))
                     && not (List.mem k mutable_creators) ->
                  Some (From_call k)
              | _ -> None)
          | _ -> None
        in
        let bind_pattern_idents : type k. k Typedtree.general_pattern -> _ =
         fun pat prov ->
          List.iter
            (fun (id, _) ->
              Hashtbl.replace bound (Ident.unique_name id) prov)
            (binding_idents pat)
        in
        let note_local_creation pat (rhs : Typedtree.expression) =
          match rhs_creator ~unit_names rhs with
          | Some k when List.mem k mutable_creators || k = atomic_creator ->
              List.iter
                (fun (id, _) ->
                  Hashtbl.replace local_refs (Ident.unique_name id) ())
                (binding_idents pat)
          | _ -> (
              match provenance_of rhs with
              | Some prov -> bind_pattern_idents pat prov
              | None -> ())
        in
        let record_escape_write (loc : Location.t) prov =
          let pos = loc.Location.loc_start in
          escapes :=
            {
              ew_line = pos.Lexing.pos_lnum;
              ew_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
              ew_locks =
                List.sort_uniq String.compare (List.map fst !lock_stack);
              ew_dls_guarded = !dls_depth > 0;
              ew_in_function = !lambda > 0;
              ew_prov = prov;
            }
            :: !escapes
        in
        let default = Tast_iterator.default_iterator in
        let expr it (e : Typedtree.expression) =
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> (
              match resolve p with
              | Some key -> record_ref key e.Typedtree.exp_loc
              | None -> ())
          | Typedtree.Texp_function _ ->
              incr lambda;
              default.Tast_iterator.expr it e;
              decr lambda
          | Typedtree.Texp_letmodule (Some id, _, _, me, _) ->
              (* [let module M = A.B in ...]: uses of [M.x] in the body
                 resolve as [A.B.x], like a toplevel alias. *)
              (match local_alias me with
              | Some p ->
                  Hashtbl.replace uctx.aliases (Ident.unique_name id) (expand p)
              | None -> ());
              default.Tast_iterator.expr it e
          | Typedtree.Texp_let (_, vbs, body) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  note_local_creation vb.Typedtree.vb_pat vb.Typedtree.vb_expr;
                  it.Tast_iterator.expr it vb.Typedtree.vb_expr)
                vbs;
              it.Tast_iterator.expr it body
          | Typedtree.Texp_match (scrut, cases, _) ->
              (match provenance_of scrut with
              | Some prov ->
                  List.iter
                    (fun (c : _ Typedtree.case) ->
                      bind_pattern_idents c.Typedtree.c_lhs prov)
                    cases
              | None -> ());
              default.Tast_iterator.expr it e
          | Typedtree.Texp_construct (_, cd, _) ->
              (if is_unicast cd then
                 let pos = e.Typedtree.exp_loc.Location.loc_start in
                 unicasts :=
                   ( pos.Lexing.pos_lnum,
                     pos.Lexing.pos_cnum - pos.Lexing.pos_bol )
                   :: !unicasts);
              default.Tast_iterator.expr it e
          | Typedtree.Texp_apply (f, args) ->
              (match f.Typedtree.exp_desc with
              | Typedtree.Texp_ident (p, _, _) -> (
                  match resolve p with
                  | Some key -> record_ref key f.Typedtree.exp_loc
                  | None -> ())
              | _ -> it.Tast_iterator.expr it f);
              let hkey = head_key f in
              let hcomps = head_comps f in
              let is_guard_call =
                match hkey with
                | Some k -> k = protect_head || List.mem k dls_guard_heads
                | None -> false
              in
              let is_protect_call = hkey = Some protect_head in
              let is_dls_guard =
                match hkey with
                | Some k -> List.mem k dls_guard_heads
                | None -> false
              in
              let is_spawn_call = hkey = Some spawn_head in
              if is_spawn_call then spawns := true;
              (* Access-mode classification: ref reads/writes and the
                 Atomic operations mark their first argument. *)
              let first_arg_kind =
                match hkey with
                | Some k -> (
                    match List.assoc_opt k ref_access_heads with
                    | Some kind -> Some kind
                    | None -> List.assoc_opt k atomic_access_heads)
                | None -> None
              in
              let is_ref_write =
                match hkey with
                | Some k -> List.mem k ref_write_heads
                | None -> false
              in
              (* Container stores: a local container receiving a cell
                 of known provenance is tainted with that source. *)
              (match hkey with
              | Some k when List.mem k container_store_heads -> (
                  match args with
                  | (_, Some c) :: _ :: [ (_, Some v) ] -> (
                      match (arg_ident c, arg_ident v) with
                      | Some cid, Some vid -> (
                          match
                            Hashtbl.find_opt bound (Ident.unique_name vid)
                          with
                          | Some (From_call src) | Some (From_dls src) ->
                              Hashtbl.replace container_taint
                                (Ident.unique_name cid) src
                          | Some (From_lookup (_, src)) ->
                              Hashtbl.replace container_taint
                                (Ident.unique_name cid) src
                          | None -> ())
                      | _ -> ())
                  | _ -> ())
              | _ -> ());
              (* A functional argument handed to an internal callee may
                 run wherever that callee runs: remember the callee for
                 the closure-escape fixpoint. *)
              (match hkey with
              | Some k when (not is_guard_call) && k <> spawn_head ->
                  if
                    List.exists
                      (fun (_, a) ->
                        match a with
                        | Some (a : Typedtree.expression) ->
                            is_arrow a.Typedtree.exp_type
                        | None -> false)
                      args
                  then arrow_args := k :: !arrow_args
              | _ -> ());
              let sortish_call = is_sortish hcomps in
              let sanctioned =
                match (hcomps, args) with
                | ( ([ "Stdlib"; "|>" ] | [ "|>" ]),
                    [ (_, Some lhs); (_, Some rhs) ] )
                  when is_sortish (head_comps rhs) ->
                    [ lhs ]
                | ( ([ "Stdlib"; "@@" ] | [ "@@" ]),
                    [ (_, Some lhs); (_, Some rhs) ] )
                  when is_sortish (head_comps lhs) ->
                    [ rhs ]
                | _ -> []
              in
              (* The lock a protect call holds around its thunk. *)
              let protect_lock =
                if not is_protect_call then None
                else
                  match args with
                  | (_, Some lk) :: _ ->
                      incr site_seq;
                      Some (lock_name lk, !site_seq)
                  | _ -> None
              in
              List.iteri
                (fun ai (_, a) ->
                  match a with
                  | None -> ()
                  | Some a -> (
                      let sanction = sortish_call || List.memq a sanctioned in
                      (* Only the thunk(s) after the lock argument run
                         under the lock. *)
                      let locked =
                        match protect_lock with
                        | Some ls when ai > 0 ->
                            lock_stack := ls :: !lock_stack;
                            true
                        | _ -> false
                      in
                      if sanction then incr sorted;
                      if is_dls_guard then incr dls_depth;
                      if is_spawn_call then incr spawn_depth;
                      (match (first_arg_kind, a.Typedtree.exp_desc) with
                      | Some kind, Typedtree.Texp_ident (pa, _, _)
                        when ai = 0 -> (
                          (* classified access: record with its mode
                             instead of the generic ident case *)
                          match resolve pa with
                          | Some key -> record_ref ~kind key a.Typedtree.exp_loc
                          | None ->
                              (* unresolved target of a ref write: an
                                 escaped-cell mutation if the cell's
                                 provenance is known and it is not a
                                 ref created in this definition *)
                              if is_ref_write then
                                match path_head pa with
                                | Some id
                                  when not
                                         (Hashtbl.mem local_refs
                                            (Ident.unique_name id)) -> (
                                    match
                                      Hashtbl.find_opt bound
                                        (Ident.unique_name id)
                                    with
                                    | Some prov ->
                                        record_escape_write
                                          a.Typedtree.exp_loc prov
                                    | None -> ())
                                | _ -> ())
                      | _ -> it.Tast_iterator.expr it a);
                      if is_spawn_call then decr spawn_depth;
                      if is_dls_guard then decr dls_depth;
                      if sanction then decr sorted;
                      if locked then
                        lock_stack := List.tl !lock_stack))
                args
          | _ -> default.Tast_iterator.expr it e
        in
        let it = { default with Tast_iterator.expr } in
        (match p.p_expr with
        | Some e -> it.Tast_iterator.expr it e
        | None -> ());
        let pos = p.p_loc.Location.loc_start in
        {
          key = p.p_key;
          unit_name = u.Cmt_load.unit_name;
          name = p.p_name;
          file;
          line = pos.Lexing.pos_lnum;
          col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
          uses = List.rev !uses;
          prims = List.rev !prims;
          unicasts = List.rev !unicasts;
          spawns = !spawns;
          mutable_top = p.p_mutable;
          atomic_top = p.p_atomic;
          dls_key_top = p.p_dls_key;
          leaks_ref =
            (match p.p_expr with
            | Some e -> leaks_ref_type e.Typedtree.exp_type
            | None -> false);
          escape_writes = List.rev !escapes;
          arrow_arg_calls = List.rev !arrow_args;
        })
      pending
  in
  {
    s_unit = u.Cmt_load.unit_name;
    s_impl = u.Cmt_load.impl_source;
    s_intf = u.Cmt_load.intf_source;
    s_defs = defs;
    s_functor_args = List.rev !functor_args;
    s_exports =
      (match u.Cmt_load.signature with
      | Some sg -> exported_values sg
      | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* Assemble                                                            *)
(* ------------------------------------------------------------------ *)

let unit_names_of names =
  let tbl = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace tbl n ()) names;
  tbl

let assemble (summaries : summary list) =
  let defs = Hashtbl.create 256 in
  let order = ref [] in
  let functor_arg_units = Hashtbl.create 8 in
  let exports = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun (d : def) ->
          if not (Hashtbl.mem defs d.key) then begin
            Hashtbl.replace defs d.key d;
            order := d.key :: !order
          end)
        s.s_defs;
      List.iter (fun u -> Hashtbl.replace functor_arg_units u ()) s.s_functor_args;
      match (s.s_intf, s.s_exports) with
      | Some intf, (_ :: _ as ex) ->
          exports := (s.s_unit, intf, ex) :: !exports
      | _ -> ())
    summaries;
  {
    defs;
    order = List.rev !order;
    functor_arg_units;
    exports = List.rev !exports;
  }

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

let reachable t ~roots =
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem t.defs r && not (Hashtbl.mem parent r) then begin
        Hashtbl.replace parent r None;
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let k = Queue.take queue in
    match Hashtbl.find_opt t.defs k with
    | None -> ()
    | Some d ->
        List.iter
          (fun u ->
            if Hashtbl.mem t.defs u.target && not (Hashtbl.mem parent u.target)
            then begin
              Hashtbl.replace parent u.target (Some k);
              Queue.add u.target queue
            end)
          d.uses
  done;
  parent

let chain parent key =
  let rec go acc key =
    match Hashtbl.find_opt parent key with
    | Some (Some p) -> go (key :: acc) p
    | Some None -> key :: acc
    | None -> key :: acc
  in
  go [] key

let short_name t key =
  match find t key with Some d -> d.name | None -> key

let pp_chain t keys =
  String.concat " -> " (List.map (short_name t) keys)
