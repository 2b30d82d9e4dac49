(** Resolved cross-module call graph over loaded typed ASTs.

    Each top-level value binding becomes a {!def} keyed
    ["Unit__Name.value"]; its body is walked once, recording every
    resolved reference together with the lexical context the deep rules
    care about (inside a lambda, inside a [Domain.spawn] argument, the
    exact mutexes held via [Mutex.protect], [Domain.DLS] guarding, and
    the access mode — plain / [!] read / [:=] write / [Atomic]
    operation), plus direct hits on the D1/D2/D3 primitive set,
    [Engine.Unicast] constructions, and writes through escaped mutable
    cells with their provenance (the E3 raw material).

    Resolution is an under-approximation: references through function
    parameters, first-class modules or functor internals are dropped.
    The one-level closure-escape list ({!field:def.arrow_arg_calls})
    lets the E2/E3 passes stay honest about higher-order flow.

    The walk has two layers so results can be cached per unit:
    {!summarize} reduces one compilation unit to a serialisable
    {!summary} (no typedtree inside), {!assemble} folds summaries into
    the graph, and {!build} is the compose of the two. *)

type access_kind =
  | Plain  (** a resolved reference we cannot classify further *)
  | Read  (** argument of [!] *)
  | Write  (** argument of [:=] / [incr] / [decr] *)
  | Atomic_get
  | Atomic_set
  | Atomic_rmw  (** compare_and_set / exchange / fetch_and_add / incr / decr *)

type use = {
  target : string;  (** canonical key, e.g. ["Lbc_campaign__Clock.now_s"] *)
  uline : int;
  ucol : int;
  guarded : bool;  (** under [Mutex.protect] / [Domain.DLS.get]/[set] *)
  locks : string list;
      (** canonical names of mutexes lexically held, sorted; unresolved
          lock expressions get per-definition tokens that never alias *)
  guard_site : int;
      (** innermost [Mutex.protect] occurrence id within the enclosing
          definition, 0 when no lock is held — E4 uses site identity to
          detect a released-and-retaken lock between read and write *)
  dls_guarded : bool;  (** under [Domain.DLS.get]/[set] specifically *)
  kind : access_kind;
  in_function : bool;  (** under a lambda: runs after module init *)
  in_spawn : bool;  (** inside a [Domain.spawn] argument *)
}

(** How an escaped mutable cell reached the definition that writes it. *)
type provenance =
  | From_dls of string  (** bound from [Domain.DLS.get <key def>] *)
  | From_call of string  (** bound from a call of this resolved function *)
  | From_lookup of string * string
      (** looked up from a local container (name) seen storing cells
          from the given source *)

type escape_write = {
  ew_line : int;
  ew_col : int;
  ew_locks : string list;  (** mutexes lexically held at the write *)
  ew_dls_guarded : bool;
  ew_in_function : bool;
  ew_prov : provenance;
}

type def = {
  key : string;
  unit_name : string;
  name : string;  (** qualified within the unit, e.g. ["Sub.helper"] *)
  file : string;  (** build-root-relative source path *)
  line : int;
  col : int;
  uses : use list;  (** in source order *)
  prims : (Rules.rule * string * int) list;
      (** direct D1/D2/D3 primitive hits: family, primitive, line *)
  unicasts : (int * int) list;  (** line, col of [Engine.Unicast] builds *)
  spawns : bool;  (** calls [Domain.spawn] directly *)
  mutable_top : bool;
      (** the binding itself creates top-level mutable state *)
  atomic_top : bool;  (** the binding creates an [Atomic.t] cell *)
  dls_key_top : bool;  (** the binding creates a [Domain.DLS.key] *)
  leaks_ref : bool;
      (** a function whose return type contains a bare [ref] *)
  escape_writes : escape_write list;
      (** writes through cells this definition did not create *)
  arrow_arg_calls : string list;
      (** internal callees that received a function-typed argument *)
}

type summary = {
  s_unit : string;
  s_impl : string option;  (** build-root-relative .ml path *)
  s_intf : string option;
  s_defs : def list;  (** in source order *)
  s_functor_args : string list;  (** unit names applied as functor args *)
  s_exports : (string * int * int) list;
      (** .mli exported values: name, line, col *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (** def keys, deterministic source order *)
  functor_arg_units : (string, unit) Hashtbl.t;
      (** units applied as functor arguments (exempt from X1) *)
  exports : (string * string * (string * int * int) list) list;
      (** unit name, intf source, exported values — X1's input *)
}

val unit_names_of : string list -> (string, unit) Hashtbl.t
(** Membership table for {!summarize}'s path canonicalisation. *)

val summarize :
  unit_names:(string, unit) Hashtbl.t -> Cmt_load.unit_info -> summary
(** Reduce one unit's typedtree to serialisable data. Depends only on
    the unit's own annotations and [unit_names] — the cache key. *)

val assemble : summary list -> t

val find : t -> string -> def option
val defs_in_order : t -> def list

val reachable : t -> roots:string list -> (string, string option) Hashtbl.t
(** Forward BFS over [uses] from [roots]; the result maps each reached
    key to its BFS parent ([None] for a root), for {!chain}. *)

val chain : (string, string option) Hashtbl.t -> string -> string list
(** Root-to-key path through the BFS parents. *)

val pp_chain : t -> string list -> string
(** Render a chain as ["a -> b -> c"] using short names. *)

val contains_sub : string -> string -> bool
(** [contains_sub hay needle] — shared by the rule passes. *)
