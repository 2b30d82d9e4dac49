(** Per-execution interning of flood path annotations.

    Maps each wire path ([int list], origin first) to a dense integer
    {!id} via a trie over node ids, so the flooding layer's tables key
    on ints instead of polymorphically-hashed lists. Every per-path
    property needed by the flooding rules and the acceptance queries is
    computed once, when a path is first seen, and read back in O(1):
    length (rule (i)'s timing check), simple-path validity (rule (i)'s
    structural check, incrementally: a path is simple iff its prefix is,
    the new node is fresh, and the new edge exists), the node bitset
    (rule (iii) and the packing masks) and the endpoints.

    Memory model: a trie node costs a constant number of words plus its
    node bitset — it records its parent id and its last node, not its
    path — so a table's size is linear in the number of distinct
    prefixes it has seen. Trie edges are array slots: a rank table built
    once per table ([n²] ints, 80 KB at n = 100) numbers each node's
    neighbours, and a trie node gets a child array of [degree (last)]
    slots, indexed by that rank, on its first child (the root's has [n]
    slots, indexed by node). An extension to a non-neighbour of the last
    node — only fabricated annotations make one — goes to one int-keyed
    overflow table instead. The origin-first list of a path is built
    lazily, from the parent chain, on the first {!path} call for that
    id, and memoised: paths nobody reads never get a list, and repeated
    reads share one allocation.

    A table is mutable and belongs to one domain. The flood stores of
    one execution may share one table (see {!Flood.create}), so that a
    path the whole network relays is interned once per execution rather
    than once per node, and a message between two of them is an id.

    Invariants: ids are dense, allocation-ordered, and {e per table} —
    they mean nothing to any other table. A flood wire therefore carries
    its table beside its id ({!Flood.wire}); a receiver keyed on another
    table re-interns the wire's list ({!path_total}) instead of reading
    the id. Ids are never serialized (artifacts and fingerprints only
    ever see the underlying node lists, which {!path} returns in
    origin-first wire order).
    Interning never fails: a path mentioning a node outside
    [0 .. size g - 1] maps to {!invalid}, which all queries treat as
    "not a path of [g]". Non-simple paths (repeated nodes, missing
    edges) intern normally; {!is_path} tells them apart. *)

type t
(** An intern table for paths over a fixed graph. *)

type id = int

val create : Lbc_graph.Graph.t -> t

val graph : t -> Lbc_graph.Graph.t
(** The graph the table was created for. *)

val root : id
(** The id of the empty path. *)

val invalid : id
(** The id ([-1]) of every path containing an out-of-range node.
    [extend t invalid u = invalid]: invalidity is sticky. *)

val intern : t -> int list -> id
(** The id of a full path, interning it (and its prefixes) on first
    sight. [intern t [] = root]; {!invalid} when any element is outside
    [0 .. size g - 1]. *)

val intern_total : t -> int list -> id
(** Like {!intern}, but injective on every list: a path with a node
    outside [0 .. size g - 1] gets an id of its own, [-2], [-3], ... in
    order of first sight, instead of {!invalid}. Such exotic ids are
    numbers only: no query but {!path_total} accepts them. Code that
    keys on paths of any origin (Algorithm 2's phase-2 claims, which
    record what was heard, fabrications included) keys on these ids, so
    that every reader of one table decodes a key the same way. *)

val path_total : t -> id -> int list
(** The inverse of {!intern_total}: {!path} for an issued id, the
    interned list for an exotic one.
    @raise Invalid_argument on {!invalid} and on ids the table never
    issued. *)

val extend : t -> id -> int -> id
(** [extend t pid u] is the id of [path pid · u] in O(1): a read of the
    rank table and one of [pid]'s child array when [u] neighbours the
    path's last node (or [pid] is {!root}), else one probe of the
    overflow table. Stable: extending the same id by the same node
    always returns the same id. {!invalid} when [pid] is {!invalid} or
    [u] is out of range.
    @raise Invalid_argument if [pid] is past the last id this table
    issued; the table is left unchanged. *)

val find : t -> id -> int -> id
(** [find t pid u] is [extend t pid u] if that path is already interned,
    and {!invalid} otherwise (also for an unissued or invalid [pid] and
    an out-of-range [u]). Never interns, never raises, never allocates
    on the neighbour path. *)

(** {1 Cached properties}

    All of these except {!path} are O(1) reads of values computed at
    intern time. Except for {!length}, {!is_path} and {!mem} (total, see
    below), they raise [Invalid_argument] on {!invalid} and on any id
    the table never issued. The total three answer such an id as they
    answer {!invalid}. *)

val path : t -> id -> int list
(** The interned path, origin first — structurally equal to the list
    that was interned. The first call for an id builds the list in
    O(length); later calls return the same allocation. *)

val length : t -> id -> int
(** Number of nodes on the path; [0] for {!root}, [-1] for {!invalid}
    and unissued ids. *)

val first : t -> id -> int
(** The origin ([-1] for {!root}). *)

val last : t -> id -> int
(** The final node ([-1] for {!root}). *)

val mask : t -> id -> Packing.mask
(** The set of nodes on the path, as a packing bitset. *)

val is_path : t -> id -> bool
(** Is this a non-empty simple path of the graph — exactly
    [Graph.is_path g (path t id)]? [false] for {!root}, {!invalid} and
    unissued ids. *)

val mem : t -> id -> int -> bool
(** Is node [u] on the path? [false] for {!invalid} and unissued ids. *)
