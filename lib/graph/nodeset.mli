(** Sets of node identifiers.

    Nodes are identified by dense non-negative integers; a set of nodes is an
    ordinary [Set.Make (Int)] set extended with a few convenience
    constructors used throughout the library. *)

include module type of Set.Make (Int)

val of_range : int -> int -> t
(** [of_range lo hi] is the set [{lo, lo+1, ..., hi}]; empty when
    [hi < lo]. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt s] prints [s] as ["{0, 3, 7}"]. *)

val to_string : t -> string
(** [to_string s] is [Format.asprintf "%a" pp s]. *)

val to_csv : t -> string
(** [to_csv s] lists the ids in increasing order, comma-separated:
    ["0,3,7"]; [""] for the empty set. The CLI's node-list spelling. *)

val of_csv : string -> (t, string) result
(** Inverse of {!to_csv}: [""] is the empty set; any other string must be
    a comma-separated list of non-negative integers. *)
