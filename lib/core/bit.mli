(** Binary consensus values.

    The paper's conventions: a silent initiator's missing flood message is
    replaced by the default value [One] (Algorithm 1, step (a)); majority
    ties break towards [Zero] (Algorithm 2, phase 3). *)

type t = Zero | One

val flip : t -> t
(** [flip Zero = One] and vice versa. *)

val default : t
(** The missing-message default: [One]. *)

val of_int : int -> t
(** [of_int 0 = Zero]; [of_int 1 = One].
    @raise Invalid_argument otherwise. *)

val to_int : t -> int
val of_bool : bool -> t
val equal : t -> t -> bool
val compare : t -> t -> int

val majority : t list -> t
(** Majority value of a non-empty list; ties (and the empty list) resolve
    to [Zero], per Algorithm 2 phase 3. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val array_to_string : t array -> string
(** One digit per node, node 0 first: the CLI's [-i] spelling ["01011"]. *)

val array_of_string : string -> (t array, string) result
(** Inverse of {!array_to_string}. *)
