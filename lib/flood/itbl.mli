(** Hash tables keyed on ints, with an inline multiplicative hash.

    The flooding layer's int keys are dense and structured: trie ids,
    [pid·n + u] edge keys, claim keys. The identity hash piles such keys
    into a few buckets, and the polymorphic [Hashtbl.hash] pays a C call
    per probe; one multiply and one shift spread them in a few
    instructions. Shared by {!Path_intern}, {!Flood} and Algorithm 2's
    attribution tables. *)

include Hashtbl.S with type key = int
