include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Fibonacci-style hashing: the multiply mixes every key bit into the
     high bits, and the shift keeps the well-mixed ones. *)
  let hash x = (x * 0x2545F4914F6CDD1D) lsr 20
end)
