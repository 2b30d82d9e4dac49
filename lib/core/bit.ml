type t = Zero | One

let flip = function Zero -> One | One -> Zero
let default = One

let of_int = function
  | 0 -> Zero
  | 1 -> One
  | n -> invalid_arg (Printf.sprintf "Bit.of_int: %d" n)

let to_int = function Zero -> 0 | One -> 1
let of_bool b = if b then One else Zero
let equal a b = a = b
let compare a b = Int.compare (to_int a) (to_int b)

let majority bits =
  let ones = List.length (List.filter (equal One) bits) in
  let zeros = List.length bits - ones in
  if ones > zeros then One else Zero

let pp fmt b = Format.pp_print_int fmt (to_int b)
let to_string b = string_of_int (to_int b)

let array_to_string a = String.concat "" (Array.to_list (Array.map to_string a))

let array_of_string s =
  if String.for_all (fun c -> c = '0' || c = '1') s then
    Ok (Array.init (String.length s) (fun i -> of_int (Char.code s.[i] - 48)))
  else Error "expected a 01-string, e.g. 01011"
