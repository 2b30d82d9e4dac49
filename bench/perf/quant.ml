let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let nearest_rank xs ~p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted (Array.of_list xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted (Array.of_list xs) in
  match Array.length a with
  | 0 -> (Float.nan, Float.nan, Float.nan)
  | 1 -> (a.(0), a.(0), a.(0))
  | ld ->
      (* statistics.quantiles, method='exclusive', n=4 *)
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
      in
      (q 1, q 2, q 3)

let fnv1a_hex s =
  let h = ref 0x0BF29CE484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  Printf.sprintf "%016x" (!h land max_int)
