include Set.Make (Int)

let of_range lo hi =
  let rec loop acc i = if i > hi then acc else loop (add i acc) (i + 1) in
  loop empty lo

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Format.pp_print_int)
    (elements s)

let to_string s = Format.asprintf "%a" pp s

let to_csv s = String.concat "," (List.map string_of_int (elements s))

let of_csv str =
  if str = "" then Ok empty
  else
    let ids = List.map int_of_string_opt (String.split_on_char ',' str) in
    if List.for_all (function Some v -> v >= 0 | None -> false) ids then
      Ok (of_list (List.filter_map Fun.id ids))
    else Error (str ^ ": expected comma-separated node ids")
