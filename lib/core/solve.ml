type choice = Efficient | Exponential

let pp_choice fmt = function
  | Efficient -> Format.pp_print_string fmt "algorithm 2 (O(n) rounds)"
  | Exponential -> Format.pp_print_string fmt "algorithm 1 (exponential phases)"

let choose ~g ~f =
  match Lbc_graph.Conditions.lbc_explain g ~f with
  | Lbc_graph.Conditions.Feasible ->
      if Lbc_graph.Disjoint.connectivity_at_least g (2 * f) then Ok Efficient
      else Ok Exponential
  | verdict -> Error verdict
