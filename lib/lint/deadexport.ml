(* X1 — dead exports (advisory).

   An [.mli] value that no compilation unit other than its own ever
   references is surface area without a client: in OCaml the interface
   gates visibility for everyone — same-library neighbours included —
   so an export whose only users live inside the defining module itself
   can be removed from the [.mli] without breaking anything. (This is
   deliberately narrower than "unused outside the library": a
   same-library cross-module use already {e requires} the export, so
   flagging it would demand an impossible fix.)

   Executables and tests are units like any other, so an export whose
   only caller is the CLI or the test suite is alive.

   Blind spots, all safe-direction (a missed dead export, never a false
   death): values re-exported through [include] are invisible at this
   level; units applied as functor arguments are exempt wholesale (the
   functor body's uses don't resolve to them); references from code the
   resolver drops (higher-order flow) were recorded at the call sites
   that passed them, which keeps them alive. X1 never gates
   ([Rules.gating]) precisely because the repo may carry
   deliberately-forward-looking API. *)

let lib_scope file = List.mem "lib" (String.split_on_char '/' file)

(* unit of a canonical key: the part before the first '.' *)
let unit_of_key key =
  match String.index_opt key '.' with
  | Some i -> String.sub key 0 i
  | None -> key

let run (g : Callgraph.t) =
  (* for each referenced key, the set of referencing units *)
  let users : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (u : Callgraph.use) ->
          let tbl =
            match Hashtbl.find_opt users u.target with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 4 in
                Hashtbl.replace users u.target tbl;
                tbl
          in
          Hashtbl.replace tbl d.unit_name ())
        d.uses)
    (Callgraph.defs_in_order g);
  let alive_outside_unit key =
    match Hashtbl.find_opt users key with
    | None -> false
    | Some tbl ->
        Hashtbl.fold (fun u () acc -> u :: acc) tbl []
        |> List.sort String.compare
        |> List.exists (fun u -> u <> unit_of_key key)
  in
  List.concat_map
    (fun (unit_name, intf, exported) ->
      if
        lib_scope intf
        && not (Hashtbl.mem g.Callgraph.functor_arg_units unit_name)
      then
        List.filter_map
          (fun (name, line, col) ->
            let key = unit_name ^ "." ^ name in
            if alive_outside_unit key then None
            else
              Some
                {
                  Rules.rule = Rules.X1;
                  file = intf;
                  line;
                  col;
                  message =
                    Printf.sprintf
                      "export %s is never referenced outside its defining \
                       module; narrow the .mli or delete the dead code"
                      name;
                })
          exported
      else [])
    g.Callgraph.exports
