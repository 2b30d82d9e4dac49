module Nodeset = Lbc_graph.Nodeset

type outcome = {
  outputs : Bit.t option array;
  faulty : Nodeset.t;
  inputs : Bit.t array;
  rounds : int;
  phases : int;
  transmissions : int;
  deliveries : int;
}

let honest_pairs o =
  let acc = ref [] in
  Array.iteri
    (fun v out ->
      if not (Nodeset.mem v o.faulty) then
        match out with
        | Some b -> acc := (v, b) :: !acc
        | None -> acc := (v, Bit.Zero) :: !acc
        (* missing output is handled by [agreement] below *))
    o.outputs;
  List.rev !acc

let all_honest_decided o =
  Array.for_all (fun x -> x)
    (Array.mapi
       (fun v out -> Nodeset.mem v o.faulty || Option.is_some out)
       o.outputs)

let agreement o =
  all_honest_decided o
  &&
  match honest_pairs o with
  | [] -> true
  | (_, b) :: rest -> List.for_all (fun (_, b') -> Bit.equal b b') rest

let validity o =
  all_honest_decided o
  && List.for_all
       (fun (v, out) ->
         ignore v;
         Array.exists2
           (fun input u_faulty -> (not u_faulty) && Bit.equal input out)
           o.inputs
           (Array.init (Array.length o.inputs) (fun u -> Nodeset.mem u o.faulty)))
       (honest_pairs o)

let decision o =
  if agreement o then
    match honest_pairs o with (_, b) :: _ -> Some b | [] -> None
  else None

let consensus_ok o = agreement o && validity o
