module J = Lbc_campaign.Jsonio
module Clock = Lbc_campaign.Clock

type span = {
  name : string;
  cat : string;
  start_s : float;
  dur_s : float;
  args : (string * float) list;
}

type t = { origin : float; mutable keep : bool; mutable spans : span list }

let create () = { origin = Clock.now_s (); keep = true; spans = [] }
let set_keep t keep = t.keep <- keep
let length t = List.length t.spans

let add t ~cat ?(args = []) name ~start_s ~dur_s =
  if t.keep then t.spans <- { name; cat; start_s; dur_s; args } :: t.spans

let time t ~cat ?args name f =
  let start_s = Clock.now_s () in
  let r = f () in
  let dur_s = Clock.now_s () -. start_s in
  add t ~cat ?args name ~start_s ~dur_s;
  (r, dur_s)

let us s = J.Float (Float.round (s *. 1e9) /. 1e3)

let to_json t =
  let events =
    List.stable_sort
      (fun a b -> Float.compare a.start_s b.start_s)
      (List.rev t.spans)
  in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 ([
                    ("name", J.Str s.name);
                    ("cat", J.Str s.cat);
                    ("ph", J.Str "X");
                    ("ts", us (s.start_s -. t.origin));
                    ("dur", us s.dur_s);
                    ("pid", J.Int 1);
                    ("tid", J.Int 1);
                  ]
                 @
                 match s.args with
                 | [] -> []
                 | args ->
                     [
                       ( "args",
                         J.Obj (List.map (fun (k, v) -> (k, J.Float v)) args) );
                     ]))
             events) );
      ("displayTimeUnit", J.Str "ms");
    ]

let write t ~path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string (to_json t));
      output_char oc '\n')
