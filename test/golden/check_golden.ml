(* Compare bench/main.exe outputs with a golden table.

     check_golden.exe quick|full EXPECTED ACTUAL...

   [quick] checks a [--quick] run against quick.expected, [full] a full
   run against full.expected. Every line must be equal except the six
   below, which report wall clocks or work-stealing schedules; such a
   line must still be present, and is compared only up to the end of its
   label. Exit 1 on the first difference of each file, printing both
   lines. *)

(* E17 work stealing, the same at both scales *)
let stealing =
  [
    "  wall, stealing (4 domains)";
    "  critical path (slowest scenario)";
    "  stealing wall / critical path";
    "  tasks stolen";
  ]

(* E1 and E2 campaign wall clocks (and the domain count) *)
let walls = function
  | "quick" ->
      [
        "  -> 40/40 scenarios ok; campaign wall ";
        "  -> 8/8 scenarios ok; campaign wall ";
      ]
  | "full" ->
      [
        "  -> 3520/3520 scenarios ok; campaign wall ";
        "  -> 248/248 scenarios ok; campaign wall ";
      ]
  | other ->
      Printf.eprintf "check_golden.exe: unknown scale %S (quick, full)\n" other;
      exit 2

let mask masked line =
  match List.find_opt (fun prefix -> String.starts_with ~prefix line) masked with
  | Some prefix -> (prefix, true)
  | None -> (line, false)

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'

(* The file's lines with the masked ones cut to their labels; fails
   unless each label masks exactly one line. *)
let masked_lines masked file =
  let lines = List.map (mask masked) (read_lines file) in
  List.iter
    (fun prefix ->
      let hits = List.filter (fun (l, m) -> m && l = prefix) lines in
      if List.length hits <> 1 then begin
        Printf.printf "%s: %d lines start with %S, want 1\n" file
          (List.length hits) prefix;
        exit 1
      end)
    masked;
  List.map fst lines

let () =
  match Array.to_list Sys.argv with
  | _ :: scale :: expected :: (_ :: _ as actuals) ->
      let masked = walls scale @ stealing in
      let want = masked_lines masked expected in
      let ok =
        List.fold_left
          (fun ok actual ->
            let got = masked_lines masked actual in
            let rec go i = function
              | w :: ws, g :: gs when w = g -> go (i + 1) (ws, gs)
              | [], [] -> true
              | ws, gs ->
                  let first = function l :: _ -> l | [] -> "<end of file>" in
                  Printf.printf "%s:%d differs from %s\n  want: %s\n  got:  %s\n"
                    actual i expected (first ws) (first gs);
                  false
            in
            go 1 (want, got) && ok)
          true actuals
      in
      if not ok then exit 1
  | _ ->
      prerr_endline "usage: check_golden.exe quick|full EXPECTED ACTUAL...";
      exit 2
