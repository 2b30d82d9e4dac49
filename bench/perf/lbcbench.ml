(* lbcbench: the end-to-end and per-layer benchmark behind BENCHMARK.json.

   Run from the repository root:
     lbcbench run --workload W --seed S [--seconds T] [--out FILE]
     lbcbench trace --workload W --seed S [--seconds T] [--out FILE]
     lbcbench compare BASE.json... -- NEW.json...
     lbcbench --workload W --seed S --seconds T --trace 0|1

   The last form is the one bench.sh forwards: --trace 0 is `run`,
   --trace 1 is `trace`. Both print a human table and then, as the last
   line of standard output, one JSON object with the keys correct,
   attempted, failed and metrics. Records and trace files default to
   .lbcbench/ in the current directory. *)

module J = Lbc_campaign.Jsonio
open Lbc_bench

let usage =
  "usage: lbcbench (run | trace) --workload W --seed S [--seconds T] [--out \
   FILE]\n\
  \       lbcbench compare BASE.json... -- NEW.json...\n\
  \       lbcbench --workload W --seed S --seconds T --trace 0|1\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let fail_usage msg =
  prerr_endline ("lbcbench: " ^ msg);
  prerr_endline usage;
  exit 2

type opts = {
  workload : string option;
  seed : int option;
  seconds : float;
  out : string option;
  trace : bool option;
}

let rec parse o = function
  | "--workload" :: v :: rest -> parse { o with workload = Some v } rest
  | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> parse { o with seed = Some s } rest
      | None -> fail_usage ("bad --seed " ^ v))
  | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s >= 0. -> parse { o with seconds = s } rest
      | _ -> fail_usage ("bad --seconds " ^ v))
  | "--out" :: v :: rest -> parse { o with out = Some v } rest
  | "--trace" :: v :: rest -> (
      match v with
      | "0" -> parse { o with trace = Some false } rest
      | "1" -> parse { o with trace = Some true } rest
      | _ -> fail_usage ("bad --trace " ^ v))
  | arg :: _ -> fail_usage ("unexpected argument " ^ arg)
  | [] -> o

let default_out (w : Workloads.t) seed suffix =
  if not (Sys.file_exists ".lbcbench") then Sys.mkdir ".lbcbench" 0o755;
  Filename.concat ".lbcbench" (Printf.sprintf "%s-s%d.%s.json" w.Workloads.name seed suffix)

(* The problem lines, then the result line; the exit code. *)
let finish ~attempted ~problems values =
  List.iteri (fun i p -> if i < 10 then Printf.printf "  FAILED: %s\n" p) problems;
  let failed = List.length problems in
  if failed > 10 then Printf.printf "  ... and %d more\n" (failed - 10);
  print_endline
    (J.to_string
       (Metric.result_json ~correct:(failed = 0) ~attempted ~failed values));
  if failed = 0 then 0 else 1

let run_cmd (w : Workloads.t) ~seed ~seconds ~out =
  let r = E2e.run w ~seed ~seconds in
  Printf.printf "lbcbench run: %s, seed %d, %d pass(es), %d scenarios\n"
    w.Workloads.name seed r.E2e.passes r.E2e.attempted;
  Metric.print_table r.E2e.values;
  Printf.printf "  %-32s %16s\n" "verdict_digest" r.E2e.digest;
  let path = Option.value out ~default:(default_out w seed "run") in
  Record.write ~path r;
  Printf.printf "  record -> %s\n" path;
  finish ~attempted:r.E2e.attempted ~problems:r.E2e.problems r.E2e.values

let trace_cmd (w : Workloads.t) ~seed ~seconds ~out =
  let spans = Spans.create () in
  let r = Layers.trace w ~seed ~seconds ~spans in
  Printf.printf "lbcbench trace: %s, seed %d, %d round(s), %d scenarios\n"
    w.Workloads.name seed r.Layers.rounds r.Layers.attempted;
  Metric.print_table r.Layers.values;
  let path = Option.value out ~default:(default_out w seed "trace") in
  Spans.write spans ~path;
  Printf.printf "  trace (%d spans) -> %s\n" (Spans.length spans) path;
  finish ~attempted:r.Layers.attempted ~problems:r.Layers.problems r.Layers.values

let measure ~trace args =
  let o =
    parse { workload = None; seed = None; seconds = 15.; out = None; trace = None } args
  in
  let trace = Option.value o.trace ~default:trace in
  match (o.workload, o.seed) with
  | None, _ -> fail_usage "--workload is required"
  | _, None -> fail_usage "--seed is required"
  | Some name, Some seed -> (
      match Workloads.find name with
      | None -> fail_usage ("unknown workload " ^ name)
      | Some w ->
          if trace then trace_cmd w ~seed ~seconds:o.seconds ~out:o.out
          else run_cmd w ~seed ~seconds:o.seconds ~out:o.out)

let compare_cmd args =
  let rec split acc = function
    | "--" :: next -> (List.rev acc, next)
    | x :: rest -> split (x :: acc) rest
    | [] -> fail_usage "compare needs BASE.json... -- NEW.json..."
  in
  match split [] args with
  | [], _ | _, [] -> fail_usage "compare needs records on both sides of --"
  | base, next -> Record.compare ~benchmark:"BENCHMARK.json" ~base ~next

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: args -> measure ~trace:false args
    | "trace" :: args -> measure ~trace:true args
    | "compare" :: args -> compare_cmd args
    | ("-h" | "--help" | "help") :: _ ->
        print_endline usage;
        0
    | args -> measure ~trace:false args
  in
  exit code
