(* Streaming verdict journal: the crash-survivable progress format.

   Layout: one JSON header line (text, newline-terminated — greppable, and
   validated against the run's identity on resume), followed by
   binary-framed records, one per scenario verdict:

       [4-byte BE payload length] [payload bytes] [4-byte BE CRC32]

   The payload is a compact JSON object carrying the scenario index, its
   wall time, its algorithm tag, its observability counters and the full
   verdict. Each append is flushed before returning, so after a crash the
   file holds every completed verdict plus at most one torn record. On
   recovery the frame scan stops at the first violation (short frame,
   oversized length, CRC mismatch, unparseable payload), the torn tail is
   physically truncated so subsequent appends re-frame cleanly, and the
   damage is reported (record ordinal, byte count) rather than silently
   dropped. *)

type header = {
  campaign : string;
  count : int;
  base_seed : int;
  budget : int;  (** round budget ([0] = none) — part of verdict identity *)
  fingerprint : string;
}

type record = {
  index : int;
  wall_s : float;
  algo : string;
  counters : (string * int) list;
  verdict : Scenario.verdict;
}

type recovery = {
  recovered : int;  (** intact records adopted from the file *)
  dropped_bytes : int;  (** torn/corrupt tail bytes truncated away *)
  first_corrupt : int option;
      (** 1-based ordinal of the first corrupt record, when any *)
  stale : bool;  (** a file for a different grid was discarded whole *)
}

let no_recovery =
  { recovered = 0; dropped_bytes = 0; first_corrupt = None; stale = false }

exception Killed of { appended : int }

let () =
  Printexc.register_printer (function
    | Killed { appended } ->
        Some
          (Printf.sprintf "Journal.Killed(after %d appended records)" appended)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, poly 0xEDB88320)                      *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Header                                                              *)
(* ------------------------------------------------------------------ *)

let format_tag = "lbc-campaign-journal/1"

let header_json h =
  Jsonio.Obj
    [
      ("format", Jsonio.Str format_tag);
      ("campaign", Jsonio.Str h.campaign);
      ("count", Jsonio.Int h.count);
      ("base_seed", Jsonio.Int h.base_seed);
      ("budget", Jsonio.Int h.budget);
      ("fingerprint", Jsonio.Str h.fingerprint);
    ]

let header_matches h j =
  let str k = Option.bind (Jsonio.member k j) Jsonio.to_str in
  let int k = Option.bind (Jsonio.member k j) Jsonio.to_int in
  str "format" = Some format_tag
  && str "campaign" = Some h.campaign
  && int "count" = Some h.count
  && int "base_seed" = Some h.base_seed
  && int "budget" = Some h.budget
  && str "fingerprint" = Some h.fingerprint

(* ------------------------------------------------------------------ *)
(* Record payloads                                                     *)
(* ------------------------------------------------------------------ *)

let record_json r =
  Jsonio.Obj
    [
      ("i", Jsonio.Int r.index);
      ("wall_s", Jsonio.Float r.wall_s);
      ("algo", Jsonio.Str r.algo);
      ( "counters",
        Jsonio.Obj (List.map (fun (k, v) -> (k, Jsonio.Int v)) r.counters) );
      ("verdict", Scenario.verdict_to_json r.verdict);
    ]

let record_of_json j =
  match
    ( Option.bind (Jsonio.member "i" j) Jsonio.to_int,
      Option.bind (Jsonio.member "wall_s" j) Jsonio.to_float,
      Option.bind (Jsonio.member "algo" j) Jsonio.to_str,
      Jsonio.member "counters" j,
      Jsonio.member "verdict" j )
  with
  | Some index, Some wall_s, Some algo, Some (Jsonio.Obj cs), Some vj -> (
      match Scenario.verdict_of_json vj with
      | Error _ -> None
      | Ok verdict ->
          let counters =
            List.filter_map
              (fun (k, v) -> Option.map (fun i -> (k, i)) (Jsonio.to_int v))
              cs
          in
          Some
            {
              index;
              (* Clamp: a clock step backwards mid-scenario, or a
                 damaged record, must not surface as negative wall
                 time in the resumed artifact. *)
              wall_s = Float.max 0.0 wall_s;
              algo;
              counters;
              verdict;
            })
  | _ -> None

(* A corrupt length prefix must not drive a gigabyte allocation: no real
   verdict payload comes anywhere near this. *)
let max_payload = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Recovery scan                                                       *)
(* ------------------------------------------------------------------ *)

let read_exact ic n =
  let b = Bytes.create n in
  match really_input ic b 0 n with
  | () -> Some (Bytes.unsafe_to_string b)
  | exception End_of_file -> None

let scan ic ~header =
  match input_line ic with
  | exception End_of_file -> `Fresh
  | first -> (
      match Jsonio.of_string first with
      | Ok hj when header_matches header hj ->
          let good_end = ref (pos_in ic) in
          let records = ref [] in
          let corrupt = ref false in
          (try
             while not !corrupt do
               match read_exact ic 4 with
               | None ->
                   if pos_in ic > !good_end then corrupt := true
                   else raise Exit
               | Some lenb -> (
                   let len = Int32.to_int (String.get_int32_be lenb 0) in
                   if len <= 0 || len > max_payload then corrupt := true
                   else
                     match read_exact ic len with
                     | None -> corrupt := true
                     | Some payload -> (
                         match read_exact ic 4 with
                         | None -> corrupt := true
                         | Some crcb ->
                             let crc =
                               Int32.to_int (String.get_int32_be crcb 0)
                               land 0xFFFFFFFF
                             in
                             if crc <> crc32 payload then corrupt := true
                             else
                               match
                                 Result.to_option (Jsonio.of_string payload)
                                 |> Fun.flip Option.bind record_of_json
                               with
                               | None -> corrupt := true
                               | Some r ->
                                   records := r :: !records;
                                   good_end := pos_in ic))
             done
           with Exit -> ());
          `Recovered (List.rev !records, !good_end, !corrupt)
      | _ -> `Stale)

let recover ~path ~header =
  match open_in_bin path with
  | exception Sys_error _ -> ([], no_recovery)
  | ic -> (
      let total = in_channel_length ic in
      let outcome =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
            scan ic ~header)
      in
      match outcome with
      | `Fresh -> ([], no_recovery)
      | `Stale ->
          (* A journal for a different grid (or format) is discarded
             whole, never mixed — the caller's writer will start fresh. *)
          (try Sys.remove path with Sys_error _ -> ());
          ([], { no_recovery with stale = true })
      | `Recovered (records, good_end, corrupt) ->
          let dropped = total - good_end in
          (* Physically truncate the torn tail so subsequent appends
             re-frame at a record boundary instead of extending garbage. *)
          if dropped > 0 then Unix.truncate path good_end;
          ( records,
            {
              recovered = List.length records;
              dropped_bytes = dropped;
              first_corrupt =
                (if corrupt then Some (List.length records + 1) else None);
              stale = false;
            } ))

let read ~path ~header =
  match open_in_bin path with
  | exception Sys_error _ -> ([], no_recovery)
  | ic -> (
      let total = in_channel_length ic in
      let outcome =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
            scan ic ~header)
      in
      match outcome with
      | `Fresh -> ([], no_recovery)
      | `Stale -> ([], { no_recovery with stale = true })
      | `Recovered (records, good_end, corrupt) ->
          ( records,
            {
              recovered = List.length records;
              dropped_bytes = total - good_end;
              first_corrupt =
                (if corrupt then Some (List.length records + 1) else None);
              stale = false;
            } ))

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type kill = { after : int; torn : bool }

type writer = {
  oc : out_channel;
  kill : kill option;
  mutable appended : int;
}

let frame payload =
  let len = String.length payload in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  let prefix = Bytes.unsafe_to_string b in
  let c = Bytes.create 4 in
  Bytes.set_int32_be c 0 (Int32.of_int (crc32 payload));
  (prefix, Bytes.unsafe_to_string c)

let open_writer ~path ~header ?kill () =
  let existed =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        let n = in_channel_length ic in
        close_in_noerr ic;
        n > 0
  in
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644
      path
  in
  if not existed then begin
    output_string oc (Jsonio.to_string (header_json header));
    output_char oc '\n';
    flush oc
  end;
  { oc; kill; appended = 0 }

let append w r =
  (match w.kill with
  | Some k when w.appended >= k.after ->
      (* The kill-point shim: simulate a crash at this exact journal
         position. [torn] additionally writes a half record — a length
         prefix and a payload fragment with no CRC — the shape a real
         kill mid-[output_string] leaves behind. *)
      (if k.torn then begin
         let payload = Jsonio.to_string (record_json r) in
         let prefix, _crc = frame payload in
         output_string w.oc prefix;
         output_string w.oc
           (String.sub payload 0 (max 1 (String.length payload / 2)));
         flush w.oc
       end);
      raise (Killed { appended = w.appended })
  | Some _ | None -> ());
  let payload = Jsonio.to_string (record_json r) in
  let prefix, crc = frame payload in
  output_string w.oc prefix;
  output_string w.oc payload;
  output_string w.oc crc;
  flush w.oc;
  w.appended <- w.appended + 1

let close w = close_out_noerr w.oc
let remove ~path = try Sys.remove path with Sys_error _ -> ()
