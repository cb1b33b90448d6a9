(* Shared helpers for the test suites — one home for the small utilities
   every suite_*.ml used to re-invent. *)

(* Substring test (no external string library needed). *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else
    let rec at i =
      if i + n > h then false
      else if String.sub haystack i n = needle then true
      else at (i + 1)
    in
    at 0

(* A fresh path in a throwaway temp directory, for tests exercising
   on-disk persistence (cache files, checkpoints, traces). *)
let temp_path prefix suffix =
  let path = Filename.temp_file ("funcytuner-" ^ prefix) suffix in
  Sys.remove path;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

(* A fresh empty directory under the system temp dir; the caller owns
   cleanup (tests that crash leave it for the OS to reap). *)
let temp_dir prefix =
  let path = Filename.temp_file ("funcytuner-" ^ prefix) ".d" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Whole-record equality for engine counters, printing every field on a
   mismatch. *)
let counters =
  let pp ppf (c : Ft_obs.Counters.t) =
    Format.fprintf ppf
      "{builds %d; runs %d; hits %d; misses %d; retries %d; ice %d; crashes \
       %d; wrong %d; timeouts %d; worker_crashes %d; outliers %d; \
       quarantined %d; quarantine_hits %d; timers [%s]}"
      c.builds c.runs c.cache_hits c.cache_misses c.retries c.build_failures
      c.crashes c.wrong_answers c.timeouts c.worker_crashes c.outliers
      c.quarantined c.quarantine_hits
      (String.concat "; "
         (List.map (fun (n, ns) -> Printf.sprintf "%s %d ns" n ns) c.timers))
  in
  Alcotest.testable pp ( = )

(* The JSONL bytes of a logical trace in the exporter's original
   line-at-a-time form: one [Json.Obj] per event, rendered to a string and
   joined.  The streamed exporter must reproduce them byte for byte. *)
let logical_jsonl_reference trace =
  let module Json = Ft_obs.Json in
  let module Trace = Ft_obs.Trace in
  let module Event = Ft_obs.Event in
  let evs = Trace.events trace in
  let header =
    Json.Obj
      [
        ("trace", Json.String "funcytuner/1");
        ("clock", Json.String "logical");
        ("events", Json.Int (List.length evs));
      ]
  in
  let line i (st : Trace.stamped) =
    Json.Obj
      (("ts", Json.Int i)
      :: ("ev", Json.String (Event.name st.Trace.event))
      :: Event.fields st.Trace.event)
  in
  String.concat ""
    (List.map
       (fun j -> Json.to_string j ^ "\n")
       (header :: List.mapi line evs))

(* The wall-trace export oracle: the exported file loads back with every
   event, in canonical order, each [ts] the stamp's microseconds as
   seconds (exactly: both sides are the correctly rounded quotient), and
   non-decreasing within each job; and the counters derived from the
   file equal [live]. *)
let check_wall_export ~msg ~live trace =
  let module Trace = Ft_obs.Trace in
  let path = temp_path "wall-export" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> remove_if_exists path)
    (fun () ->
      Ft_obs.Export.write_jsonl ~path trace;
      match Ft_obs.Report.load path with
      | Error e -> Alcotest.failf "%s: load failed: %s" msg e
      | Ok loaded ->
          let stamps = Trace.events trace in
          let entries = loaded.Ft_obs.Report.entries in
          Alcotest.(check int)
            (msg ^ ": every event loads back")
            (List.length stamps) (List.length entries);
          ignore
            (List.fold_left2
               (fun prev (st : Trace.stamped) (e : Ft_obs.Report.entry) ->
                 if e.Ft_obs.Report.event <> st.Trace.event then
                   Alcotest.failf "%s: event out of canonical order" msg;
                 if e.Ft_obs.Report.ts <> float_of_int st.Trace.ts /. 1e6 then
                   Alcotest.failf "%s: ts %.6f is not stamp %d us" msg
                     e.Ft_obs.Report.ts st.Trace.ts;
                 (match prev with
                 | Some (serial, job, ts)
                   when serial = st.Trace.serial && job = st.Trace.job
                        && job >= 0 && e.Ft_obs.Report.ts < ts ->
                     Alcotest.failf "%s: ts decreases within job %d" msg job
                 | _ -> ());
                 Some (st.Trace.serial, st.Trace.job, e.Ft_obs.Report.ts))
               None stamps entries);
          Alcotest.check counters
            (msg ^ ": derived counters equal the live ones")
            live
            (Ft_obs.Report.derive
               (List.map (fun (e : Ft_obs.Report.entry) -> e.Ft_obs.Report.event)
                  entries)))
