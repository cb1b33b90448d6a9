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
