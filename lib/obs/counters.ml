type t = {
  builds : int;
  runs : int;
  cache_hits : int;
  cache_misses : int;
  retries : int;
  build_failures : int;
  crashes : int;
  wrong_answers : int;
  timeouts : int;
  worker_crashes : int;
  outliers : int;
  quarantined : int;
  quarantine_hits : int;
  timers : (string * int) list;
}

let zero =
  {
    builds = 0;
    runs = 0;
    cache_hits = 0;
    cache_misses = 0;
    retries = 0;
    build_failures = 0;
    crashes = 0;
    wrong_answers = 0;
    timeouts = 0;
    worker_crashes = 0;
    outliers = 0;
    quarantined = 0;
    quarantine_hits = 0;
    timers = [];
  }

let rec add_timer name ns = function
  | [] -> [ (name, ns) ]
  | (n, v) :: rest when n = name -> (n, v + ns) :: rest
  | ((n, _) as timer) :: rest when n < name -> timer :: add_timer name ns rest
  | timers -> (name, ns) :: timers

let step c = function
  | Event.Cache_hit _ -> { c with cache_hits = c.cache_hits + 1 }
  | Event.Cache_miss _ -> { c with cache_misses = c.cache_misses + 1 }
  | Event.Build_done _ -> { c with builds = c.builds + 1 }
  | Event.Run_done _ -> { c with runs = c.runs + 1 }
  | Event.Retry _ -> { c with retries = c.retries + 1 }
  | Event.Fault_injected { fault = "ice"; _ } ->
      { c with build_failures = c.build_failures + 1 }
  | Event.Fault_injected { fault = "crash"; _ } ->
      { c with crashes = c.crashes + 1 }
  | Event.Fault_injected { fault = "wrong-answer"; _ } ->
      { c with wrong_answers = c.wrong_answers + 1 }
  | Event.Fault_injected { fault = "timeout"; _ } ->
      { c with timeouts = c.timeouts + 1 }
  | Event.Worker_crashed _ -> { c with worker_crashes = c.worker_crashes + 1 }
  | Event.Outlier _ -> { c with outliers = c.outliers + 1 }
  | Event.Quarantine_added _ -> { c with quarantined = c.quarantined + 1 }
  | Event.Quarantine_hit _ -> { c with quarantine_hits = c.quarantine_hits + 1 }
  | Event.Timer { name; seconds } ->
      let ns = Float.to_int (Float.round (seconds *. 1e9)) in
      { c with timers = add_timer name ns c.timers }
  | _ -> c

let faults c = c.build_failures + c.crashes + c.wrong_answers + c.timeouts

let render c =
  let total_lookups = c.cache_hits + c.cache_misses in
  let hit_pct =
    if total_lookups = 0 then 0.0
    else 100.0 *. float_of_int c.cache_hits /. float_of_int total_lookups
  in
  let b = Buffer.create 256 in
  Printf.bprintf b "  builds      %d\n  runs        %d\n" c.builds c.runs;
  Printf.bprintf b "  cache       %d hits / %d misses (%.1f%% hit rate)\n"
    c.cache_hits c.cache_misses hit_pct;
  if c.retries > 0 then Printf.bprintf b "  retries     %d\n" c.retries;
  if c.worker_crashes > 0 then
    Printf.bprintf b "  workers     %d crashed (isolated and retried)\n"
      c.worker_crashes;
  if faults c > 0 || c.quarantined > 0 || c.outliers > 0 then begin
    Printf.bprintf b
      "  faults      %d (%d build failures, %d crashes, %d wrong answers, %d \
       timeouts)\n"
      (faults c) c.build_failures c.crashes c.wrong_answers c.timeouts;
    Printf.bprintf b "  quarantine  %d vectors (%d hits avoided re-trying)\n"
      c.quarantined c.quarantine_hits;
    if c.outliers > 0 then
      Printf.bprintf b "  outliers    %d injected measurements\n" c.outliers
  end;
  List.iter
    (fun (phase, ns) ->
      Printf.bprintf b "  %-11s %.3f s\n" phase (float_of_int ns /. 1e9))
    c.timers;
  Buffer.contents b
