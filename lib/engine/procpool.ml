(* A fixed-size pool of forked worker processes.

   [map] forks up to [workers] children *after* the job array and the
   closure exist, so both are inherited through fork-time memory and only
   plain data ever crosses a pipe: the parent feeds runs of job indices
   (length-prefixed Marshal frames, {!Ft_framing.Framing}) and each worker
   replies with one [(index, payload)] frame per job.  An idle worker is
   fed the next run from a shared queue, sized by guided self-scheduling,
   so scheduling stays dynamic like the domain {!Pool}'s queue while the
   head of a batch pays one feed per run instead of one per job.  This is
   the engine's one forked-worker substrate: [--backend processes] and
   [--backend sharded] both run on it.

   Crash isolation is the point: a worker that dies — killed by a
   signal, a nonzero exit, or a torn reply frame — loses only the job it
   was running, which is surfaced as [Error (Crashed _)] in that job's
   slot; the unstarted rest of its run goes back to the queue.  The pool
   refills itself (bounded respawns) and every other job proceeds.  The
   pool never retries a crashed job itself: retry policy belongs to the
   engine, which re-runs deterministic jobs and gets bit-identical
   values. *)

module Framing = Ft_framing.Framing

type crash = { pid : int; detail : string }

type failure =
  | Raised of string
  | Crashed of crash

let crash_to_string { pid; detail } = Printf.sprintf "worker %d %s" pid detail

let failure_to_string = function
  | Raised msg -> "raised " ^ msg
  | Crashed c -> crash_to_string c

(* Fold the framing layer's error taxonomy into a crash detail: every
   error but a clean end-of-stream means the peer must be presumed dead. *)
let torn_detail = function
  | Framing.Eof -> "eof"
  | Framing.Torn { context; got; expected } when expected < 0 ->
      Printf.sprintf "short %s (%d bytes)" context got
  | Framing.Torn { context; got; expected } ->
      Printf.sprintf "short %s (%d/%d bytes)" context got expected
  | Framing.Oversized { claimed; _ } ->
      Printf.sprintf "implausible frame length %d" claimed
  | Framing.Garbled reason -> reason

(* The one frame type of the parent->worker direction: a run of job
   indices, answered by one [(index, ('b, string) result)] frame per job,
   in run order.  [kill] instructs the worker to SIGKILL itself *before*
   running the run (which is then a single job): the deterministic chaos
   hook behind [--kill-workers-after]. *)
type request = { run : int array; kill : bool }

(* Guided self-scheduling: hand an idle worker a share of the work left,
   so the head of a batch amortizes a frame and a wakeup over many jobs
   while the tail still balances job by job. *)
let max_run = 32
let guided_run ~workers ~unfed = max 1 (min max_run (unfed / (4 * workers)))

type worker = {
  pid : int;
  job_w : Unix.file_descr;
  job_writer : Framing.Writer.t;  (* scratch-buffer reuse across feeds *)
  res_r : Unix.file_descr;
  replies : Framing.Decoder.t;  (* one read drains every arrived reply *)
  mutable run : int list;  (* fed but not yet replied, in run order *)
  mutable fed : int;
  mutable alive : bool;
  chaos_designee : bool;
}

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigbus then "SIGBUS"
  else Printf.sprintf "signal %d" s

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | _, Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | _, Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)
  | exception Unix.Unix_error _ -> "already reaped"

(* The child side: read run frames until EOF (the parent closed our
   pipe: clean retirement), run the inherited closure over each index,
   reply once per job.  Exit is always [Unix._exit], never
   [Stdlib.exit]: the child inherited the parent's channel buffers at
   fork and must not flush them a second time — stdout byte-identity
   across backends depends on it. *)
let worker_loop f a job_r res_w =
  (* One reply frame per job: marshal them all through one reusable
     scratch buffer instead of allocating per reply. *)
  let res = Framing.Writer.create res_w in
  let reply index =
    let payload =
      match f a.(index) with
      | v -> Stdlib.Ok v
      | exception e -> Stdlib.Error (Printexc.to_string e)
    in
    match Framing.Writer.write_value res (index, payload) with
    | () -> ()
    | exception _ -> Unix._exit 2
  in
  let rec loop () =
    match Framing.read_value job_r with
    | Error Framing.Eof -> Unix._exit 0
    | Error _ -> Unix._exit 3
    | Ok { run; kill } ->
        if kill then Unix.kill (Unix.getpid ()) Sys.sigkill;
        Array.iter reply run;
        loop ()
  in
  loop ()

let map ~workers ?on_result ?kill_first_worker_after f a =
  if workers < 1 then invalid_arg "Procpool.map: workers must be >= 1";
  let n = Array.length a in
  let results = Array.make n None in
  if n = 0 then [||]
  else begin
    let worker_count = min workers n in
    (* A worker dying between runs raises EPIPE on the next feed; that
       must reach our crash handling, not kill the parent. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let live = ref [] in
    let chaos_fired = ref false in
    (* The queue: indices a dead worker never started come back to its
       head, ahead of the cursor over the never-fed rest. *)
    let requeued = ref [] in
    let next = ref 0 in
    let unfed () = List.length !requeued + (n - !next) in
    let rec take k =
      if k = 0 then []
      else
        match !requeued with
        | i :: rest ->
            requeued := rest;
            i :: take (k - 1)
        | [] when !next < n ->
            let i = !next in
            incr next;
            i :: take (k - 1)
        | [] -> []
    in
    let completed = ref 0 in
    let respawns = ref 0 in
    (* Every respawn is paid for by a crash, and every crash consumes the
       head of its worker's run, so respawns are naturally bounded by
       [n]; the explicit budget only guards the no-run corner (a worker
       dying before its first run was ever fed). *)
    let respawn_budget = (2 * worker_count) + n in
    let finish i r =
      results.(i) <- Some r;
      incr completed;
      match on_result with Some cb -> cb i r | None -> ()
    in
    let spawn ~chaos_designee () =
      let job_r, job_w = Unix.pipe () in
      let res_r, res_w = Unix.pipe () in
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
          close_noerr job_w;
          close_noerr res_r;
          (* Siblings' parent-side fds were inherited too; holding their
             write ends open would mask a sibling's EOF from the parent. *)
          List.iter
            (fun w ->
              close_noerr w.job_w;
              close_noerr w.res_r)
            !live;
          worker_loop f a job_r res_w
      | pid ->
          close_noerr job_r;
          close_noerr res_w;
          let w =
            { pid; job_w; job_writer = Framing.Writer.create job_w; res_r;
              replies = Framing.Decoder.create (); run = []; fed = 0;
              alive = true; chaos_designee }
          in
          live := w :: !live
    in
    (* A dead worker loses exactly the head of its run — the job it was
       running, or (dead before reading the run) the job it would have
       run first; the rest never started and go back to the queue. *)
    let mark_dead w ~torn =
      w.alive <- false;
      live := List.filter (fun x -> x != w) !live;
      close_noerr w.job_w;
      close_noerr w.res_r;
      (* A torn frame means the stream is unusable even if the process
         is somehow still running: put it down before reaping. *)
      if torn <> None then (try Unix.kill w.pid Sys.sigkill with _ -> ());
      let status = reap w.pid in
      let detail =
        match torn with Some d -> d ^ "; " ^ status | None -> status
      in
      match w.run with
      | i :: unstarted ->
          w.run <- [];
          requeued := unstarted @ !requeued;
          finish i (Stdlib.Error (Crashed { pid = w.pid; detail }))
      | [] -> ()
    in
    (* While the chaos hook is armed but unfired, non-designees may not
       take the last jobs: the designee needs [k] completions plus one
       more feed for the kill to fire, and under an unlucky scheduler a
       starved designee could otherwise watch its siblings drain the
       whole array — leaving an armed kill that silently never happens
       (and crash-count tests that flake with machine load). *)
    let reserved_for_designee w =
      match kill_first_worker_after with
      | Some k when (not !chaos_fired) && not w.chaos_designee -> (
          match
            List.find_opt (fun x -> x.chaos_designee && x.alive) !live
          with
          | Some d -> max 0 (k + 1 - d.fed)
          | None -> 0)
      | _ -> 0
    in
    let feed w =
      let unfed = unfed () in
      if w.alive && w.run = [] && unfed > 0 then begin
        let guided = guided_run ~workers:worker_count ~unfed in
        (* The armed designee's runs stop short of its [(k+1)]-th job,
           which it is then fed alone, with the kill: exactly that job is
           lost. *)
        let size, kill =
          match kill_first_worker_after with
          | Some k when w.chaos_designee && not !chaos_fired ->
              if w.fed >= k then (1, true) else (min guided (k - w.fed), false)
          | _ -> (min guided (unfed - reserved_for_designee w), false)
        in
        if size > 0 then begin
          if kill then chaos_fired := true;
          let run = take size in
          w.fed <- w.fed + size;
          w.run <- run;
          match
            Framing.Writer.write_value w.job_writer
              { run = Array.of_list run; kill }
          with
          | () -> ()
          | exception _ ->
              (* Dead before it could read: we cannot know how much of the
                 frame it consumed, so the run's head counts as crashed;
                 the engine's retry heals it deterministically. *)
              mark_dead w ~torn:None
        end
      end
    in
    (* Replies arrive in run order; anything else is a desynchronized
       stream.  Frames decoded before an EOF or a torn tail are delivered
       first, so the casualty is always the first unreplied job. *)
    let drain w =
      let { Framing.Decoder.frames; state } =
        Framing.Decoder.pump w.replies w.res_r
      in
      let rec deliver = function
        | [] -> true
        | frame :: rest -> (
            match
              (Marshal.from_bytes frame 0 : int * ('b, string) Stdlib.result)
            with
            | exception _ ->
                mark_dead w ~torn:(Some "unmarshalable reply");
                false
            | i, payload -> (
                match w.run with
                | j :: run when j = i ->
                    w.run <- run;
                    finish i (Result.map_error (fun msg -> Raised msg) payload);
                    deliver rest
                | _ ->
                    mark_dead w ~torn:(Some "reply out of run order");
                    false))
      in
      if deliver frames then
        match state with
        | `Open -> ()
        | `Closed -> mark_dead w ~torn:None
        | `Error e -> mark_dead w ~torn:(Some (torn_detail e))
    in
    let cleanup () =
      List.iter
        (fun w ->
          close_noerr w.job_w;
          close_noerr w.res_r;
          (try Unix.kill w.pid Sys.sigkill with _ -> ());
          ignore (reap w.pid))
        !live;
      live := [];
      match old_sigpipe with
      | Some h -> (try Sys.set_signal Sys.sigpipe h with _ -> ())
      | None -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    for _ = 1 to worker_count do
      spawn ~chaos_designee:(!live = []) ()
    done;
    while !completed < n do
      (* Keep the pool at its fixed size while unassigned work remains. *)
      while
        List.length !live < worker_count
        && unfed () > 0
        && !respawns < respawn_budget
      do
        incr respawns;
        spawn ~chaos_designee:false ()
      done;
      List.iter feed !live;
      let watched = List.filter (fun w -> w.run <> []) !live in
      if watched = [] then
        (* The pool is gone and cannot be refilled; every remaining job
           is unfed.  Fail them rather than spin. *)
        List.iter
          (fun i ->
            finish i
              (Stdlib.Error
                 (Crashed
                    {
                      pid = 0;
                      detail = "no live workers (respawn budget exhausted)";
                    })))
          (take (unfed ()))
      else begin
        let fds = List.map (fun w -> w.res_r) watched in
        let ready =
          match Unix.select fds [] [] (-1.0) with
          | ready, _, _ -> ready
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            match List.find_opt (fun w -> w.res_r = fd) watched with
            | Some w when w.alive -> drain w
            | _ -> ())
          ready
      end
    done;
    Array.map (function Some r -> r | None -> assert false) results
  end
