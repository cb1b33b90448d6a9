(* A fixed-size pool of forked worker processes.

   [map] forks up to [workers] children *after* the job array and the
   closure exist, so both are inherited through fork-time memory and only
   plain data ever crosses a pipe: the parent feeds job indices
   (length-prefixed Marshal frames, {!Ft_framing.Framing}) and each worker
   replies with [(index, payload)] frames.  Workers are fed one job at a
   time from a shared cursor, so scheduling is dynamic exactly like the
   domain {!Pool}'s queue.  This is the engine's one forked-worker
   substrate: [--backend processes] and [--backend sharded] both run on it.

   Crash isolation is the point: a worker that dies — killed by a
   signal, a nonzero exit, or a torn reply frame — loses only its
   in-flight job, which is surfaced as [Error (Crashed _)] in that job's
   slot.  The pool refills itself (bounded respawns) and every other job
   proceeds.  The pool never retries a crashed job itself: retry policy
   belongs to the engine, which re-runs deterministic jobs and gets
   bit-identical values. *)

module Framing = Ft_framing.Framing

type crash = { pid : int; detail : string }

type failure =
  | Raised of string
  | Crashed of crash

let crash_to_string { pid; detail } = Printf.sprintf "worker %d %s" pid detail

let failure_to_string = function
  | Raised msg -> "raised " ^ msg
  | Crashed c -> crash_to_string c

(* Fold the framing layer's error taxonomy into the two cases the crash
   handling below distinguishes: a clean end-of-stream versus a torn
   stream, which means the peer must be presumed dead. *)
let read fd =
  match Framing.read_value fd with
  | Ok v -> Ok v
  | Error Framing.Eof -> Error `Eof
  | Error (Framing.Torn { context; got; expected }) ->
      Error
        (`Torn (Printf.sprintf "short %s (%d/%d bytes)" context got expected))
  | Error (Framing.Oversized { claimed; _ }) ->
      Error (`Torn (Printf.sprintf "implausible frame length %d" claimed))
  | Error (Framing.Garbled reason) -> Error (`Torn reason)

(* The one frame type of the parent->worker direction; worker->parent
   frames are [(index, ('b, string) result)].  A [kill] job instructs the
   worker to SIGKILL itself *before* running the job: the deterministic
   chaos hook behind [--kill-workers-after]. *)
type request = { index : int; kill : bool }

type worker = {
  pid : int;
  job_w : Unix.file_descr;
  job_writer : Framing.Writer.t;  (* scratch-buffer reuse across feeds *)
  res_r : Unix.file_descr;
  mutable inflight : int option;
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

(* The child side: read index frames until EOF (the parent closed our
   pipe: clean retirement), run the inherited closure, reply.  Exit is
   always [Unix._exit], never [Stdlib.exit]: the child inherited the
   parent's channel buffers at fork and must not flush them a second
   time — stdout byte-identity across backends depends on it. *)
let worker_loop f a job_r res_w =
  (* One reply frame per job: marshal them all through one reusable
     scratch buffer instead of allocating per reply. *)
  let res = Framing.Writer.create res_w in
  let rec loop () =
    match read job_r with
    | Error `Eof -> Unix._exit 0
    | Error (`Torn _) -> Unix._exit 3
    | Ok { index; kill } ->
        if kill then Unix.kill (Unix.getpid ()) Sys.sigkill;
        let payload =
          match f a.(index) with
          | v -> Stdlib.Ok v
          | exception e -> Stdlib.Error (Printexc.to_string e)
        in
        (match Framing.Writer.write_value res (index, payload) with
        | () -> ()
        | exception _ -> Unix._exit 2);
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
    (* A worker dying between jobs raises EPIPE on the next feed; that
       must reach our crash handling, not kill the parent. *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let live = ref [] in
    let chaos_fired = ref false in
    let next = ref 0 in
    let completed = ref 0 in
    let respawns = ref 0 in
    (* Every respawn is paid for by a crash, and every crash consumes its
       in-flight job, so respawns are naturally bounded by [n]; the
       explicit budget only guards the no-in-flight corner (a worker
       dying before its first job was ever fed). *)
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
              inflight = None; fed = 0; alive = true; chaos_designee }
          in
          live := w :: !live
    in
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
      match w.inflight with
      | Some i ->
          w.inflight <- None;
          finish i (Stdlib.Error (Crashed { pid = w.pid; detail }))
      | None -> ()
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
      if
        w.alive && w.inflight = None
        && n - !next > reserved_for_designee w
      then begin
        let i = !next in
        incr next;
        let kill =
          match kill_first_worker_after with
          | Some k when w.chaos_designee && (not !chaos_fired) && w.fed >= k ->
              chaos_fired := true;
              true
          | _ -> false
        in
        w.fed <- w.fed + 1;
        w.inflight <- Some i;
        match Framing.Writer.write_value w.job_writer { index = i; kill } with
        | () -> ()
        | exception _ ->
            (* Dead before it could read: we cannot know how much of the
               frame it consumed, so the job counts as crashed; the
               engine's retry heals it deterministically. *)
            mark_dead w ~torn:None
      end
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
        && !next < n
        && !respawns < respawn_budget
      do
        incr respawns;
        spawn ~chaos_designee:false ()
      done;
      List.iter feed (List.filter (fun w -> w.inflight = None) !live);
      let watched = List.filter (fun w -> w.inflight <> None) !live in
      if watched = [] then begin
        (* The pool is gone and cannot be refilled; every remaining job
           is unfed.  Fail them rather than spin. *)
        for i = !next to n - 1 do
          finish i
            (Stdlib.Error
               (Crashed
                  {
                    pid = 0;
                    detail = "no live workers (respawn budget exhausted)";
                  }))
        done;
        next := n;
        assert (!completed = n)
      end
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
            | Some w when w.alive -> (
                match read fd with
                | Ok (i, payload) ->
                    w.inflight <- None;
                    finish i
                      (match payload with
                      | Stdlib.Ok v -> Stdlib.Ok v
                      | Stdlib.Error msg -> Stdlib.Error (Raised msg))
                | Error `Eof -> mark_dead w ~torn:None
                | Error (`Torn d) -> mark_dead w ~torn:(Some d))
            | _ -> ())
          ready
      end
    done;
    Array.map (function Some r -> r | None -> assert false) results
  end
