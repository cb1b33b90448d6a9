(** A fixed-size pool of forked worker processes — the crash-isolated
    sibling of the domain {!Pool}, and the engine's one forked-worker
    substrate: [--backend processes] sizes it by [--jobs],
    [--backend sharded] by [--nodes].

    {!map} forks its workers {e after} the closure and job array exist,
    so both sides of the protocol share them through fork-time memory
    and the pipes carry only plain data (length-prefixed Marshal frames
    of {!Ft_framing.Framing}: runs of job indices down, one
    [(index, payload)] reply per job up).  A frame that ends or
    desynchronizes mid-payload is a {e torn} frame, the signature of a
    worker that died mid-write.  Results land by submission index, like
    the domain pool.

    {2 Guided runs}

    Scheduling is dynamic: a worker that has replied to its whole run is
    fed the next run from a shared queue.  The run size is derived from
    the work left, guided-self-scheduling style —
    [clamp 1 32 (unfed / (4 * workers))] — so the head of a batch pays
    one feed frame and one wakeup per run, and the tail still balances
    job by job.  There is no knob.  The parent reads replies through a
    {!Ft_framing.Framing.Decoder}, so one [read] drains every reply that
    has arrived.

    {2 Crash taxonomy}

    A worker can die by signal (OOM kill, SIGSEGV, the chaos hook), by
    nonzero exit, or by desynchronizing its reply stream (a torn frame,
    or a reply out of run order).  All surface the same way: the first
    unreplied job of the worker's run — the one it was running — finishes
    as [Error (Crashed { pid; detail })], the worker is reaped, and the
    pool forks a replacement (bounded by a respawn budget, since a
    systematically lethal closure must not fork-bomb).  The unstarted
    rest of the run goes back to the head of the queue and is not
    counted; jobs already replied keep their results.  The pool never
    re-runs a crashed job itself — that retry decision (and its
    determinism argument) belongs to {!Engine}.

    {b Fork vs. domains}: the runtime refuses [Unix.fork] in any process
    that has ever spawned a domain, so a process must commit to one
    backend before any [jobs > 1] domain work runs ([jobs = 1] on the
    domain pool is strictly sequential and spawns none).  The CLI's
    [--backend] flag satisfies this naturally; tests that mix backends
    run in separate binaries ([test/test_backend.ml]). *)

type crash = { pid : int; detail : string }
(** [detail] is human-readable: ["killed by SIGKILL"], ["exited 3"],
    ["short payload (12/96 bytes); killed by SIGKILL"]. *)

type failure =
  | Raised of string
      (** the closure raised inside a healthy worker; payload is
          [Printexc.to_string] of the exception (the worker survives) *)
  | Crashed of crash  (** the worker process itself died *)

val crash_to_string : crash -> string
val failure_to_string : failure -> string

val map :
  workers:int ->
  ?on_result:(int -> ('b, failure) result -> unit) ->
  ?kill_first_worker_after:int ->
  ('a -> 'b) ->
  'a array ->
  ('b, failure) result array
(** [map ~workers f a] runs [f] over [a] on up to [workers] forked
    processes and returns per-index results in submission order.

    [on_result] is invoked in the {e parent}, once per index, as each
    reply frame (or crash) arrives — the engine uses it to merge worker
    shipments and advance progress mid-batch.

    [kill_first_worker_after:k] is the deterministic chaos hook: the
    first worker spawned SIGKILLs itself when fed its [(k+1)]-th job
    (i.e. after completing [k]), once per [map] call — exercising the
    whole crash path (in-flight job loss, reap, respawn) on demand.
    While the hook is armed, the designee's runs are cut short of that
    job, which it is then fed alone: exactly that one job is lost.

    The closure and array are captured by fork, so [f] may close over
    anything; only its {e result} must be Marshal-safe plain data.
    @raise Invalid_argument if [workers < 1]. *)
