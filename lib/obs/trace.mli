(** The event sink: where every engine, search and server fact enters.

    {2 Emission}

    {!emit} is the one emit point.  It folds the event, at its full
    wall-level detail, into the sink's {!Counters} (the live [--stats]
    numbers), then buffers the clock's {e projection} of it (see Clock
    modes).  A counting-only sink ({!counting}, what an engine gets when
    no trace is asked for) folds and buffers nothing, allocates no batch
    serials and opens no job scopes, so an untraced run records nothing.

    {2 Recording}

    A trace is shared by the main thread and every worker domain of the
    engine pool.  To keep recording cheap and contention-free, events land
    in one of a fixed set of mutex-sharded buffers keyed by the recording
    domain; ordering is reconstructed afterwards (see below), never from
    arrival time.

    {2 Ordering and determinism}

    Each event is stamped with a three-part key [(serial, job, seq)]:

    - main-thread events draw [serial] from an atomic counter (the main
      thread is sequential, so this order is deterministic) with
      [job = -1];
    - a batch handed to the pool takes {e one} serial for all its jobs;
      within it each job is identified by its submission index [job], and
      its events by a per-job sequence number [seq].

    Sorting by this key yields the {e canonical order}: exactly the order
    a sequential ([--jobs 1]) run would have recorded.  Because each
    engine job's computation is a pure function of the job description,
    the events a job emits are schedule-independent, so the sorted event
    list — and hence the exported logical-clock trace bytes — is
    bit-identical at any worker count.

    {2 Clock modes}

    [Wall] stamps events with whole microseconds since the sink's epoch
    (its creation, on the wall clock) and buffers every event as
    emitted, including the schedule-dependent ones (hit/miss split,
    builds/runs performed, timer accumulations, checkpoint saves/loads,
    quarantine insertions, worker crashes), so an exported wall trace
    folds back to exactly the live counters.
    [Logical] projects those away — a hit or miss is buffered as
    {!Event.Cache_query}, the rest are dropped — and stamps nothing but
    the canonical order itself, making the exported bytes reproducible. *)

type clock = Wall | Logical

val clock_name : clock -> string
(** ["wall"] / ["logical"]. *)

val clock_of_name : string -> clock option

type t

val create : ?clock:clock -> unit -> t
(** A fresh, empty trace ([clock] defaults to [Wall]). *)

val counting : unit -> t
(** A counting-only sink: it folds every event into its counters and
    buffers none ({!events} stays empty). *)

val clock : t -> clock

val counters : t -> Counters.t
(** Everything emitted into (or replayed onto) this sink so far, folded. *)

val emit : t -> Event.t -> unit
(** The emit point: fold [event] into the counters, then buffer the
    clock's projection of it, stamped in the current job scope (if any). *)

type stamped = {
  serial : int;  (** main-thread sequence number, or the batch's *)
  job : int;  (** submission index within the batch; [-1] on the main thread *)
  seq : int;  (** per-job event sequence number *)
  ts : int;
      (** microseconds since the sink's epoch ([Wall]); [0] in [Logical] *)
  event : Event.t;
}

val events : t -> stamped list
(** All recorded events in canonical [(serial, job, seq)] order. *)

val epoch : t -> int
(** The trace's creation time in absolute wall-clock microseconds, i.e.
    what [Wall] timestamps are relative to.  A worker process ships this
    with its events so {!replay} can rebase them onto the parent's
    epoch. *)

val replay : t -> epoch:int -> stamped list -> unit
(** Emit the stamps a forked worker's shadow sink recorded (a [Wall]
    trace, so unprojected) through this sink's emit point: each event is
    folded into the counters and its projection buffered under its
    original canonical key — the parent allocated the batch serial
    before forking, so the keys already sort correctly.  [Wall]
    timestamps are rebased from the shadow's [epoch] onto this trace's;
    [Logical] ones are 0.  The whole list is one step for the sink: its
    events are folded into one counters value published at once, and
    their projections are buffered under one lock acquisition. *)

val length : t -> int

(* -- structure: batches, job scopes, phase spans, timers -------------- *)

val batch : t -> size:int -> int
(** Record a {!Event.Batch_submitted} and return the batch serial to pass
    to {!in_job} (0 on a counting-only sink — the value is then unused). *)

val in_job : t -> batch:int -> index:int -> (unit -> 'a) -> 'a
(** Run a job's body with emissions attributed to [(batch, index)] via
    domain-local state.  Scopes nest save/restore, so a sequential pool
    running jobs on the main domain is handled too. *)

val span : t -> Event.phase -> (unit -> 'a) -> 'a
(** Bracket [f] with {!Event.Phase_begin}/{!Event.Phase_end} (emitted even
    if [f] raises). *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] and emits its duration, measured on the
    monotonic {!Ft_util.Clock.now}, as an {!Event.Timer} [name] (even if
    [f] raises): the [--stats] phase timers.  Timed phases inside
    parallel workers accumulate CPU-side: their sum may exceed elapsed
    wall time. *)

(** {2 Resume-invariant normalization}

    The selfcheck oracle compares the trace of an uninterrupted run with
    the trace of a killed-and-resumed one.  Those traces are {e not}
    byte-identical, for exactly two documented reasons, and normalization
    removes exactly them:

    - {b schedule detail}: the [Wall]-only events (hit/miss split, builds,
      runs, timers, checkpoint saves/loads, quarantine insertions, worker
      crashes) depend on what the cache already held and who raced whom —
      [Cache_hit]/[Cache_miss] are collapsed to {!Event.Cache_query}, the
      rest are dropped (a [Logical] trace never records them anyway);
    - {b the resume boundary}: a key whose fault verdict was quarantined
      before the kill replays after resume as a single [Quarantine_hit]
      where the original run recorded the [Fault_injected]/[Retry]
      evidence for the same verdict — all three are dropped, leaving the
      schedule-independent [Job_finished] outcome (which must and does
      agree) to carry the comparison.  For the same reason, [Cache_query]
      events whose key satisfies [is_quarantined] (the caller passes the
      run's {e final} quarantine membership — itself compared separately,
      byte-for-byte) are dropped: deriving a crash/timeout/miscompile
      verdict queries the cache on the way to the fault, replaying it
      from a snapshot does not.

    Server request-lifecycle events describe live traffic, which no
    resume owes anything, and are dropped as well.  Everything else —
    batch structure, job starts/finishes with outcomes, cache queries,
    outlier degradations, phase spans, prune and rung decisions — must
    be byte-identical between a fresh and a resumed run, at any
    [--jobs] count, on either backend. *)

val normalized_lines : ?is_quarantined:(string -> bool) -> t -> string list
(** The resume-invariant skeleton of the trace: events in canonical
    order, filtered and projected as above, each rendered as a compact
    JSON line (no stamps — sequence numbers shift where events were
    dropped, and position in the list already encodes the order). *)
