(** Checkpoint/resume for long searches.

    A checkpoint is a pair of crash-safe snapshots — the measurement {!Cache}
    at [path] and the {!Quarantine} list at [path ^ ".quarantine"] —
    refreshed every [every] state-changing engine events (new summaries
    computed or keys quarantined).  Because every search is a
    deterministic replay from its seed and the cache/quarantine only
    remove redundant work (never change a value), resuming a killed
    [funcy tune --checkpoint] is simply: reload both snapshots, re-run the
    same command, and the search fast-forwards through everything already
    measured to a bit-identical final result.

    {2 Commit protocol}

    A save touches {e three} files, so a crash mid-save could tear the
    set.  Saves are therefore one serialized transaction in a fixed
    order:

    + the quarantine snapshot ([path ^ ".quarantine"]), rewritten
      atomically ({!Atomic_file.write}), and only when it changed since
      the last commit;
    + the cache snapshot ([path]), through {!Cache.snapshot}: the first
      save of a [t] whose cache has no delta state for [path] atomically
      replaces whatever is there; every later save appends only the
      frames of entries added since, under {!Cache.with_file_lock}, and
      fsyncs them — O(delta), never a rewrite of what is committed;
    + a commit record ([path ^ ".commit"]) holding the {!Cache.mark} of
      both files — length and record-chained digest — written last,
      and only when it changed.

    A save with nothing new writes nothing, yet still runs every stage.
    The chained digest (h{_0} = MD5(header line), h{_i} = MD5(h{_i-1} ^
    record{_i}), over cache frames or quarantine lines) is extended over
    the appended records alone, so committing never re-reads a file; a
    load recomputes it in the pass that decodes the file anyway.

    Quarantine-before-cache is the safe tear direction: a crash between
    the two leaves an {e older} cache with a {e newer} quarantine, and
    deterministic replay re-measures the missing summaries while the
    extra quarantine entries are exactly what re-evaluation would have
    re-derived.  (The opposite order could pair a new cache with a stale
    quarantine and resurrect a condemned configuration.)  {!load} checks
    both files against the commit record and reports any mismatch — a
    torn save (a file shorter or longer than committed), a byte changed
    anywhere in the committed prefix, a hand-edited file — through
    [warn] before resuming.  Records written before the chain existed
    ([ft-checkpoint-commit/1], whole-file MD5s) still verify; the next
    save replaces them. *)

type t

val create :
  path:string ->
  ?every:int ->
  ?format:Cache.format ->
  ?on_write:(string -> unit) ->
  unit ->
  t
(** [every] (default 64) is the number of recorded events between
    snapshots.  Nothing is written until the first event.  [format]
    (default {!Cache.default_format}) pins the cache snapshot's on-disk
    format; {!load} auto-detects either, so resuming a text-era
    checkpoint with a binary writer just migrates it at the next save.
    [on_write] is a test hook, called inside the save transaction after
    each stage is on disk (every stage, even one with nothing new to
    write), with the stage name ["quarantine"], ["cache"]
    or ["commit"] — crash-injection tests raise from it to tear a save
    at a chosen point. *)

val path : t -> string
val quarantine_path : t -> string

val commit_path : t -> string
(** The commit record ([path ^ ".commit"]): the magic line
    [ft-checkpoint-commit/2], then [cache <bytes> <hex chain>] and
    [quarantine <bytes> <hex chain>], written last. *)

val files : t -> string list
(** Every file a checkpoint may leave behind: both snapshots, the commit
    record and the cache's [path ^ ".lock"] sidecar — what a caller
    removes once the checkpoint has served its purpose. *)

val exists : t -> bool
(** Does a cache snapshot already exist on disk (i.e. can we resume)? *)

val load :
  ?warn:(line:int -> reason:string -> unit) ->
  t ->
  (Cache.t * Quarantine.t) option
(** Reload the snapshots, or [None] when there is nothing to resume from.
    A missing quarantine file (e.g. pre-fault checkpoints) yields an empty
    quarantine.  Malformed entries are skipped through [warn].  Commit
    protocol violations — a missing or malformed commit record, or a
    snapshot whose mark does not match it — are also reported through
    [warn] (with [line = 0]); the load still proceeds, because replay
    heals any tear the protocol's write order can produce.  The load
    also seeds [t]'s save state, and the returned cache's delta state,
    from what it read: a resume's next save writes only news.
    @raise Cache.Corrupt / Quarantine.Corrupt if a file exists but is not
    a snapshot at all. *)

val tick : t -> cache:Cache.t -> quarantine:Quarantine.t -> bool
(** Record one state-changing event (a summary computed or adopted, a
    key quarantined); saves both snapshots (as one commit transaction)
    when [every] events have accumulated since the last save (returning
    [true] iff this call saved, so the engine can trace the save).
    Thread-safe: the event counter is its own fine-grained lock,
    and concurrent due-savers serialize on a dedicated save lock so
    interleaved writes can never pair a cache from save A with a
    quarantine from save B. *)

val flush : t -> cache:Cache.t -> quarantine:Quarantine.t -> unit
(** Unconditional snapshot (called at the end of a run, and by the
    [--die-after] crash hook just before the simulated kill). *)
