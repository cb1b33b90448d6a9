(** Content-addressed measurement cache.

    The engine memoizes the {e noise-free} summary of every binary it has
    evaluated, keyed by a digest of everything that determines the binary
    and its execution: program, platform, compiler vendor, input size and
    steps, the full per-module CV assignment (or the single whole-program
    CV), and the instrumentation flag.  Measurement noise is deliberately
    {e outside} the cache — it is drawn per job from the job's own RNG
    stream — so a cache hit returns bit-identical results to a recompute,
    and warming the cache can never change a search's outcome.

    The table is mutex-protected; concurrent workers racing on one key at
    worst both compute the (identical, pure) summary and one write wins.

    {2 On-disk formats}

    Two formats share the loader, selected by the magic first line:

    - {e binary} (v2, the default writer): {!Cache_codec}'s append-only
      length-prefixed records — the fast path, and the format {!sync}
      appends deltas to;
    - {e text} (v1): one line per entry with floats rendered in
      hexadecimal ([%h]) — human-inspectable, still written under
      [~format:Text].

    Both round-trip floats bit-exactly (text via [%h], binary via the
    IEEE-754 bits themselves), so a re-run of yesterday's experiment, or
    a greedy run sharing a collection with CFR, never re-measures a
    binary it has seen — whichever format wrote the file. *)

type t

type format = Text | Binary

val default_format : format
(** {!Binary}. *)

val format_to_string : format -> string
(** ["text"] / ["binary"] (the [--cache-format] spellings). *)

val format_of_string : string -> format option

val create : unit -> t

val digest : string -> string
(** Digest of a canonical key description (hex MD5); the engine builds the
    canonical string, this fixes the addressing scheme. *)

val find : t -> string -> Ft_machine.Exec.summary option
val add : t -> string -> Ft_machine.Exec.summary -> unit
val length : t -> int

val bindings : t -> (string * Ft_machine.Exec.summary) list
(** All entries, sorted by key (deterministic; used by [save] and tests). *)

val save : ?format:format -> t -> path:string -> unit
(** Write every entry to [path] in [format] (default {!default_format}),
    atomically: the table is written to a temporary file in the same
    directory and renamed over [path], so a crash mid-save can never
    leave a truncated cache on disk ({!Atomic_file}).
    @raise Invalid_argument if a region name cannot be encoded. *)

exception Corrupt of { path : string; line : int; reason : string }
(** Raised by {!load} when the file is not an engine cache at all (missing
    or invalid magic header), with the offending line number. *)

val load : ?warn:(line:int -> reason:string -> unit) -> string -> t
(** [load path] reads a table written by {!save} in {e either} format,
    auto-detected from the magic line.  Malformed entries {e after} a
    valid magic header (torn writes, bit rot) are skipped, reporting each
    to [warn] with its line number — for binary files, the record
    ordinal offset by the header line — and a reason (default: one
    warning line on stderr), rather than aborting the load: a partially
    corrupt cache still resumes everything that survived.  A tail not
    sealed by its commit marker (text: the terminating newline; binary:
    the full length-prefixed frame) is treated as torn and skipped too,
    {e even if it would parse}: a float truncated mid-digits is a
    different valid float, so only fully committed records are trusted.
    Before reading, stale {!Atomic_file} temporaries around [path]
    (orphans of writers SIGKILLed mid-save, older than the grace
    period) are swept under {!with_file_lock} — the lock is only taken
    when litter actually exists.  A clean binary file (no torn tail, no
    malformed record) leaves the returned table with delta state for
    [path], so its next {!sync} or {!snapshot} there touches only news.
    @raise Corrupt when the header is missing, wrong or truncated;
    [Sys_error] if the file is unreadable. *)

val merge : t -> from:t -> int
(** Adopt every binding of [from] that [t] lacks (existing keys win —
    values for equal keys are bit-identical by the determinism argument,
    so precedence is moot).  Returns the number adopted. *)

val with_file_lock : path:string -> (unit -> 'a) -> 'a
(** Run [f] holding an exclusive advisory lock on [path ^ ".lock"]
    (created on demand; blocks until granted; released even if [f]
    raises).  The sidecar file, not [path] itself, carries the lock:
    {!save} replaces [path] by rename, which would orphan a lock held on
    the data file's own inode. *)

val sync :
  ?warn:(line:int -> reason:string -> unit) ->
  ?format:format ->
  t ->
  path:string ->
  int
(** Reconcile [t] with the shared file at [path] under {!with_file_lock}:
    adopt every on-disk entry [t] lacks, then make the file hold the
    union.  The primitive behind [--shared-cache] — any number of
    concurrent funcy processes can sync against one file and every
    committed entry survives.  Returns the number of entries adopted
    {e from} the file.

    With [~format:Binary] (the default) this is O(delta), journal-style:
    the first sync against a file reads it once (migrating a v1 text
    file to binary in place); every later sync reads only the bytes
    appended since, truncates any torn tail left by a writer killed
    mid-append (safe under the exclusive lock), and appends only entries
    the file does not already hold, fsyncing before the lock is
    released.  The file is compacted — atomically rewritten with one
    record per key — when a scan finds malformed records or when
    duplicate frames from racing appenders exceed twice the distinct
    keys.  A file replaced or truncated behind our back (the dev/ino
    pair changes, or the size shrinks) is detected and re-read in full.

    With [~format:Text] it is the v1 whole-file read-merge-write, kept
    for golden tests and human-inspectable shared caches.

    The held lock also pays for an {!Atomic_file.sweep}, reclaiming
    stale temporaries left by SIGKILLed writers: on every text sync, and
    for binary on first contact with a file (or whenever it must be
    re-read in full), so a delta sync never scans the directory.  The
    entries to append are found through an insertion log, so a sync
    with little news costs little however large the table.

    @raise Corrupt as {!load}. *)

(** {2 Checkpoint snapshots}

    {!Checkpoint} keeps its cache snapshot on the same delta path as
    {!sync}, and proves each save with a {!mark}. *)

type mark = { bytes : int; chain : Digest.t }
(** What a commit record pins about one file: its length in bytes and
    the chained digest of its records, h{_0} = MD5(header line),
    h{_i} = MD5(h{_i-1} ^ record{_i}).  Records are whole frames for a
    binary file and newline-terminated lines for a line-oriented one; a
    torn tail counts in [bytes] but never in the chain.  Appending
    records extends a mark without reading the prefix it covers, and a
    byte changed anywhere in that prefix changes the chain. *)

val mark_lines : string -> mark
(** The mark of a line-oriented file's contents (header = first line):
    text caches, quarantine snapshots. *)

val snapshot : ?format:format -> t -> path:string -> mark
(** Make the file at [path] hold every entry of [t] and return its mark.
    With [~format:Binary] (the default) this is {!sync}'s delta path
    under {!with_file_lock}: when [t] holds delta state for [path] — from
    an earlier [snapshot], a {!sync} or a {!load}, and the file
    is still the one it describes — only entries added since are
    appended and fsynced, and with none nothing is written.  Without
    such state whatever is at [path] is replaced by an atomic full
    rewrite, and delta state is installed from it.  [~format:Text] is
    always an atomic full rewrite.
    @raise Invalid_argument as {!save}. *)

val load_snapshot :
  ?warn:(line:int -> reason:string -> unit) -> string -> t * mark
(** {!load}, also returning the file's {!mark}, computed in the decoding
    pass.
    @raise Corrupt as {!load}. *)
