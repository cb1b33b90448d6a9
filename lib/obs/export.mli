(** Trace serialization: JSONL (the native format {!Report} reads back)
    and Chrome [trace_event] JSON for [chrome://tracing] / Perfetto.

    {2 JSONL}

    Line 1 is a header object
    [{"trace":"funcytuner/1","clock":...,"events":N}]; each further line
    is one event: [{"ts":...,"ev":...,<payload fields>}].  Under a
    logical clock [ts] is the event's ordinal in canonical order (an
    int).  Under a wall clock it is the event's stamp, whole
    microseconds since the sink's epoch, printed as seconds with exactly
    six decimals ([<s>.<6 digits>], e.g. [0.000000], [12.000345],
    [1234.999999]) by integer arithmetic — an ordinary JSON number that
    {!Report} reads back as seconds.  All rendering is deterministic, so
    logical-clock files are byte-comparable across runs and worker
    counts.

    {2 Chrome}

    One [{"traceEvents":[...]}] object: phase spans become ["B"]/["E"]
    duration events, everything else becomes an instant event with its
    payload under ["args"].  [ts] is an integer: the wall stamp in
    microseconds (Chrome's unit), or the ordinal under a logical clock;
    jobs are mapped to tids so per-job lanes separate in the viewer.

    Both writers stream the trace into one buffer and write it once. *)

val jsonl_string : Trace.t -> string
(** The whole JSONL file: header line, then one line per event in
    canonical order, each newline-terminated. *)

val write_jsonl : path:string -> Trace.t -> unit
(** Write {!jsonl_string}'s bytes to [path]. *)

val add_wall_ts : Buffer.t -> int -> unit
(** Append a wall stamp (microseconds) in the JSONL [ts] form above. *)

val chrome_string : Trace.t -> string

val write_chrome : path:string -> Trace.t -> unit
(** Write {!chrome_string} and a newline to [path]. *)
