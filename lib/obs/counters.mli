(** Engine counters as a fold over the typed event stream.

    There is no counter store: a {!Trace} sink folds every event it is
    handed through {!step} (the live [--stats] numbers), and
    {!Report.derive} folds an exported trace through the same {!step}
    (the offline numbers), so the two agree by construction.  Every
    field is a sum, so the fold is order-independent: a worker's
    replayed events land on the same totals whatever order they arrive
    in.  Counters are observational only — no search result ever depends
    on them — which is why they may vary with worker scheduling (two
    workers racing on one cache key record one hit and one miss in either
    order) while measured values do not. *)

type t = {
  builds : int;  (** compile+link jobs actually performed (cache misses) *)
  runs : int;  (** binary executions actually performed *)
  cache_hits : int;
  cache_misses : int;
  retries : int;  (** jobs re-submitted after a transient failure *)
  build_failures : int;  (** compile jobs rejected by the compiler (ICEs) *)
  crashes : int;  (** runtime crashes observed (before any retry) *)
  wrong_answers : int;  (** output-validation mismatches (miscompiles) *)
  timeouts : int;  (** runs whose (simulated) elapsed time tripped the budget *)
  worker_crashes : int;
      (** forked workers that died mid-job (signal, exit, torn frame) —
          counted per crashed attempt, before any retry *)
  outliers : int;  (** heavy-tailed measurement outliers injected *)
  quarantined : int;  (** configurations added to the quarantine list *)
  quarantine_hits : int;  (** evaluations skipped via the quarantine list *)
  timers : (string * int) list;
      (** phase → accumulated wall nanoseconds, sorted by phase.  Whole
          nanoseconds keep the sums exact, hence order-independent. *)
}

val zero : t

val step : t -> Event.t -> t
(** Fold one event in: [Cache_hit]/[Cache_miss], [Build_done],
    [Run_done], [Retry], [Fault_injected], [Worker_crashed], [Outlier],
    [Quarantine_added], [Quarantine_hit] and [Timer] each bump their
    counter; every other event (including the logical [Cache_query],
    whose hit/miss side only a whole trace can tell) returns its
    argument physically unchanged. *)

val faults : t -> int
(** Total injected faults observed: build failures + crashes + wrong
    answers + timeouts (outliers are degraded measurements, not faults). *)

val render : t -> string
(** The counter lines of [--stats] and of [funcy report]'s counters
    section.  The fault / quarantine block only appears when something
    actually failed, so fault-free runs print exactly what they always
    did. *)
