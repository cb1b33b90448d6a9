(** Search quality under injected faults.

    Sweeps the fault rate on one benchmark/platform cell (363.swim on
    Broadwell, the cheapest tier-1 cell) and reruns the engine-backed
    searches at each rate: every search must complete — faulty CVs are
    retried, quarantined and skipped — and return its best {e valid}
    configuration, so speedups degrade gracefully instead of crashing.
    Each rate gets a fresh engine (own cache and quarantine, same fault
    seed) so rates do not contaminate each other; pass [?trace] (e.g. the
    lab engine's sink) to record every sweep engine's events there, which
    also aggregates their counters for [--stats]. *)

val rates : float list
(** The swept fault rates: 0, 5, 10, 20 and 30 %. *)

val columns : string list
(** ["Random"; "FR"; "CFR"]. *)

val run :
  ?trace:Ft_obs.Trace.t ->
  ?fault_seed:int ->
  seed:int ->
  pool_size:int ->
  jobs:int ->
  unit ->
  Series.t
(** One row per fault rate, one column per search, cell = speedup over O3
    of the best fault-free configuration found.  Bit-identical for any
    [jobs]. *)
