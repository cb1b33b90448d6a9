(** The typed event vocabulary of the trace subsystem.

    Every observable step of a tuning run — batch submission, job
    start/finish, cache traffic, fault injection, retries, quarantine,
    checkpoints, phase boundaries — is one of these constructors; the
    {!Trace} buffer stamps them with an ordering key and the exporters
    serialize them through {!to_json}/{!of_json}.

    Event payloads carry only values that are pure functions of the run's
    seeds (cache keys, fault kinds, attempt numbers, deterministic elapsed
    seconds) — all wall-clock data lives in the {!Trace} stamp, never in
    the event itself — so the same search always produces the same event
    values at any worker count. *)

type phase = Profile | Collect | Prune | Search
(** Algorithm 1's phases: profile the O3 build and outline hot loops;
    collect the per-loop runtime matrix; prune each module's space to its
    top-X CVs; search the focused space end-to-end.  Searches that skip a
    phase (e.g. Random skips prune) simply never open that span. *)

val phase_name : phase -> string
(** ["profile"] / ["collect"] / ["prune"] / ["search"]. *)

val phase_of_name : string -> phase option

type t =
  | Batch_submitted of { size : int }
      (** a batch of [size] jobs handed to the worker pool *)
  | Job_started of { key : string }
      (** one engine job began; [key] is its content-addressed cache key *)
  | Job_finished of {
      key : string;
      outcome : string;  (** ["ok"], ["build-failed"], ["crashed"],
                             ["wrong-answer"] or ["timed-out"] *)
      elapsed_s : float option;
          (** the measured (simulated) seconds where one exists *)
    }
  | Cache_query of { key : string }
      (** logical-clock stand-in for hit/miss: {e which} worker misses is
          a scheduling race, but the multiset of queried keys is not *)
  | Cache_hit of { key : string }
  | Cache_miss of { key : string }
  | Build_done of { key : string }  (** compile+link actually performed *)
  | Run_done of { key : string }  (** binary evaluation actually performed *)
  | Fault_injected of {
      key : string;
      fault : string;
          (** ["ice"], ["crash"], ["wrong-answer"] or ["timeout"] —
              one {!Counters} fault counter each *)
    }
  | Retry of { key : string; attempt : int; backoff_s : float }
  | Outlier of { key : string }  (** heavy-tailed measurement injected *)
  | Quarantine_added of { key : string; reason : string }
  | Quarantine_hit of { key : string; reason : string }
  | Worker_crashed of { detail : string }
      (** a process-backend worker died mid-job (wall clock only: crash
          timing is scheduling, and crashed attempts are retried to the
          same logical events, so logical traces never mention them) *)
  | Checkpoint_saved of { path : string }
  | Checkpoint_loaded of { path : string; entries : int }
  | Timer of { name : string; seconds : float }
      (** one accumulation onto a {!Counters} phase timer (wall clock
          only) *)
  | Phase_begin of { phase : phase }
  | Phase_end of { phase : phase }
  | Prune_kept of { module_name : string; kept : int }
      (** space focusing kept [kept] CVs for this module (top-X) *)
  | Rung_opened of { rung : int; arms : int; pulls : int }
      (** adaptive-sh: successive-halving rung [rung] began with [arms]
          surviving candidate assignments and [pulls] measurements
          scheduled.  A pure function of the allocator's inputs, so it
          survives normalization like any search decision. *)
  | Rung_closed of { rung : int; survivors : int }
      (** adaptive-sh: the rung's quota was observed; [survivors] arms
          were promoted out of it (the arm count itself on the final
          rung, which promotes nobody) *)
  | Arm_promoted of { rung : int; arm : int }
      (** adaptive-sh: arm [arm] ranked inside the top [ceil (s/eta)]
          of rung [rung] and advances to the next rung *)
  | Arm_eliminated of { rung : int; arm : int }
      (** adaptive-sh: arm [arm] was cut at the close of rung [rung] *)
  | Request_received of { id : string; tenant : string; fingerprint : string }
      (** server: a tune request arrived, keyed by its content-addressed
          program fingerprint *)
  | Request_admitted of { id : string; queue_depth : int }
      (** server: the request opened a fresh search group; [queue_depth]
          is the number of requests pending after admission *)
  | Request_coalesced of { id : string; leader : string }
      (** server: the request joined the pending or in-flight group led
          by request [leader] (single-flight dedup) *)
  | Request_cached of { id : string }
      (** server: served from the completed-result memo without
          scheduling *)
  | Request_rejected of { id : string; reason : string }
      (** server: typed admission-control rejection (["queue_full"],
          ["draining"], ["unsupported: ..."], ["bad_version ..."]) *)
  | Group_started of { fingerprint : string; members : int }
      (** server: a search group left the queue and began its (single)
          search with [members] coalesced requests attached *)
  | Group_finished of { fingerprint : string; members : int; run_s : float }
      (** server: the group's search completed after [run_s] wall
          seconds; every member receives the same result bytes *)
  | Group_cancelled of { fingerprint : string }
      (** server: the group was abandoned — every subscriber
          disconnected or expired before its search finished *)
  | Request_expired of { id : string }
      (** server: the request's [deadline_ms] elapsed while it waited *)
  | Request_replayed of { id : string; fingerprint : string }
      (** server: restart recovery re-enqueued this journaled request
          from a previous incarnation *)
  | Server_recovered of { restarts : int; replayed : int; poisoned : int }
      (** server: one boot's journal replay — prior incarnations seen,
          unfinished requests re-enqueued, fingerprints crash-quarantined *)

val name : t -> string
(** The wire tag (the ["ev"] field), e.g. ["job_end"] or ["cache_hit"]. *)

val fields : t -> (string * Json.t) list
(** The payload fields, in fixed order, excluding ["ev"]. *)

val of_json : Json.t -> (t, string) result
(** Rebuild an event from an exported object (ignores unknown extra
    fields such as ["ts"]); [Error] names the missing/malformed piece. *)
