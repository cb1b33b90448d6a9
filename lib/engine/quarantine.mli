(** The per-CV quarantine list: known-bad builds the engine stops retrying.

    When a build exhausts its retries (or fails in a way retries can never
    fix — an ICE or a miscompile), its cache key is quarantined together
    with the failure that condemned it.  Subsequent jobs on the same key
    return that recorded failure immediately instead of burning more
    attempts.  Because injected faults are a pure function of the fault
    seed and the key ({!Ft_fault.Fault}), a quarantine hit returns exactly
    the outcome a re-evaluation would have computed, so quarantining never
    changes search results — it only removes wasted work.  The table is
    mutex-protected and shared by all worker domains. *)

type reason =
  | Build_failed of string  (** the module whose compilation ICEd *)
  | Crashed of string  (** runtime crash; the payload is a diagnostic *)
  | Wrong_answer  (** output validation failed: miscompiled binary *)
  | Timed_out of float  (** simulated elapsed seconds when killed *)

val reason_to_string : reason -> string
(** Short human-readable rendering, e.g. ["build-failed(mod_3)"]. *)

type t

val create : unit -> t
val add : t -> string -> reason -> unit
val find : t -> string -> reason option
val length : t -> int

val bindings : t -> (string * reason) list
(** Sorted by key, for deterministic persistence and comparison. *)

val to_string : t -> string
(** The snapshot's contents: a magic line, then one line per entry in key
    order. *)

val save : t -> path:string -> unit
(** Atomic (write-temp-then-rename) line-oriented snapshot of
    {!to_string}. *)

exception Corrupt of { path : string; line : int; reason : string }
(** Raised by {!load} when the file is not a quarantine file at all
    (missing or wrong magic header). *)

val of_string :
  ?warn:(line:int -> reason:string -> unit) -> path:string -> string -> t
(** Parse snapshot contents ([path] only labels diagnostics).  Malformed
    lines after a valid header are skipped through [warn] (default: one
    stderr line each) rather than aborting, and so is a final line
    without its newline: a torn write, trusted only once committed.
    @raise Corrupt on a missing or invalid magic header. *)

val load : ?warn:(line:int -> reason:string -> unit) -> string -> t
(** [load path] reads and parses a snapshot with {!of_string}. *)
