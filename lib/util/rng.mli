(** Deterministic splittable pseudo-random number generator.

    The whole reproduction is driven by a single experiment seed; every
    stochastic component (CV sampling, measurement noise, search algorithms,
    corpus generation) derives its own independent stream with {!split} or
    {!of_label}, so results are bit-for-bit reproducible and independent of
    evaluation order elsewhere.

    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit
    state advanced by a Weyl constant and finalized with a variant of the
    MurmurHash3 finalizer.  It is not cryptographic, but it is fast, has a
    full 2^64 period, and passes BigCrush — more than enough for Monte-Carlo
    search over compiler flags. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val state : t -> int64
(** The current 64-bit state word — the {e whole} generator.  Persist it
    (e.g. in a checkpoint) and {!of_state} resumes the exact stream:
    [of_state (state t)] produces the same outputs as [t] forever after. *)

val of_state : int64 -> t
(** Rebuild a generator from a {!state} snapshot.  Unlike {!create}, the
    argument is used verbatim, not re-mixed. *)

val split : t -> t
(** [split t] draws from [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val of_label : t -> string -> t
(** [of_label t label] derives a child generator from [t]'s {e current seed}
    and [label] without advancing [t].  Two distinct labels give independent
    streams; the same label always gives the same stream.  This is the
    preferred way to hand sub-seeds to named experiment components. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val gauss : t -> mu:float -> sigma:float -> float
(** One draw from a normal distribution (Box–Muller, fresh pair per call). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on [||]. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [0, n).  @raise Invalid_argument if [k > n] or [k < 0]. *)

val hash_string : string -> int
(** The label hash used by {!of_label}, exposed for deterministic
    model perturbations keyed by structural names: FNV-1a-64 of the
    bytes, folded to a non-negative int.  Equal to
    [fnv_finish (fnv_feed fnv_offset s)]. *)

(** {2 Streaming FNV-1a}

    [hash_string (a ^ b) = fnv_finish (fnv_feed (fnv_feed fnv_offset a) b)]:
    callers that hash many strings sharing a prefix feed the prefix once
    and continue from its state, without building the concatenation.
    Nothing here allocates. *)

val fnv_offset : int
(** The state of the empty string. *)

val fnv_feed : int -> string -> int
(** [fnv_feed h s] continues state [h] over the bytes of [s]. *)

val fnv_finish : int -> int
(** Fold a state to the non-negative int {!hash_string} returns. *)
