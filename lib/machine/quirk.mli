(** Deterministic per-loop micro-sensitivities to individual flag values.

    Real flag→performance landscapes are rugged: beyond the first-order
    effects (vectorization, unrolling, …) every loop has small idiosyncratic
    reactions to individual flag settings — code placement luck, uop-cache
    effects, store-buffer interactions.  This module provides that texture
    as a pure function of (platform, program, region, flag, value), so the
    landscape is rugged but perfectly reproducible: the same CV on the same
    loop always performs identically.

    The magnitude is small (each flag contributes ±0.2 %); first-order model
    terms dominate, but top-X per-loop pruning has realistic fine structure
    to exploit. *)

val factor :
  platform:Ft_prog.Platform.t ->
  program:string ->
  region:string ->
  Ft_flags.Cv.t ->
  float
(** Product of the per-flag multipliers for this CV on this region; always
    within [(1 - 0.002)^33, (1 + 0.002)^33] ≈ [0.936, 1.068] in theory, and
    closer to 1.0 in practice (independent ± contributions cancel).
    [factor ~platform ~program ~region cv] is
    [lookup (table ~platform ~program) ~region cv]. *)

type table
(** The memo tables of one (platform, program) in the calling domain. *)

val table : platform:Ft_prog.Platform.t -> program:string -> table
(** Resolve a program's tables once, then {!lookup} each region. *)

val lookup : table -> region:string -> Ft_flags.Cv.t -> float
(** {!factor} through a resolved table.  Use the table only in the domain
    that resolved it. *)

val memo_cap : int
(** The most products one region memoizes per domain; past it the region's
    memo is cleared (exposed for tests). *)

val memo_entries :
  platform:Ft_prog.Platform.t -> program:string -> region:string -> int
(** The number of memoized products for a region in the calling domain
    (exposed for tests). *)

val flag_factor :
  platform:Ft_prog.Platform.t ->
  program:string ->
  region:string ->
  Ft_flags.Flag.id ->
  int ->
  float
(** The multiplier contributed by one flag value alone (exposed for tests:
    determinism and bounds). *)
