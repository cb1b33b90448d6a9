(** Binary append-only encoding of cache entries (on-disk format v2).

    A binary cache file is the magic header line {!binary_magic}[ ^ "\n"]
    followed by a sequence of length-prefixed records on the shared
    {!Ft_framing.Framing} wire format (8-byte big-endian payload length,
    then the payload).  One record = one [(key, summary)] binding:

    {v
      u16 BE  key length        | key bytes
      f64 BE  sum_total_s       | IEEE-754 bits, bit-exact by construction
      f64 BE  sum_nonloop_s     |
      u16 BE  loop count
      per loop:  u16 BE name length | name bytes | f64 BE seconds
    v}

    The frame boundary is the commit marker, exactly as a newline is for
    the text format and for the serve journal: a record is trusted only
    once its full frame is on disk, so a crash mid-append tears at most
    the file's tail and {!decode} recovers every committed record.  Later
    records for a key shadow earlier ones (append-only updates); readers
    that merge adopt-if-absent should fold the decoded entries in file
    order through their own precedence rule.

    This module is pure string/bytes transcoding — no I/O, no locking —
    so it can be property-tested exhaustively (see [test/suite_codec.ml]).
    {!Cache} owns files, locks and the delta-[sync] protocol on top. *)

module Exec := Ft_machine.Exec

val binary_magic : string
(** ["ft-engine-cache/2"] — first line of a binary cache file. *)

val text_magic : string
(** ["ft-engine-cache/1"] — first line of a text (v1) cache file; owned
    by {!Cache} but exposed here so format detection lives in one place. *)

val header : string
(** [binary_magic ^ "\n"], the exact byte prefix of a binary file. *)

val detect : string -> [ `Binary | `Text | `Corrupt of string ]
(** Classify file contents by magic line.  A proper prefix of either
    magic header is reported as [`Corrupt "truncated header"] (a torn
    header write), anything else as [`Corrupt "not an engine cache
    file"]. *)

val max_record_bytes : int
(** Ceiling on one record's payload (16 MiB).  A frame claiming more is
    garbage — an out-of-phase length prefix — not a plausible summary. *)

val encode_record : Buffer.t -> string -> Exec.summary -> unit
(** Append one framed record to the buffer.
    @raise Invalid_argument if the key, a loop name, or the loop list
    does not fit the u16 fields (none ever do in practice). *)

val encode_file : (string * Exec.summary) list -> string
(** Header plus one record per binding, in list order: the full contents
    of a binary cache file.  Deterministic (callers pass sorted
    bindings). *)

type decoded = {
  entries : (string * Exec.summary) list;
      (** committed bindings, in file order (later shadows earlier) *)
  committed : int;
      (** byte offset just past the last whole frame — the only safe
          append/truncate point *)
  torn : bool;
      (** the region past [committed] ends mid-frame or holds a garbled
          length prefix: a crashed writer's tail, to be truncated away
          by the next locked sync *)
  skipped : int;
      (** whole frames whose payload was malformed (bit rot, non-finite
          floats): skipped, counted, and compacted away later *)
}

val decode :
  ?warn:(line:int -> reason:string -> unit) ->
  ?on_frame:(pos:int -> len:int -> unit) ->
  pos:int ->
  string ->
  decoded
(** Decode every record of [contents] from byte offset [pos] (the caller
    strips and checks the header; [pos] may also be a previous
    [committed] offset when reading a delta).  Never raises on any
    input: torn tails and malformed payloads are reported through
    [warn] — [line] is the 1-based record ordinal within this scan, as
    the text loader reports line numbers — and reflected in the result.
    [committed] is relative to the start of [contents], i.e. [>= pos].
    [on_frame] sees every whole frame in file order — its byte offset
    and its length, prefix included — whether or not its payload parses:
    the hook {!Cache} folds its commit chain through. *)
