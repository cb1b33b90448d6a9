(** Length-prefixed framing over file descriptors.

    One frame = an 8-byte big-endian payload length + the payload bytes.
    The explicit length lets every reader distinguish a {e clean}
    end-of-stream (EOF exactly on a frame boundary: the peer closed or
    exited) from a {e torn} frame (EOF — or desynchronization — inside a
    frame: the peer died mid-write), the distinction both the process
    pool's crash taxonomy ({!Ft_engine.Procpool}) and the tuning
    server's protocol layer ({!Ft_serve.Protocol}) are built on.

    Two payload disciplines share the same wire format:

    - {!write_bytes}/{!read_bytes} move opaque byte payloads — the
      server's JSONL protocol frames;
    - {!write_value}/{!read_value} move [Marshal]-encoded OCaml values —
      the process pool's pipes, where both ends are the same binary.

    [Marshal] payloads must never be read from an untrusted peer; the
    server protocol therefore uses byte payloads and parses them as JSON
    above this module.

    {!Decoder} is the incremental face of the same parser: feed it
    whatever a non-blocking read returned and it hands back every
    completed frame, so a slow (or malicious) client that stops
    mid-frame can never block a select loop. *)

type error =
  | Eof  (** stream ended exactly on a frame boundary (clean close) *)
  | Torn of { context : string; got : int; expected : int }
      (** stream ended {e inside} a frame — short header or short
          payload; the peer must be presumed dead mid-write *)
  | Oversized of { claimed : int; limit : int }
      (** the length prefix claims more than [max_bytes]: an
          out-of-phase or hostile prefix, rejected before it becomes an
          allocation that kills the reader too *)
  | Garbled of string
      (** the frame arrived whole but its payload is unusable (e.g. a
          negative length word, or unmarshalable bytes in
          {!read_value}) *)

val error_to_string : error -> string

val default_max_bytes : int
(** Default frame-size ceiling (256 MiB), sized for the process pool's
    Marshal traffic; protocol layers pass a far smaller [?max_bytes]. *)

val header_bytes : int
(** Length of the frame header (8: one big-endian [int64]).  Exposed for
    codecs that walk framed bytes in memory (e.g.
    [Ft_engine.Cache_codec]). *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all fd buf ofs len]: write exactly [len] bytes.  Short writes
    and [EINTR] are retried; [EAGAIN]/[EWOULDBLOCK] (the fd was left
    nonblocking, e.g. a server socket the {!Decoder} side reads in
    nonblocking mode) waits for writability and resumes rather than
    escaping mid-frame.  [EPIPE] (peer already dead) escapes as
    [Unix_error] for the caller's crash handling.  Exposed for writers
    that append framed bytes outside this module (e.g.
    [Ft_engine.Cache]'s locked appends). *)

val write_bytes : Unix.file_descr -> bytes -> unit
(** Write one frame (header then payload, each via {!write_all}). *)

val read_bytes : ?max_bytes:int -> Unix.file_descr -> (bytes, error) result
(** Blocking read of one frame's payload ([max_bytes] defaults to
    {!default_max_bytes}). *)

val write_value : Unix.file_descr -> 'a -> unit
(** Marshal one value as a frame ({!write_bytes} of [Marshal.to_bytes]). *)

(** Frame writer with a reusable scratch buffer.

    {!write_value} above allocates a fresh [Marshal] byte string and a
    header per frame; on the process pool's hot reply path (one frame
    per job, each carrying summaries, journal deltas, trace batches)
    that churn is measurable.  A [Writer] marshals directly into one
    owned buffer — header and payload contiguous, grown geometrically
    and then reused forever — and emits the frame with a single
    [write].  Not thread-safe: one writer per producing thread/process
    end, which is how {!Ft_engine.Procpool} uses it. *)
module Writer : sig
  type t

  val create : ?initial_bytes:int -> Unix.file_descr -> t
  (** [initial_bytes] (default 64 KiB) sizes the scratch buffer; it
      doubles on demand and never shrinks. *)

  val fd : t -> Unix.file_descr

  val write_value : t -> 'a -> unit
  (** Exactly {!Framing.write_value}'s wire format and error behavior
      ([EPIPE] escapes as [Unix_error]), minus the per-frame
      allocations. *)
end

val read_value : ?max_bytes:int -> Unix.file_descr -> ('a, error) result
(** Read one Marshal frame.  The ['a] is the caller's protocol contract,
    as with [Marshal.from_channel]; only use on trusted peers. *)

(** Incremental frame extraction for non-blocking readers.

    A decoder owns a reassembly buffer.  {!pump} performs one
    [Unix.read] and returns every frame the accumulated bytes complete;
    a frame split across any number of reads is reassembled, and bytes
    beyond a frame boundary are retained for the next call. *)
module Decoder : sig
  type t

  val create : ?max_bytes:int -> unit -> t
  (** [max_bytes] (default {!default_max_bytes}) bounds both the claimed
      frame length and the reassembly buffer. *)

  val buffered : t -> int
  (** Bytes currently held mid-frame (0 on a frame boundary). *)

  type pumped = {
    frames : bytes list;  (** completed frame payloads, in wire order *)
    state : [ `Open | `Closed | `Error of error ];
        (** [`Open]: more may come (includes [EAGAIN] on a non-blocking
            fd).  [`Closed]: clean EOF on a frame boundary.  [`Error]:
            torn mid-frame EOF, oversized prefix, or a read error — the
            connection is unusable (but [frames] completed before the
            fault are still delivered). *)
  }

  val pump : t -> Unix.file_descr -> pumped
  (** One read step: a single [Unix.read] into the buffer, then frame
      extraction.  [EINTR]/[EAGAIN]/[EWOULDBLOCK] are not errors — they
      return [{ frames = []; state = `Open }]. *)
end
