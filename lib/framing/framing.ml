(* Length-prefixed framing: 8-byte big-endian payload length, then the
   payload.  See the .mli for the clean-EOF / torn-frame distinction
   this format exists to make. *)

type error =
  | Eof
  | Torn of { context : string; got : int; expected : int }
  | Oversized of { claimed : int; limit : int }
  | Garbled of string

let error_to_string = function
  | Eof -> "eof"
  | Torn { context; got; expected } when expected < 0 ->
      Printf.sprintf "torn frame: stream ended holding %d mid-%s bytes" got
        context
  | Torn { context; got; expected } ->
      Printf.sprintf "torn frame: short %s (%d/%d bytes)" context got expected
  | Oversized { claimed; limit } ->
      Printf.sprintf "oversized frame: %d bytes claimed (limit %d)" claimed
        limit
  | Garbled reason -> "garbled frame: " ^ reason

(* A frame larger than this is a protocol error, not a payload: it means
   the length prefix was read out of phase (or the stream is garbage),
   and trying to allocate it would take the reader down with the peer. *)
let default_max_bytes = 256 * 1024 * 1024

let header_bytes = 8

let rec write_all fd buf ofs len =
  if len > 0 then
    match Unix.write fd buf ofs len with
    | n -> write_all fd buf (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf ofs len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* The fd was left nonblocking — the mode [Decoder.pump] already
           expects on the read side.  A full kernel buffer is not an
           error for a framed writer: wait for writability and resume
           mid-frame, otherwise a slow peer kills the caller. *)
        (match Unix.select [] [ fd ] [] (-1.0) with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        write_all fd buf ofs len

let write_bytes fd payload =
  let len = Bytes.length payload in
  let header = Bytes.create header_bytes in
  Bytes.set_int64_be header 0 (Int64.of_int len);
  write_all fd header 0 header_bytes;
  write_all fd payload 0 len

(* Read exactly [len] bytes, reporting how many arrived before EOF. *)
let really_read fd len =
  let buf = Bytes.create len in
  let rec go ofs =
    if ofs >= len then Ok buf
    else
      match Unix.read fd buf ofs (len - ofs) with
      | 0 -> Error ofs
      | n -> go (ofs + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          Error ofs
  in
  go 0

let check_length ~limit len =
  if len < 0 then
    Error (Garbled (Printf.sprintf "negative frame length %d" len))
  else if len > limit then Error (Oversized { claimed = len; limit })
  else Ok len

let read_bytes ?(max_bytes = default_max_bytes) fd =
  match really_read fd header_bytes with
  | Error 0 -> Error Eof
  | Error k -> Error (Torn { context = "header"; got = k; expected = header_bytes })
  | Ok header -> (
      match
        check_length ~limit:max_bytes
          (Int64.to_int (Bytes.get_int64_be header 0))
      with
      | Error _ as e -> e
      | Ok len -> (
          match really_read fd len with
          | Error k -> Error (Torn { context = "payload"; got = k; expected = len })
          | Ok payload -> Ok payload))

let write_value fd v = write_bytes fd (Marshal.to_bytes v [])

module Writer = struct
  type t = { fd : Unix.file_descr; mutable scratch : Bytes.t }

  let create ?(initial_bytes = 64 * 1024) fd =
    { fd; scratch = Bytes.create (max initial_bytes (header_bytes + 64)) }

  let fd t = t.fd

  (* [Marshal.to_buffer] raises [Failure] when the value does not fit;
     doubling converges in O(log size) attempts and the buffer then
     serves every subsequent frame allocation-free. *)
  let rec marshal_into t v =
    match
      Marshal.to_buffer t.scratch header_bytes
        (Bytes.length t.scratch - header_bytes) v []
    with
    | len -> len
    | exception Failure _ ->
        t.scratch <- Bytes.create (2 * Bytes.length t.scratch);
        marshal_into t v

  let write_value t v =
    let len = marshal_into t v in
    Bytes.set_int64_be t.scratch 0 (Int64.of_int len);
    write_all t.fd t.scratch 0 (header_bytes + len)
end

let read_value ?max_bytes fd =
  match read_bytes ?max_bytes fd with
  | Error _ as e -> e
  | Ok payload -> (
      match Marshal.from_bytes payload 0 with
      | v -> Ok v
      | exception _ -> Error (Garbled "unmarshalable payload"))

module Decoder = struct
  (* [data.[start, stop)] holds the bytes read but not yet extracted: at
     most one partial frame after every {!pump}.  The buffer is owned and
     reused, so a pump allocates only the frames it completes. *)
  type t = {
    max_bytes : int;
    mutable data : bytes;
    mutable start : int;
    mutable stop : int;
  }

  let create ?(max_bytes = default_max_bytes) () =
    { max_bytes; data = Bytes.create 4096; start = 0; stop = 0 }

  let buffered t = t.stop - t.start

  type pumped = {
    frames : bytes list;
    state : [ `Open | `Closed | `Error of error ];
  }

  (* Extract every complete frame, leaving the partial tail in place. *)
  let extract t =
    let rec go acc =
      let avail = t.stop - t.start in
      if avail < header_bytes then Ok (List.rev acc)
      else
        match
          check_length ~limit:t.max_bytes
            (Int64.to_int (Bytes.get_int64_be t.data t.start))
        with
        | Error e ->
            t.start <- 0;
            t.stop <- 0;
            Error (List.rev acc, e)
        | Ok len ->
            if avail - header_bytes < len then Ok (List.rev acc)
            else begin
              let frame = Bytes.sub t.data (t.start + header_bytes) len in
              t.start <- t.start + header_bytes + len;
              go (frame :: acc)
            end
    in
    go []

  (* A read that fills the whole buffer means a busy stream: the buffer
     doubles, up to this size, so one read can drain a burst. *)
  let burst_bytes = 65536

  (* Room for the next read: the partial tail slides to the front, and
     when the last read filled the buffer it doubles — for a busy stream,
     or for one partial frame that fills all of it.  That frame's length
     already passed [check_length], so the buffer never outgrows
     [header_bytes + max_bytes]. *)
  let make_room t =
    let cap = Bytes.length t.data in
    let held = t.stop - t.start in
    let cap' =
      if t.stop < cap then cap
      else if held = cap then min (2 * cap) (header_bytes + t.max_bytes)
      else if cap < burst_bytes then 2 * cap
      else cap
    in
    if t.start > 0 || cap' > cap then begin
      let data = if cap' > cap then Bytes.create cap' else t.data in
      Bytes.blit t.data t.start data 0 held;
      t.data <- data;
      t.start <- 0;
      t.stop <- held
    end

  let pump t fd =
    make_room t;
    match Unix.read fd t.data t.stop (Bytes.length t.data - t.stop) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        { frames = []; state = `Open }
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        let held = buffered t in
        if held = 0 then { frames = []; state = `Closed }
        else
          {
            frames = [];
            state =
              `Error (Torn { context = "payload"; got = held; expected = -1 });
          }
    | 0 ->
        (* EOF: clean only if no partial frame is held back. *)
        let held = buffered t in
        if held = 0 then { frames = []; state = `Closed }
        else
          {
            frames = [];
            state =
              `Error (Torn { context = "frame"; got = held; expected = -1 });
          }
    | n -> (
        t.stop <- t.stop + n;
        match extract t with
        | Ok frames -> { frames; state = `Open }
        | Error (frames, e) -> { frames; state = `Error e })
end
