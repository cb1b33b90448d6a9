module Exec = Ft_machine.Exec
module Framing = Ft_framing.Framing

let binary_magic = "ft-engine-cache/2"
let text_magic = "ft-engine-cache/1"
let header = binary_magic ^ "\n"

let detect contents =
  let starts_with prefix =
    String.length contents >= String.length prefix
    && String.sub contents 0 (String.length prefix) = prefix
  in
  let is_prefix_of magic =
    (* A header cut short by a torn write: the contents are a proper
       prefix of what the first line should have been. *)
    String.length contents < String.length magic + 1
    && String.sub magic 0 (String.length contents) = contents
  in
  if starts_with header then `Binary
  else if starts_with (text_magic ^ "\n") then `Text
  else if contents <> "" && (is_prefix_of binary_magic || is_prefix_of text_magic)
  then `Corrupt "truncated header"
  else `Corrupt "not an engine cache file"

(* One summary is a handful of loop timings; 16 MiB of payload can only
   be an out-of-phase length prefix read as a length. *)
let max_record_bytes = 16 * 1024 * 1024

(* -- encoding ------------------------------------------------------------ *)

let add_u16 buf n what =
  if n < 0 || n > 0xffff then
    invalid_arg (Printf.sprintf "Cache_codec: %s (%d) exceeds u16" what n);
  Buffer.add_uint16_be buf n

let add_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)

let add_field buf s what =
  add_u16 buf (String.length s) what;
  Buffer.add_string buf s

let encode_record buf key (s : Exec.summary) =
  let payload = Buffer.create 128 in
  add_field payload key "key length";
  add_float payload s.Exec.sum_total_s;
  add_float payload s.Exec.sum_nonloop_s;
  add_u16 payload (List.length s.Exec.sum_loops) "loop count";
  List.iter
    (fun (name, seconds) ->
      add_field payload name "loop name length";
      add_float payload seconds)
    s.Exec.sum_loops;
  Buffer.add_int64_be buf (Int64.of_int (Buffer.length payload));
  Buffer.add_buffer buf payload

let encode_file bindings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  List.iter (fun (key, summary) -> encode_record buf key summary) bindings;
  Buffer.contents buf

(* -- decoding ------------------------------------------------------------ *)

type decoded = {
  entries : (string * Exec.summary) list;
  committed : int;
  torn : bool;
  skipped : int;
}

(* Payload parsing with an explicit cursor; any overrun or malformed
   field is a typed [Error], never an exception, so one rotted record
   cannot abort a resume. *)
let parse_payload contents ~pos ~len =
  let stop = pos + len in
  let cursor = ref pos in
  let exception Bad of string in
  let need n what =
    if !cursor + n > stop then
      raise (Bad (Printf.sprintf "record ends inside %s" what))
  in
  let u16 what =
    need 2 what;
    let v = String.get_uint16_be contents !cursor in
    cursor := !cursor + 2;
    v
  in
  let field what =
    let n = u16 what in
    need n what;
    let s = String.sub contents !cursor n in
    cursor := !cursor + n;
    s
  in
  let float_of what =
    need 8 what;
    let f = Int64.float_of_bits (String.get_int64_be contents !cursor) in
    cursor := !cursor + 8;
    (* Summaries are noise-free wall seconds, always finite; a non-finite
       value here is bit rot and would poison every Stats reduction. *)
    if not (Float.is_finite f) then
      raise (Bad (Printf.sprintf "non-finite %s" what));
    f
  in
  match
    let key = field "key" in
    let sum_total_s = float_of "total" in
    let sum_nonloop_s = float_of "nonloop" in
    let loops = u16 "loop count" in
    let sum_loops =
      List.init loops (fun _ ->
          let name = field "loop name" in
          let seconds = float_of "loop seconds" in
          (name, seconds))
    in
    if !cursor <> stop then
      raise
        (Bad
           (Printf.sprintf "%d trailing bytes after a valid record"
              (stop - !cursor)));
    (key, { Exec.sum_total_s; sum_nonloop_s; sum_loops })
  with
  | entry -> Ok entry
  | exception Bad reason -> Error reason

let decode ?warn ?on_frame ~pos contents =
  let warn =
    match warn with Some w -> w | None -> fun ~line:_ ~reason:_ -> ()
  in
  let total = String.length contents in
  let rec go ofs record acc skipped =
    if total - ofs < Framing.header_bytes then
      let torn = total > ofs in
      if torn then
        warn ~line:record ~reason:"torn final record (short frame header)";
      { entries = List.rev acc; committed = ofs; torn; skipped }
    else
      let len = Int64.to_int (String.get_int64_be contents ofs) in
      if len < 0 || len > max_record_bytes then begin
        (* An implausible length prefix desynchronizes everything after
           it; stop here and let the next locked sync truncate + compact. *)
        warn ~line:record
          ~reason:(Printf.sprintf "garbled frame length %d" len);
        { entries = List.rev acc; committed = ofs; torn = true; skipped }
      end
      else if total - ofs - Framing.header_bytes < len then begin
        warn ~line:record ~reason:"torn final record (short payload)";
        { entries = List.rev acc; committed = ofs; torn = true; skipped }
      end
      else
        let payload = ofs + Framing.header_bytes in
        let next = payload + len in
        Option.iter (fun f -> f ~pos:ofs ~len:(next - ofs)) on_frame;
        match parse_payload contents ~pos:payload ~len with
        | Ok entry -> go next (record + 1) (entry :: acc) skipped
        | Error reason ->
            warn ~line:record ~reason;
            go next (record + 1) acc (skipped + 1)
  in
  go pos 1 [] 0
