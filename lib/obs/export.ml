(* Both exporters stream the trace into one buffer, written once: no
   per-line strings, no whole-trace [Json.t]. *)

let header t n =
  Json.Obj
    [
      ("trace", Json.String "funcytuner/1");
      ("clock", Json.String (Trace.clock_name (Trace.clock t)));
      ("events", Json.Int n);
    ]

(* [string_of_int] for a non-negative [n], without the C format call. *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Whole microseconds as seconds with six decimals, by integer
   arithmetic alone: no float conversion on the export path. *)
let add_wall_ts buf us =
  if us < 0 then Buffer.add_char buf '-';
  let us = abs us in
  add_int buf (us / 1_000_000);
  Buffer.add_char buf '.';
  let frac = us mod 1_000_000 in
  let rec digits place =
    if place > 0 then begin
      Buffer.add_char buf (Char.unsafe_chr (48 + (frac / place mod 10)));
      digits (place / 10)
    end
  in
  digits 100_000

let add_jsonl buf t =
  let evs = Trace.events t in
  Json.add buf (header t (List.length evs));
  Buffer.add_char buf '\n';
  List.iteri
    (fun i (st : Trace.stamped) ->
      Buffer.add_string buf "{\"ts\":";
      (match Trace.clock t with
      | Trace.Logical -> add_int buf i
      | Trace.Wall -> add_wall_ts buf st.Trace.ts);
      Buffer.add_string buf ",\"ev\":";
      Json.add buf (Json.String (Event.name st.Trace.event));
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          Json.add buf (Json.String k);
          Buffer.add_char buf ':';
          Json.add buf v)
        (Event.fields st.Trace.event);
      Buffer.add_string buf "}\n")
    evs

(* Sized for a typical event line, so a long trace grows the buffer
   a few times at most. *)
let render add t =
  let buf = Buffer.create (4096 + (128 * Trace.length t)) in
  add buf t;
  buf

let jsonl_string t = Buffer.contents (render add_jsonl t)

let write_file path buf =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

let write_jsonl ~path t = write_file path (render add_jsonl t)

(* -- Chrome trace_event ------------------------------------------------ *)

let add_chrome buf t =
  let tid (st : Trace.stamped) =
    if st.Trace.job < 0 then 0 else st.Trace.job + 1
  in
  let entry i (st : Trace.stamped) =
    let ts = match Trace.clock t with Trace.Logical -> i | Trace.Wall -> st.Trace.ts in
    let common ph name extra =
      Json.Obj
        ([
           ("name", Json.String name);
           ("ph", Json.String ph);
           ("ts", Json.Int ts);
           ("pid", Json.Int 1);
           ("tid", Json.Int (tid st));
         ]
        @ extra)
    in
    match st.Trace.event with
    | Event.Phase_begin { phase } -> common "B" (Event.phase_name phase) []
    | Event.Phase_end { phase } -> common "E" (Event.phase_name phase) []
    | e ->
        common "i" (Event.name e)
          [ ("s", Json.String "t"); ("args", Json.Obj (Event.fields e)) ]
  in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i st ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add buf (entry i st))
    (Trace.events t);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}"

let chrome_string t = Buffer.contents (render add_chrome t)

let write_chrome ~path t =
  let buf = render add_chrome t in
  Buffer.add_char buf '\n';
  write_file path buf
