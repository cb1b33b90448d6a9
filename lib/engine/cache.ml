module Exec = Ft_machine.Exec

type format = Text | Binary

let default_format = Binary
let format_to_string = function Text -> "text" | Binary -> "binary"

let format_of_string = function
  | "text" -> Some Text
  | "binary" -> Some Binary
  | _ -> None

(* A committed file prefix: its length and the chained digest of its
   records, h0 = MD5(header line), h_i = MD5(h_(i-1) ^ record_i), where
   records are binary frames or text lines (newline included).  Extending
   a mark over appended records never touches the prefix it covers. *)
type mark = { bytes : int; chain : Digest.t }

let chain_step h contents ~pos ~len =
  let b = Bytes.create (16 + len) in
  Bytes.blit_string h 0 b 0 16;
  Bytes.blit_string contents pos b 16 len;
  Digest.bytes b

(* The mark of a line-oriented file: every newline-terminated line after
   the header is a record; an unterminated tail is a torn line, covered
   by [bytes] but not by the chain, so it can never match a commit. *)
let mark_lines contents =
  let bytes = String.length contents in
  match String.index_opt contents '\n' with
  | None -> { bytes; chain = Digest.string "" }
  | Some eol ->
      let rec go h pos =
        match String.index_from_opt contents pos '\n' with
        | Some eol ->
            go (chain_step h contents ~pos ~len:(eol + 1 - pos)) (eol + 1)
        | None -> { bytes; chain = h }
      in
      go (Digest.substring contents 0 (eol + 1)) (eol + 1)

(* Per-file delta-sync bookkeeping: what this process last saw on disk
   under the sidecar lock, so the next [sync] can read and append only
   the delta instead of re-parsing the world.  Invalidated whenever the
   file is replaced out from under us (the dev/ino pair changes: an
   atomic save or another process's compaction) or shrinks. *)
type sync_state = {
  mutable s_offset : int;  (* committed bytes: every whole frame *)
  mutable s_chain : Digest.t;  (* commit chain over those bytes *)
  mutable s_records : int;  (* frames on disk, duplicates included *)
  s_known : (string, unit) Hashtbl.t;  (* keys already on disk *)
  mutable s_logged : int;  (* insertion-log prefix reconciled with the file *)
  mutable s_id : int * int;  (* (st_dev, st_ino) of the synced file *)
}

type t = {
  table : (string, Exec.summary) Hashtbl.t;
  (* Every key in first-insertion order, so a sync finds the entries
     added since its last visit without scanning the table. *)
  mutable log : string array;
  mutable log_len : int;
  lock : Mutex.t;
  sync_states : (string, sync_state) Hashtbl.t;  (* guarded by [lock] *)
}

let create () =
  {
    table = Hashtbl.create 1024;
    log = [||];
    log_len = 0;
    lock = Mutex.create ();
    sync_states = Hashtbl.create 4;
  }

let digest canonical = Digest.to_hex (Digest.string canonical)

let find t key =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key)

(* Caller holds [t.lock] (or owns [t] alone).  A key is new exactly when
   the replace grew the table: one hash, not a [mem] and a [replace]. *)
let insert t key summary =
  let before = Hashtbl.length t.table in
  Hashtbl.replace t.table key summary;
  if Hashtbl.length t.table > before then begin
    if t.log_len = Array.length t.log then begin
      let grown = Array.make (max 256 (2 * t.log_len)) "" in
      Array.blit t.log 0 grown 0 t.log_len;
      t.log <- grown
    end;
    t.log.(t.log_len) <- key;
    t.log_len <- t.log_len + 1
  end

let add t key summary = Mutex.protect t.lock (fun () -> insert t key summary)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let bindings t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])
  |> List.sort compare

let drop_sync_state t path =
  Mutex.protect t.lock (fun () -> Hashtbl.remove t.sync_states path)

let set_sync_state t path state =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.sync_states path state)

let get_sync_state t path =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.sync_states path)

(* -- text format (v1) ----------------------------------------------------

   One entry per line,
     <key> TAB <total> TAB <nonloop> [TAB <loop-name>=<seconds>]...
   Floats are printed with %h (hexadecimal significand), so a save/load
   round-trip is bit-exact and the determinism guarantee survives
   persistence.  Still written under [~format:Text] and always readable
   (the header's magic line picks the decoder), so old checkpoints and
   --warm-start files keep working. *)

let format_magic = Cache_codec.text_magic

let entry_line key (s : Exec.summary) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf key;
  Buffer.add_string buf (Printf.sprintf "\t%h\t%h" s.Exec.sum_total_s s.Exec.sum_nonloop_s);
  List.iter
    (fun (name, seconds) ->
      if String.contains name '\t' || String.contains name '=' then
        invalid_arg ("Cache.save: unencodable region name " ^ name);
      Buffer.add_string buf (Printf.sprintf "\t%s=%h" name seconds))
    s.Exec.sum_loops;
  Buffer.contents buf

(* A typed parse: every way a line can be malformed is reported as a
   message rather than an exception, so [load] can decide to skip a bad
   entry (corruption after a valid header) instead of aborting the whole
   resume. *)
let parse_entry line =
  match String.split_on_char '\t' line with
  | key :: total :: nonloop :: loops ->
      let float_of what field k =
        match float_of_string_opt field with
        (* Summaries are noise-free wall seconds, always finite; a "nan"
           or "inf" here is bit rot or a hand-edit, and admitting it would
           poison every Stats reduction downstream.  Skip the entry. *)
        | Some f when Float.is_finite f -> k f
        | Some _ -> Error (Printf.sprintf "non-finite %s %S" what field)
        | None -> Error (Printf.sprintf "unparsable %s %S" what field)
      in
      let rec parse_loops acc = function
        | [] -> Ok (List.rev acc)
        | field :: rest -> (
            match String.index_opt field '=' with
            | Some i ->
                float_of "loop seconds"
                  (String.sub field (i + 1) (String.length field - i - 1))
                  (fun seconds ->
                    parse_loops ((String.sub field 0 i, seconds) :: acc) rest)
            | None -> Error "loop field without '='")
      in
      float_of "total" total (fun sum_total_s ->
          float_of "nonloop" nonloop (fun sum_nonloop_s ->
              match parse_loops [] loops with
              | Ok sum_loops ->
                  Ok (key, { Exec.sum_total_s; sum_nonloop_s; sum_loops })
              | Error _ as e -> e))
  | _ -> Error "truncated entry"

exception Corrupt of { path : string; line : int; reason : string }

let default_warn ~path ~line ~reason =
  Printf.eprintf "warning: %s:%d: skipping malformed cache entry (%s)\n%!"
    path line reason

(* Parse a text-format body (everything after the header newline) into
   entries, newest-wins.  A line is trusted only once its terminating
   newline reached the disk: truncation can only tear a file's tail, and
   a torn final line may otherwise still parse — a float cut mid-digits
   is a different, valid float. *)
let parse_text_body ~warn t body =
  let lines = String.split_on_char '\n' body in
  (* A newline-terminated body splits into a trailing "" sentinel; any
     other final element is a torn line to be skipped, not parsed. *)
  let last = List.length lines - 1 in
  List.iteri
    (fun idx line ->
      if line <> "" then
        let line_no = idx + 2 in
        if idx = last then
          warn ~line:line_no ~reason:"torn final line (missing newline)"
        else
          match parse_entry line with
          | Ok (key, summary) -> insert t key summary
          | Error reason -> warn ~line:line_no ~reason)
    lines

let text_contents bindings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (format_magic ^ "\n");
  List.iter
    (fun (key, summary) ->
      Buffer.add_string buf (entry_line key summary);
      Buffer.add_char buf '\n')
    bindings;
  Buffer.contents buf

let file_id (st : Unix.stats) = (st.Unix.st_dev, st.Unix.st_ino)

(* The contents and the dev/ino pair of one open file: stat-after-read
   could describe a file that replaced the one we read. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let id = file_id (Unix.fstat (Unix.descr_of_in_channel ic)) in
      (really_input_string ic (in_channel_length ic), id))

(* Decode any cache file's contents (format auto-detected by magic) into
   a fresh table.  Binary files also fold the commit chain over their
   frames, in the same pass. *)
let table_of_contents ~warn ~path contents =
  if contents = "" then raise (Corrupt { path; line = 1; reason = "empty file" });
  let t = create () in
  match Cache_codec.detect contents with
  | `Corrupt reason -> raise (Corrupt { path; line = 1; reason })
  | `Text ->
      let body_start = String.length format_magic + 1 in
      parse_text_body ~warn t
        (String.sub contents body_start (String.length contents - body_start));
      (t, `Text)
  | `Binary ->
      let h = ref (Digest.string Cache_codec.header) in
      let d =
        Cache_codec.decode
          ~on_frame:(fun ~pos ~len -> h := chain_step !h contents ~pos ~len)
          ~warn:(fun ~line ~reason -> warn ~line:(line + 1) ~reason)
          ~pos:(String.length Cache_codec.header)
          contents
      in
      List.iter (fun (k, v) -> insert t k v) d.entries;
      (t, `Binary (d, !h))

(* Advisory exclusive lock on a sidecar ([path ^ ".lock"]), not on [path]
   itself: the compaction/atomic-save path replaces [path] by rename, so
   a lock on the data file's inode would guard a file that no longer
   exists.  The sidecar is stable, empty, and shared by every process
   syncing against [path]. *)
let with_file_lock ~path f =
  let lock_path = path ^ ".lock" in
  let fd = Unix.openfile lock_path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
      Unix.close fd)
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      f ())

(* Reclaim orphaned [Atomic_file] temporaries around [path] — litter from
   writers SIGKILLed mid-save.  The lock-free probe keeps the common
   clean-directory case from manufacturing sidecar lock files; actual
   removal happens under the lock so two sweepers (or a sweeper and a
   compacting sync) never race. *)
let sweep_stale_tmp ~path =
  if Atomic_file.stale_tmp_files ~path () <> [] then
    with_file_lock ~path (fun () -> ignore (Atomic_file.sweep ~path ()))

let resolve_warn ~path = function
  | Some w -> w
  | None -> fun ~line ~reason -> default_warn ~path ~line ~reason

(* Atomic whole-file rewrite in [format]; returns what it wrote. *)
let rewrite ~format t ~path =
  let contents =
    match format with
    | Text -> text_contents (bindings t)
    | Binary -> Cache_codec.encode_file (bindings t)
  in
  Atomic_file.write ~path (fun oc -> output_string oc contents);
  (* The rename put a new inode under [path]; any delta bookkeeping for
     it now describes a dead file. *)
  drop_sync_state t path;
  contents

let save ?(format = default_format) t ~path = ignore (rewrite ~format t ~path)

(* -- multi-process sharing ---------------------------------------------- *)

(* Adopt entries we lack; returns how many were new to [t]. *)
let adopt t entries =
  List.fold_left
    (fun adopted (k, v) ->
      Mutex.protect t.lock (fun () ->
          if Hashtbl.mem t.table k then adopted
          else begin
            insert t k v;
            adopted + 1
          end))
    0 entries

let merge t ~from =
  adopt t
    (Mutex.protect from.lock (fun () ->
         Hashtbl.fold (fun k v acc -> (k, v) :: acc) from.table []))

(* -- delta sync (binary) -------------------------------------------------

   The journal-style protocol behind [--shared-cache] at scale and behind
   every checkpoint save.  Under the sidecar lock:

   - first contact with a file (or after it was replaced/shrunk): sweep
     crash litter, read and decode the whole file once, adopt what we
     lack, then either compact (atomic rewrite: torn tail, skipped
     records, duplicate bloat, or a v1 text file being migrated) or
     append just our news;
   - every sync after that: read only the bytes past the last committed
     offset we saw, adopt the delta, truncate any torn tail left by a
     writer killed mid-append (safe: we hold the exclusive lock, so no
     live writer can be inside the tail), and append only entries the
     file does not already hold — found through the insertion log, not
     by scanning the table.

   Appends become commits frame-by-frame — a reader never trusts bytes
   past the last whole frame — so a SIGKILL anywhere in this protocol
   loses at most the killed process's own uncommitted tail.  The state
   also carries the commit chain over every frame below its offset,
   extended frame by frame as deltas are read or appended. *)

let write_all = Ft_framing.Framing.write_all

(* [records] encoded as frames, and [chain] extended over each. *)
let encode_frames chain records =
  let buf = Buffer.create 4096 in
  let ends =
    List.map
      (fun (k, s) ->
        Cache_codec.encode_record buf k s;
        Buffer.length buf)
      records
  in
  let frames = Buffer.contents buf in
  let chain, _ =
    List.fold_left
      (fun (h, pos) stop ->
        (chain_step h frames ~pos ~len:(stop - pos), stop))
      (chain, 0) ends
  in
  (frames, chain)

(* Write [frames] at byte offset [at], truncating first: if the file
   tail past [at] is a torn frame this removes it, and when the file
   already ends at [at] the truncate is a no-op. *)
let append_frames ~path ~at frames =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd at;
      ignore (Unix.lseek fd at Unix.SEEK_SET);
      let b = Bytes.unsafe_of_string frames in
      write_all fd b 0 (Bytes.length b);
      Unix.fsync fd)

(* Duplicate frames accumulate when several processes race to append the
   same key (benign: values for equal keys are bit-identical).  Compact
   once the frame count is over twice the distinct keys, plus slack so
   small files never bother. *)
let needs_compaction ~records ~distinct = records > (2 * distinct) + 32

(* Atomic whole-file rewrite: one frame per binding, duplicates and torn
   tails gone.  Installs fresh bookkeeping from the file we just wrote. *)
let compact t ~path =
  let bs, logged =
    Mutex.protect t.lock (fun () ->
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [], t.log_len))
  in
  let bs = List.sort compare bs in
  let frames, chain =
    encode_frames (Digest.string Cache_codec.header) bs
  in
  Atomic_file.write ~path (fun oc ->
      output_string oc Cache_codec.header;
      output_string oc frames);
  let s_known = Hashtbl.create (List.length bs) in
  List.iter (fun (k, _) -> Hashtbl.replace s_known k ()) bs;
  set_sync_state t path
    {
      s_offset = String.length Cache_codec.header + String.length frames;
      s_chain = chain;
      s_records = List.length bs;
      s_known;
      s_logged = logged;
      s_id = file_id (Unix.stat path);
    }

(* Keep the on-disk file as-is and append only entries it lacks: those
   inserted since the state's log position.  With no news and no torn
   tail past the offset ([size] is the file's length), no I/O at all. *)
let append_news t ~path ~state ~size =
  let news, logged =
    Mutex.protect t.lock (fun () ->
        let news = ref [] in
        for i = t.log_len - 1 downto state.s_logged do
          let k = t.log.(i) in
          if not (Hashtbl.mem state.s_known k) then
            news := (k, Hashtbl.find t.table k) :: !news
        done;
        (!news, t.log_len))
  in
  if news <> [] || size <> state.s_offset then begin
    let frames, chain = encode_frames state.s_chain news in
    append_frames ~path ~at:state.s_offset frames;
    List.iter (fun (k, _) -> Hashtbl.replace state.s_known k ()) news;
    state.s_offset <- state.s_offset + String.length frames;
    state.s_chain <- chain;
    state.s_records <- state.s_records + List.length news
  end;
  state.s_logged <- logged

(* The delta state a full read of a clean binary file leaves behind. *)
let state_of_decoded ~id ~chain (d : Cache_codec.decoded) =
  let s_known = Hashtbl.create (max 16 (List.length d.entries)) in
  List.iter (fun (k, _) -> Hashtbl.replace s_known k ()) d.entries;
  {
    s_offset = d.committed;
    s_chain = chain;
    s_records = List.length d.entries + d.skipped;
    s_known;
    s_logged = 0;
    s_id = id;
  }

let clean (d : Cache_codec.decoded) state =
  not
    (d.torn || d.skipped > 0
    || needs_compaction ~records:state.s_records
         ~distinct:(Hashtbl.length state.s_known))

let full_sync ~warn t ~path =
  if not (Sys.file_exists path) then begin
    compact t ~path;
    0
  end
  else
    let contents, id = read_file path in
    match table_of_contents ~warn ~path contents with
    | disk, `Text ->
        (* v1 file: adopt it wholesale and migrate to binary in place. *)
        let adopted = merge t ~from:disk in
        compact t ~path;
        adopted
    | _, `Binary (d, chain) ->
        let adopted = adopt t d.entries in
        let state = state_of_decoded ~id ~chain d in
        if clean d state then begin
          set_sync_state t path state;
          append_news t ~path ~state ~size:(String.length contents)
        end
        else compact t ~path;
        adopted

let delta_sync ~warn t ~path ~state ~size =
  let delta =
    if size = state.s_offset then ""
    else begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          seek_in ic state.s_offset;
          really_input_string ic (size - state.s_offset))
    end
  in
  let h = ref state.s_chain in
  let d =
    Cache_codec.decode
      ~on_frame:(fun ~pos ~len -> h := chain_step !h delta ~pos ~len)
      ~warn:(fun ~line ~reason ->
        warn ~line:(state.s_records + line + 1) ~reason)
      ~pos:0 delta
  in
  let adopted = adopt t d.entries in
  List.iter (fun (k, _) -> Hashtbl.replace state.s_known k ()) d.entries;
  state.s_offset <- state.s_offset + d.committed;
  state.s_chain <- !h;
  state.s_records <- state.s_records + List.length d.entries + d.skipped;
  if
    d.skipped > 0
    || needs_compaction ~records:state.s_records
         ~distinct:(Hashtbl.length state.s_known)
  then compact t ~path
  else
    (* [append_news] truncates to [state.s_offset] first, discarding any
       torn tail [decode] refused to trust. *)
    append_news t ~path ~state ~size;
  adopted

(* The state of [path], if it still describes the file there: same
   inode, not shrunk.  Returns it with the file's current size. *)
let live_state t ~path =
  match get_sync_state t path with
  | None -> None
  | Some state -> (
      match Unix.stat path with
      | st when file_id st = state.s_id && st.Unix.st_size >= state.s_offset ->
          Some (state, st.Unix.st_size)
      | _ | (exception Unix.Unix_error (Unix.ENOENT, _, _)) ->
          drop_sync_state t path;
          None)

let load_snapshot ?warn path =
  let warn = resolve_warn ~path warn in
  sweep_stale_tmp ~path;
  let contents, id = read_file path in
  match table_of_contents ~warn ~path contents with
  | t, `Text -> (t, mark_lines contents)
  | t, `Binary (d, chain) ->
      let state = state_of_decoded ~id ~chain d in
      if clean d state then begin
        state.s_logged <- t.log_len;
        set_sync_state t path state
      end;
      (t, { bytes = String.length contents; chain })

let load ?warn path = fst (load_snapshot ?warn path)

(* The binary leg of [sync] and [snapshot], under the file lock: a delta
   against live state, else [first_contact] after sweeping crash litter.
   Returns the adopted count and the file's mark. *)
let locked_binary ~warn t ~path ~first_contact =
  with_file_lock ~path (fun () ->
      let adopted =
        match live_state t ~path with
        | Some (state, size) -> delta_sync ~warn t ~path ~state ~size
        | None ->
            ignore (Atomic_file.sweep ~path ());
            first_contact ()
      in
      match get_sync_state t path with
      | Some state -> (adopted, { bytes = state.s_offset; chain = state.s_chain })
      | None -> assert false (* every branch above installs state *))

let sync ?warn ?(format = default_format) t ~path =
  let warn = resolve_warn ~path warn in
  match format with
  | Text ->
      with_file_lock ~path (fun () ->
          (* v1 semantics: whole-file read-merge-write, kept for golden
             tests and human-inspectable shared caches. *)
          ignore (Atomic_file.sweep ~path ());
          let adopted =
            if Sys.file_exists path then merge t ~from:(load ~warn path)
            else 0
          in
          save ~format:Text t ~path;
          adopted)
  | Binary ->
      fst
        (locked_binary ~warn t ~path ~first_contact:(fun () ->
             full_sync ~warn t ~path))

(* -- checkpoint snapshots ------------------------------------------------ *)

let snapshot ?(format = default_format) t ~path =
  match format with
  | Text -> mark_lines (rewrite ~format:Text t ~path)
  | Binary ->
      snd
        (locked_binary ~warn:(resolve_warn ~path None) t ~path
           ~first_contact:(fun () ->
             (* No delta state: replace whatever is at [path]. *)
             compact t ~path;
             0))
