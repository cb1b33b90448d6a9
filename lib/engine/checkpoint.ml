type t = {
  path : string;
  every : int;
  format : Cache.format;
  lock : Mutex.t;
  save_lock : Mutex.t;
  mutable pending : int;
  on_write : (string -> unit) option;
  (* What is on disk as of the last save or load, guarded by [save_lock]:
     the quarantine snapshot's contents with its mark, and the commit
     record's text.  A file whose new contents equal these is not
     rewritten. *)
  mutable disk_quarantine : (string * Cache.mark) option;
  mutable disk_record : string option;
}

let create ~path ?(every = 64) ?(format = Cache.default_format) ?on_write () =
  if every < 1 then invalid_arg "Checkpoint.create: every must be >= 1";
  {
    path;
    every;
    format;
    lock = Mutex.create ();
    save_lock = Mutex.create ();
    pending = 0;
    on_write;
    disk_quarantine = None;
    disk_record = None;
  }

let path t = t.path
let quarantine_path t = t.path ^ ".quarantine"
let commit_path t = t.path ^ ".commit"
let files t = [ t.path; quarantine_path t; commit_path t; t.path ^ ".lock" ]
let exists t = Sys.file_exists t.path

let notify t stage =
  match t.on_write with None -> () | Some f -> f stage

(* The commit record: the mark (length and record-chained digest) of
   both snapshot files, written last.  A checkpoint is "committed"
   exactly when the record matches what is on disk — any crash between
   the writes leaves a detectable (and survivable) tear instead of a
   silently inconsistent pair.  Version 1 records held whole-file MD5s;
   they still verify, and the next save replaces them. *)

let commit_magic = "ft-checkpoint-commit/2"
let commit_magic_v1 = "ft-checkpoint-commit/1"

type expected = Mark of Cache.mark | Whole_file of string

let render_record ~cache ~quarantine =
  let field name (m : Cache.mark) =
    Printf.sprintf "%s %d %s\n" name m.Cache.bytes (Digest.to_hex m.Cache.chain)
  in
  commit_magic ^ "\n" ^ field "cache" cache ^ field "quarantine" quarantine

let parse_record contents =
  let hex s = if String.length s = 32 then Digest.from_hex s else raise Exit in
  let field expected line =
    match String.split_on_char ' ' line with
    | [ tag; digest ] when tag = expected -> Whole_file (hex digest)
    | [ tag; bytes; digest ] when tag = expected ->
        Mark { Cache.bytes = int_of_string bytes; chain = hex digest }
    | _ -> raise Exit
  in
  match String.split_on_char '\n' contents with
  | [ magic; c; q; "" ] -> (
      match (field "cache" c, field "quarantine" q) with
      | (Mark _ as c), (Mark _ as q) when magic = commit_magic -> Some (c, q)
      | (Whole_file _ as c), (Whole_file _ as q) when magic = commit_magic_v1 ->
          Some (c, q)
      | _ -> None
      | exception (Exit | Failure _ | Invalid_argument _) -> None)
  | _ -> None

let read_file path = In_channel.with_open_bin path In_channel.input_all

let save t ~cache ~quarantine =
  (* One save transaction at a time: two workers both becoming "due" must
     not interleave their file writes, or the commit record of one could
     describe the snapshots of the other. *)
  Mutex.protect t.save_lock (fun () ->
      (* Quarantine first.  If we crash before the cache is written, the
         survivor pairs an older cache with a newer quarantine — the safe
         tear direction: resuming re-measures the missing summaries
         (deterministically) and the extra quarantine entries are exactly
         what re-evaluation would have re-derived.  The opposite order
         could resurrect a quarantined configuration with a stale verdict. *)
      let q = Quarantine.to_string quarantine in
      let q_mark =
        match t.disk_quarantine with
        | Some (on_disk, mark) when on_disk = q -> mark
        | _ ->
            Atomic_file.write ~path:(quarantine_path t) (fun oc ->
                output_string oc q);
            let mark = Cache.mark_lines q in
            t.disk_quarantine <- Some (q, mark);
            mark
      in
      notify t "quarantine";
      (* Appends only the entries added since the last save. *)
      let cache_mark = Cache.snapshot ~format:t.format cache ~path:t.path in
      notify t "cache";
      let record = render_record ~cache:cache_mark ~quarantine:q_mark in
      if t.disk_record <> Some record then begin
        Atomic_file.write ~path:(commit_path t) (fun oc ->
            output_string oc record);
        t.disk_record <- Some record
      end;
      notify t "commit")

let load ?warn t =
  if not (exists t) then None
  else begin
    let warn_commit reason =
      match warn with
      | Some w -> w ~line:0 ~reason
      | None ->
          Printf.eprintf "warning: %s: %s\n%!" (commit_path t) reason
    in
    let record =
      if Sys.file_exists (commit_path t) then Some (read_file (commit_path t))
      else None
    in
    let cache, cache_mark = Cache.load_snapshot ?warn t.path in
    let on_disk_quarantine =
      if Sys.file_exists (quarantine_path t) then
        let c = read_file (quarantine_path t) in
        Some (c, Cache.mark_lines c)
      else None
    in
    (match Option.map parse_record record with
    | Some None -> warn_commit "malformed commit record"
    | None ->
        warn_commit
          "no commit record (snapshot predates the commit protocol); \
           trusting both snapshot files as-is"
    | Some (Some (c, q)) ->
        let check label file mark expected =
          match mark with
          | None ->
              warn_commit
                (Printf.sprintf "torn checkpoint: %s snapshot is missing" label)
          | Some mark ->
              let matches =
                match expected with
                | Mark m -> mark = m
                | Whole_file d -> Digest.file file = d
              in
              if not matches then
                warn_commit
                  (Printf.sprintf
                     "torn checkpoint: %s snapshot does not match its commit \
                      record; resuming anyway (deterministic replay \
                      re-derives the difference)"
                     label)
        in
        check "cache" t.path (Some cache_mark) c;
        check "quarantine" (quarantine_path t)
          (Option.map snd on_disk_quarantine)
          q);
    let quarantine =
      match on_disk_quarantine with
      | Some (c, _) -> Quarantine.of_string ?warn ~path:(quarantine_path t) c
      | None -> Quarantine.create ()
    in
    (* Seed the save state from what is on disk, so the next save writes
       only what changed since. *)
    Mutex.protect t.save_lock (fun () ->
        t.disk_quarantine <- on_disk_quarantine;
        t.disk_record <- record);
    Some (cache, quarantine)
  end

let flush t ~cache ~quarantine =
  Mutex.protect t.lock (fun () -> t.pending <- 0);
  save t ~cache ~quarantine

let tick t ~cache ~quarantine =
  let due =
    Mutex.protect t.lock (fun () ->
        t.pending <- t.pending + 1;
        if t.pending >= t.every then begin
          t.pending <- 0;
          true
        end
        else false)
  in
  (* Save outside the counter lock: a save takes the cache lock and the
     file lock; other workers may keep recording events meanwhile.
     [save] serializes concurrent due-savers on its own lock. *)
  if due then save t ~cache ~quarantine;
  due
