type reason =
  | Build_failed of string
  | Crashed of string
  | Wrong_answer
  | Timed_out of float

let reason_to_string = function
  | Build_failed m -> Printf.sprintf "build-failed(%s)" m
  | Crashed d -> Printf.sprintf "crashed(%s)" d
  | Wrong_answer -> "wrong-answer"
  | Timed_out s -> Printf.sprintf "timed-out(%.1fs)" s

type t = {
  table : (string, reason) Hashtbl.t;
  lock : Mutex.t;
}

let create () = { table = Hashtbl.create 256; lock = Mutex.create () }

let add t key reason =
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.table key reason)

let find t key =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

let bindings t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [])
  |> List.sort compare

(* On-disk format: one entry per line, <key> TAB <tag> [TAB <detail>].
   Details are sanitized so they can never smuggle a field separator. *)

let format_magic = "ft-quarantine/1"

let sanitize s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let entry_line key = function
  | Build_failed m -> Printf.sprintf "%s\tB\t%s" key (sanitize m)
  | Crashed d -> Printf.sprintf "%s\tC\t%s" key (sanitize d)
  | Wrong_answer -> Printf.sprintf "%s\tW" key
  | Timed_out s -> Printf.sprintf "%s\tT\t%h" key s

let parse_entry line =
  match String.split_on_char '\t' line with
  | [ key; "B"; m ] -> Ok (key, Build_failed m)
  | [ key; "C"; d ] -> Ok (key, Crashed d)
  | [ key; "W" ] -> Ok (key, Wrong_answer)
  | [ key; "T"; s ] -> (
      match float_of_string_opt s with
      | Some s -> Ok (key, Timed_out s)
      | None -> Error "unparsable timeout seconds")
  | _ -> Error "unrecognized quarantine entry"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (format_magic ^ "\n");
  List.iter
    (fun (key, reason) ->
      Buffer.add_string buf (entry_line key reason);
      Buffer.add_char buf '\n')
    (bindings t);
  Buffer.contents buf

let save t ~path =
  Atomic_file.write ~path (fun oc -> output_string oc (to_string t))

exception Corrupt of { path : string; line : int; reason : string }

let default_warn ~path ~line ~reason =
  Printf.eprintf "warning: %s:%d: skipping malformed quarantine entry (%s)\n%!"
    path line reason

let of_string ?warn ~path contents =
  let warn =
    match warn with
    | Some w -> w
    | None -> fun ~line ~reason -> default_warn ~path ~line ~reason
  in
  match String.split_on_char '\n' contents with
  | [ "" ] -> raise (Corrupt { path; line = 1; reason = "empty file" })
  | magic :: lines when magic = format_magic ->
      let t = create () in
      (* A line is trusted only once its newline reached the disk: the
         final element is "" for a whole file, else a torn line. *)
      let last = List.length lines - 1 in
      List.iteri
        (fun idx line ->
          let line_no = idx + 2 in
          if line = "" then ()
          else if idx = last then
            warn ~line:line_no ~reason:"torn final line (missing newline)"
          else
            match parse_entry line with
            | Ok (key, reason) -> Hashtbl.replace t.table key reason
            | Error reason -> warn ~line:line_no ~reason)
        lines;
      t
  | _ -> raise (Corrupt { path; line = 1; reason = "not a quarantine file" })

let load ?warn path =
  of_string ?warn ~path (In_channel.with_open_bin path In_channel.input_all)
