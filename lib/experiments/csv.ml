let escape field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') field then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let of_series (s : Series.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (String.concat "," ("" :: List.map escape s.Series.columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, cells) ->
      Buffer.add_string buf
        (String.concat ","
           (escape label :: List.map (Printf.sprintf "%.6f") cells));
      Buffer.add_char buf '\n')
    s.Series.rows;
  Buffer.contents buf

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write ~path series =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (of_series series))
