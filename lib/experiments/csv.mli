(** CSV export of result series — for users who want to plot the
    regenerated figures with their own tooling rather than read the
    harness's text tables. *)

val of_series : Series.t -> string
(** RFC-4180-style CSV: header row [",col1,col2,…"], one line per series
    row, 6-digit floats.  Labels containing commas or quotes are
    quoted. *)

val write : path:string -> Series.t -> unit
(** Write {!of_series} to a file, creating its missing parent
    directories. *)
