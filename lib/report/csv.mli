(** Minimal CSV output (RFC-4180 quoting) for exporting experiment data. *)

val escape_cell : string -> string

val write : path:string -> string list list -> unit
(** Raises [Sys_error] on I/O failure. *)

val of_table : Table.t -> string
(** Headers followed by data rows (title and notes are dropped). *)
