(** Minimal CSV output for exporting experiment data: a cell holding a
    comma, quote or line break is quoted, with inner quotes doubled
    (RFC 4180). *)

val of_table : Table.t -> string
(** Headers followed by data rows (title and notes are dropped). *)
