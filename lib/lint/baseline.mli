(** The checked-in baseline of grandfathered findings.

    Format: one [<rule> <file>:<line> — justification] entry per line
    ([#] comments and blanks ignored).  Matching ignores the column, and
    entries that no longer match anything are reported as stale. *)

type entry = { rule : string; file : string; line : int; note : string }
type t = entry list

exception Malformed of int * string
(** Line number and content of an unparseable baseline line. *)

val load : string -> t
(** [load path] is [[]] when the file does not exist; raises {!Malformed}
    on a line it cannot parse. *)

val todos : t -> t
(** The entries whose note starts with a TODO marker ("— TODO ...", as
    written by [--update-baseline]).  [--strict] rejects such entries. *)

val entry_to_string : entry -> string
val to_string : t -> string
(** Render with the standard header (the [--update-baseline] output). *)

val entry_of_diag : Check.Diagnostic.t -> entry option
(** The entry that grandfathers a finding, with an empty note; [None]
    when its location is not [file:line:col]. *)

type application = {
  kept : Check.Diagnostic.t list;
  suppressed : Check.Diagnostic.t list;
  stale : entry list;
}

val apply : t -> Check.Diagnostic.t list -> application
