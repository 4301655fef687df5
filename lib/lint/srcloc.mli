(** Typedtree locations rendered as "file:line:col". *)

val to_string : source:string -> Location.t -> string
