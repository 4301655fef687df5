(** Small ASCII line plots for terminal output of figure-style experiments. *)

type series = { name : string; points : (float * float) array }

val render : ?x_label:string -> ?y_label:string -> title:string -> series list -> string
(** Scatter the series onto a 64 x 18 character grid; each series uses a
    distinct marker listed in the legend.  Raises [Invalid_argument] when no
    series has points. *)
