(** Two-dimensional lookup tables (input slew x output load), bilinearly
    interpolated and clamped at the characterized corners — the NLDM table
    format every timing library uses. *)

type t

val create : slews:Numerics.Vec.t -> loads:Numerics.Vec.t -> values:float array array -> t
(** [values.(i).(j)] corresponds to [slews.(i)] and [loads.(j)]; both axes
    strictly increasing.  Raises [Invalid_argument] on shape mismatch. *)

val eval : t -> slew:float -> load:float -> float
(** Bilinear interpolation; queries outside the grid clamp to the edge
    (conservative corner behaviour). *)

val slews : t -> Numerics.Vec.t

val loads : t -> Numerics.Vec.t
