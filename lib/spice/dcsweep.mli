(** DC sweeps: repeated operating points against a swept voltage source,
    warm-starting each point from the last — the tool that produces voltage
    transfer characteristics.  One {!Dcop.workspace} serves every point of
    a sweep. *)

type t = {
  swept : Numerics.Vec.t;  (** swept source values *)
  solutions : Numerics.Vec.t array;  (** MNA unknown vector per point *)
}

val run : Mna.system -> source:string -> values:Numerics.Vec.t -> t
(** Sweep the named voltage source through [values].  Raises
    {!Dcop.No_convergence} if any point fails. *)

val probe : Mna.system -> t -> node:int -> Numerics.Vec.t
(** Voltage of [node] across the sweep. *)
