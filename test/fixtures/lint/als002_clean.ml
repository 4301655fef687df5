(* ALS002 accepts scratch threaded through sequential solves *)
(* ALS002 near miss: scratch threaded linearly through *sequential*
   solves — caller-owned reuse is the whole point of the workspace. *)

module Poisson = struct
  type scratch = {
    sys : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  }

  let relax (s : scratch) = Bigarray.Array1.set s.sys 0 1.0
end

let sweep (s : Poisson.scratch) =
  Poisson.relax s;
  Poisson.relax s
