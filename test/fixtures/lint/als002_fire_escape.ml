(* ALS002 fires on scratch stored into a long-lived ref *)
(* The escape shape: the workspace outlives the solve that owns it, so a
   later solve can find it still in use. *)

module Poisson = struct
  type scratch = {
    sys : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  }
end

let cache : Poisson.scratch option ref = ref None

let stash (s : Poisson.scratch) = cache := Some s
