(* ALS003 fires on a blit whose output aliases its input *)
(* A call's mutated (output) buffer is also its input: a vector blitted onto itself. *)

module Fvec = struct
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst
end

let refresh (v : Fvec.t) = Fvec.blit v v
