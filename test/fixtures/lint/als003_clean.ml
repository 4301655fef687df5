(* ALS003 accepts physically distinct buffers *)
(* ALS003 near miss: physically distinct source and destination. *)

module Fvec = struct
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst
end

let refresh (src : Fvec.t) (dst : Fvec.t) = Fvec.blit src dst
