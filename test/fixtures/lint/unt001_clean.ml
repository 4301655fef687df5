(* UNT001 accepts like dimensions, literals and unknowns *)
(* UNT001 near misses: like dimensions add freely, bare literals adopt
   the other side's dimension, and unknowns never fire. *)
module Params = struct
  type physical = { lpoly : float; tox : float }
end

let good (p : Params.physical) = p.Params.lpoly +. p.Params.tox
let offset (p : Params.physical) = p.Params.lpoly +. 1e-9
let opaque (p : Params.physical) x = p.Params.lpoly +. x
