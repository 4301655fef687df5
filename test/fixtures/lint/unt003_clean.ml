(* UNT003 accepts both operands through the same conversion *)
(* UNT003 near miss: both operands converted through the same display
   boundary — scales agree. *)
module Params = struct
  type physical = { lpoly : float; tox : float }
end

module Constants = struct
  let to_nm x = x *. 1e9
end

let good (p : Params.physical) =
  Constants.to_nm p.Params.lpoly +. Constants.to_nm p.Params.tox
