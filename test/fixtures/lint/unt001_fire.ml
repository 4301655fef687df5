(* UNT001 fires as an error on length +. voltage *)
(* A poly length [m] added to a supply voltage [V]. *)
module Params = struct
  type physical = { lpoly : float; vdd : float }
end

let bad (p : Params.physical) = p.Params.lpoly +. p.Params.vdd
