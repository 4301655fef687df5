(* UNT002 accepts a V/V dimensionless exponent *)
(* UNT002 near miss: V / V is dimensionless, so the exponent is fine. *)
module Params = struct
  type physical = { vdd : float }
end

module Constants = struct
  let vt_room = 0.02585
end

let good (p : Params.physical) = exp (p.Params.vdd /. Constants.vt_room)
