(* UNT002 fires on exp of an un-normalized voltage *)
(* The voltage was never divided by the thermal voltage. *)
module Params = struct
  type physical = { vdd : float }
end

let bad (p : Params.physical) = exp p.Params.vdd
