(* UNT004 fires on an argument contradicting the seeded table *)
(* Silicon.fermi_potential takes a doping [m^-3], not a voltage. *)
module Params = struct
  type physical = { vdd : float }
end

module Silicon = struct
  let fermi_potential n = n
end

let bad (p : Params.physical) = Silicon.fermi_potential p.Params.vdd
