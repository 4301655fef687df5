(* UNT004 accepts arguments matching the table *)
(* UNT004 near miss: the argument carries exactly the seeded dimension. *)
module Params = struct
  type physical = { nsub : float }
end

module Silicon = struct
  let fermi_potential n = n
end

let good (p : Params.physical) = Silicon.fermi_potential p.Params.nsub
