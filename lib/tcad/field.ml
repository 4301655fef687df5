(* Flat per-node field state for the device simulator: a thin veneer over
   Numerics.Fvec (float64 Bigarray) plus the packed boundary mask the
   assembly loops branch on.  Everything the Poisson/continuity inner loops
   touch per node — potentials, Slotboom variables, densities, doping,
   mobilities, boundary codes — lives on these contiguous buffers. *)

include Numerics.Fvec

module Mask = struct
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  (* Codes, chosen so ohmic nodes are exactly those >= first_ohmic and the
     terminal of an ohmic node is [code - first_ohmic] indexing
     [Source; Drain; Gate; Substrate]. *)
  let interior = 0
  let reflecting = 1
  let gate_surface = 2
  let first_ohmic = 3
  let ohmic_source = 3
  let ohmic_drain = 4
  let ohmic_gate = 5
  let ohmic_substrate = 6

  let create n : t =
    let m = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n in
    Bigarray.Array1.fill m interior;
    m

  let set (m : t) i v = Bigarray.Array1.set m i v
end
