(** The doping-selection kernel shared by every scaling strategy: given a
    device skeleton (geometry, oxide, supply) and an off-current budget,
    pick N_sub from the long-channel device and the halo dose from the
    short-channel one — the two-step structure of the paper's Fig. 1(c). *)

val solve_for_ioff :
  base:Device.Params.physical ->
  ioff_vdd:float ->
  target:float ->
  unit ->
  Device.Params.physical
(** [solve_for_ioff ~base ~ioff_vdd ~target ()] returns [base] with
    [nsub]/[np_halo] set so the NFET's I_off at drain bias [ioff_vdd] equals
    [target] [A/m] under the default calibration.  The long-channel reference
    device keeps [base]'s junction geometry.  Raises [Failure] when the budget
    is unreachable in the search window (5e16 .. 3e19 cm^-3 substrate, up to
    6e19 halo). *)
