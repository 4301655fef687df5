(* The n+-poly gate's doping. *)
let gate_doping = Physics.Constants.per_cm3 1e20

let long_channel ?(t = Physics.Constants.t_room) ~neff ~cox () =
  let phi_f = Physics.Silicon.fermi_potential ~t neff in
  let phi_gate = Physics.Silicon.fermi_potential ~t gate_doping in
  let vfb = -.(phi_gate +. phi_f) in
  let qdep = sqrt (2.0 *. Physics.Constants.q *. Physics.Constants.eps_si *. neff *. 2.0 *. phi_f) in
  vfb +. (2.0 *. phi_f) +. (qdep /. cox)

let characteristic_length ~tox ~wdep =
  sqrt (Physics.Constants.eps_si *. tox *. wdep /. Physics.Constants.eps_ox)

let rolloff ?(k_vth_sce = 1.0) ?(k_dibl = 1.0) ~vbi ~surface_potential ~vds ~leff ~lt () =
  -.k_vth_sce
  *. ((2.0 *. (vbi -. surface_potential)) +. (k_dibl *. vds))
  *. exp (-.leff /. (2.0 *. lt))
