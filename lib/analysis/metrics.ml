let energy_factor pair ~sizing =
  let cl = Circuits.Inverter.load_capacitance pair sizing in
  let ss = pair.Circuits.Inverter.nfet.Device.Compact.ss in
  cl *. ss *. ss

let delay_factor ?(ioff_vdd = 0.25) pair ~sizing =
  let cl = Circuits.Inverter.load_capacitance pair sizing in
  let ss = pair.Circuits.Inverter.nfet.Device.Compact.ss in
  let i_n =
    sizing.Circuits.Inverter.wn *. Device.Iv_model.ioff pair.Circuits.Inverter.nfet ~vdd:ioff_vdd
  in
  let i_p =
    sizing.Circuits.Inverter.wp *. Device.Iv_model.ioff pair.Circuits.Inverter.pfet ~vdd:ioff_vdd
  in
  cl *. ss /. (0.5 *. (i_n +. i_p))
