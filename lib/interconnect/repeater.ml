let driver_resistance pair ~sizing ~vdd =
  let i_n =
    sizing.Circuits.Inverter.wn *. Device.Iv_model.ion pair.Circuits.Inverter.nfet ~vdd
  in
  let i_p =
    sizing.Circuits.Inverter.wp *. Device.Iv_model.ion pair.Circuits.Inverter.pfet ~vdd
  in
  vdd /. (i_n +. i_p)

let optimal_segment_length pair ~sizing ~vdd ~geometry =
  let r_drv = driver_resistance pair ~sizing ~vdd in
  let c_gate = Circuits.Inverter.load_capacitance pair sizing in
  let rc = Wire.rc_per_length2 geometry in
  sqrt (2.0 *. r_drv *. c_gate /. (0.38 *. rc /. 0.69))
