let k_d = 0.69

let eq5 pair ~sizing ~vdd =
  let cl = Circuits.Inverter.load_capacitance pair sizing in
  let i_n = sizing.Circuits.Inverter.wn *. Device.Iv_model.ion pair.Circuits.Inverter.nfet ~vdd in
  let i_p = sizing.Circuits.Inverter.wp *. Device.Iv_model.ion pair.Circuits.Inverter.pfet ~vdd in
  k_d *. cl *. vdd /. (0.5 *. (i_n +. i_p))

type measured = { tp : float; tp_rise : float; tp_fall : float }

let measured ?(sizing = Circuits.Inverter.balanced_sizing ()) ?(steps = 600) pair ~vdd =
  let stages = 4 in
  let tp_est = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
  let edge = 2.0 *. tp_est in
  let settle = 8.0 *. tp_est *. float_of_int stages in
  let period = 2.0 *. settle in
  let input =
    Spice.Netlist.Pulse
      {
        low = 0.0;
        high = vdd;
        delay = 0.1 *. settle;
        rise = edge;
        fall = edge;
        width = (0.5 *. period) -. edge;
        period;
      }
  in
  let fx = Circuits.Inverter.chain_fixture ~sizing ~stages pair ~vdd ~input in
  let sys = Spice.Mna.build fx.Circuits.Inverter.circuit in
  let in_node = fx.Circuits.Inverter.stage_nodes.(2)
  and out_node = fx.Circuits.Inverter.stage_nodes.(3) in
  let result =
    Spice.Transient.run sys
      ~probes:[ Spice.Transient.Node in_node; Node out_node ]
      ~t_stop:period ~steps
  in
  let times = Spice.Transient.times result in
  let v_in_stage = Spice.Transient.voltage_of result in_node in
  let v_out_stage = Spice.Transient.voltage_of result out_node in
  let level = 0.5 *. vdd in
  let delay_for input_edge =
    match
      Spice.Waveform.propagation_delay ~times ~input:v_in_stage ~output:v_out_stage ~level
        ~input_edge
    with
    | Some d -> d
    | None -> failwith "Delay.measured: stage did not switch within the transient window"
  in
  let tp_fall = delay_for Spice.Waveform.Rising in
  let tp_rise = delay_for Spice.Waveform.Falling in
  { tp = 0.5 *. (tp_rise +. tp_fall); tp_rise; tp_fall }
