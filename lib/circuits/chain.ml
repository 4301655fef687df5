type t = {
  fixture : Inverter.transient_fixture;
  pair : Inverter.pair;
  sizing : Inverter.sizing;
  vdd : float;
  stages : int;
  period : float;
}

(* Average of the pull-down and pull-up drive at V_gs = V_ds = V_dd, which is
   what discharges/charges the FO1 load. *)
let estimated_stage_delay pair sizing ~vdd =
  let cl = Inverter.load_capacitance pair sizing in
  let i_n = sizing.Inverter.wn *. Device.Iv_model.ion pair.Inverter.nfet ~vdd in
  let i_p = sizing.Inverter.wp *. Device.Iv_model.ion pair.Inverter.pfet ~vdd in
  let i_avg = 0.5 *. (i_n +. i_p) in
  0.69 *. cl *. vdd /. i_avg

let build ?(sizing = Inverter.balanced_sizing ()) ?(stages = 30) pair ~vdd =
  if vdd <= 0.0 then invalid_arg "Chain.build: vdd must be positive";
  let tp = estimated_stage_delay pair sizing ~vdd in
  let chain_time = float_of_int stages *. tp in
  let period = 4.0 *. chain_time in
  let rise = 0.05 *. period in
  let input =
    Spice.Netlist.Pulse
      {
        low = 0.0;
        high = vdd;
        delay = 0.02 *. period;
        rise;
        fall = rise;
        width = (0.5 *. period) -. rise;
        period;
      }
  in
  let fixture = Inverter.chain_fixture ~sizing ~stages pair ~vdd ~input in
  { fixture; pair; sizing; vdd; stages; period }
