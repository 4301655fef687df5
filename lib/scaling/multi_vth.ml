type flavor = Low_vth | Standard_vth | High_vth

let flavor_name = function
  | Low_vth -> "LVT"
  | Standard_vth -> "SVT"
  | High_vth -> "HVT"

let ioff_multiplier = function Low_vth -> 10.0 | Standard_vth -> 1.0 | High_vth -> 0.1

type variant = {
  flavor : flavor;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
  vth_sat : float;
  ioff : float;
  delay_sub : float;
  energy_at_vmin : float;
  vmin : float;
}

let family ~(base : Device.Params.physical) ~ioff_vdd ~base_target =
  let cal = Device.Params.default_calibration in
  let sizing = Circuits.Inverter.balanced_sizing () in
  List.map
    (fun flavor ->
      let target = base_target *. ioff_multiplier flavor in
      let phys = Doping_fit.solve_for_ioff ~base ~ioff_vdd ~target () in
      let pair = Circuits.Inverter.pair_of_physical ~cal phys in
      let nfet = pair.Circuits.Inverter.nfet in
      let vmin_result = Analysis.Energy.vmin ~sizing pair in
      {
        flavor;
        phys;
        pair;
        vth_sat = Device.Iv_model.threshold_const_current nfet ~vds:ioff_vdd;
        ioff = Device.Iv_model.ioff nfet ~vdd:ioff_vdd;
        delay_sub = Analysis.Delay.eq5 pair ~sizing ~vdd:0.25;
        energy_at_vmin = vmin_result.Analysis.Energy.e_min;
        vmin = vmin_result.Analysis.Energy.vmin;
      })
    [ Low_vth; Standard_vth; High_vth ]

let for_node ~strategy (node : Roadmap.node) =
  let base, _ = Strategy.select strategy node in
  match strategy with
  | Strategy.Super_vth ->
    family ~base ~ioff_vdd:node.Roadmap.vdd ~base_target:node.Roadmap.ileak_max
  | Strategy.Sub_vth ->
    family ~base ~ioff_vdd:Sub_vth.operating_vdd ~base_target:Roadmap.sub_vth_ioff_target
