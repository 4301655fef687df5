(* The paper's Fig. 6 workload settings and V_min search bracket; exposed
   so the validity auditor propagates intervals through the *same* model
   the experiments run (no drift between audited and executed constants). *)
let default_stages = 30
let default_alpha = 0.1
let vmin_bracket_lo = 0.08
let vmin_bracket_hi = 0.6

type breakdown = {
  vdd : float;
  e_dyn : float;
  e_leak : float;
  e_total : float;
  t_cycle : float;
}

let static_leak_current pair sizing ~vdd =
  (* In a static inverter exactly one device leaks per state; averaged over
     data, the mean leak is the N/P average. *)
  let i_n =
    sizing.Circuits.Inverter.wn *. Device.Iv_model.ioff pair.Circuits.Inverter.nfet ~vdd
  in
  let i_p =
    sizing.Circuits.Inverter.wp *. Device.Iv_model.ioff pair.Circuits.Inverter.pfet ~vdd
  in
  0.5 *. (i_n +. i_p)

let analytic ?(sizing = Circuits.Inverter.balanced_sizing ()) ?(stages = default_stages)
    ?(alpha = default_alpha) pair ~vdd =
  if vdd <= 0.0 then invalid_arg "Energy.analytic: vdd must be positive";
  let n = float_of_int stages in
  let cl = Circuits.Inverter.load_capacitance pair sizing in
  let tp = Delay.eq5 pair ~sizing ~vdd in
  let t_cycle = n *. tp in
  let e_dyn = alpha *. n *. cl *. vdd *. vdd in
  let i_leak = n *. static_leak_current pair sizing ~vdd in
  let e_leak = i_leak *. vdd *. t_cycle in
  { vdd; e_dyn; e_leak; e_total = e_dyn +. e_leak; t_cycle }

let measured ?(stages = default_stages) ?(steps = 900) pair ~vdd =
  let sizing = Circuits.Inverter.balanced_sizing () and alpha = default_alpha in
  let chain = Circuits.Chain.build ~sizing ~stages pair ~vdd in
  let sys = Spice.Mna.build chain.Circuits.Chain.fixture.Circuits.Inverter.circuit in
  let period = chain.Circuits.Chain.period in
  let result =
    Spice.Transient.run sys ~probes:[ Spice.Transient.Source "VDD" ] ~t_stop:period ~steps
  in
  let e_period = Spice.Transient.energy_from_source result ~name:"VDD" ~vdd in
  (* One period holds one rising and one falling chain traversal: one full
     switching event of every node.  At activity alpha, a fraction alpha of
     cycles switch; the rest only leak.  Static leak power is measured from
     the settled tail of the transient. *)
  let times = Spice.Transient.times result in
  let i_vdd = Spice.Transient.current_of result "VDD" in
  let quiet_start = 0.9 *. period in
  let i_static =
    -.Spice.Waveform.slice_average ~times ~values:i_vdd ~t0:quiet_start ~t1:period
  in
  let p_static = vdd *. i_static in
  let e_switch = e_period -. (p_static *. period) in
  (* Cycle time: the chain clocked at its own propagation delay. *)
  let n = float_of_int stages in
  let t_cycle = n *. Delay.eq5 pair ~sizing ~vdd in
  (alpha *. e_switch) +. (p_static *. t_cycle)

type vmin_result = { vmin : float; e_min : float; curve : (float * breakdown) list }

let vmin ?(sizing = Circuits.Inverter.balanced_sizing ()) pair =
  let lo = vmin_bracket_lo and hi = vmin_bracket_hi in
  let energy vdd = (analytic ~sizing pair ~vdd).e_total in
  let vmin, e_min = Numerics.Minimize.grid_then_golden ~samples:40 ~tol:1e-7 energy lo hi in
  let samples = Numerics.Vec.linspace lo hi 40 in
  let curve =
    Array.to_list (Array.map (fun v -> (v, analytic ~sizing pair ~vdd:v)) samples)
  in
  { vmin; e_min; curve }

