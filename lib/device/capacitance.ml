let oxide_area_capacitance ~tox = Physics.Constants.eps_ox /. tox

let gate ?(fringe = 0.25e-9) ~tox ~leff ~overlap () =
  let cox = oxide_area_capacitance ~tox in
  (cox *. leff) +. (2.0 *. ((cox *. overlap) +. fringe))

let fo1_load ~cg_n ~cg_p = 1.6 *. (cg_n +. cg_p)
