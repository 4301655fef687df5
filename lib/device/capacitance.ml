let oxide_area_capacitance ~tox = Physics.Constants.eps_ox /. tox

let gate ?(fringe = 0.25e-9) ~tox ~leff ~overlap () =
  let cox = oxide_area_capacitance ~tox in
  (cox *. leff) +. (2.0 *. ((cox *. overlap) +. fringe))
