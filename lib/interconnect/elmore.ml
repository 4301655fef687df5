let distributed_delay ~r_per_l ~c_per_l ~length =
  0.38 *. r_per_l *. c_per_l *. length *. length

let driven_wire_delay ~r_per_l ~c_per_l ~length ~r_driver ~c_load =
  let c_wire = c_per_l *. length in
  let r_wire = r_per_l *. length in
  (0.69 *. r_driver *. (c_wire +. c_load))
  +. distributed_delay ~r_per_l ~c_per_l ~length
  +. (0.69 *. r_wire *. c_load)
