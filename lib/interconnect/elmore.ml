let distributed_delay ~r_per_l ~c_per_l ~length =
  0.38 *. r_per_l *. c_per_l *. length *. length
