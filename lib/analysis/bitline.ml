(* A conservative sense-amp requirement: the read current must beat the
   aggregate leak fourfold. *)
let margin = 4.0

let max_bits_per_line dev ~vdd =
  let ratio = Device.Iv_model.on_off_ratio dev ~vdd in
  Int.max 1 (1 + int_of_float (ratio /. margin))
