(* A conservative sense-amp requirement: the read current must beat the
   aggregate leak fourfold. *)
let margin = 4.0

let max_bits_per_line dev ~vdd =
  let ratio = Device.Iv_model.on_off_ratio dev ~vdd in
  Int.max 1 (1 + int_of_float (ratio /. margin))

type swing = {
  bits : int;
  read_current : float;
  leak_current : float;
  effective_current : float;
  swing_time : float;
}

(* 0.08 fF/um of device width per bit (wire plus drain junction), sensed at
   a 50 mV differential. *)
let bitline_cap_per_bit = 0.08e-15 /. 1e-6
let sense_margin = 0.05

let read_swing dev ~vdd ~bits =
  if bits < 1 then invalid_arg "Bitline.read_swing: need at least one bit";
  let read_current = Device.Iv_model.ion dev ~vdd in
  let leak_current = float_of_int (bits - 1) *. Device.Iv_model.ioff dev ~vdd in
  let effective_current = read_current -. leak_current in
  if effective_current <= 0.0 then
    invalid_arg
      (Printf.sprintf
         "Bitline.read_swing: %d bits leak more than the read current provides" bits);
  let cap = float_of_int bits *. bitline_cap_per_bit in
  { bits; read_current; leak_current; effective_current;
    swing_time = cap *. sense_margin /. effective_current }
