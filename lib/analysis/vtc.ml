type curve = { vin : Numerics.Vec.t; vout : Numerics.Vec.t }

let vt = Physics.Constants.vt_room

(* V_th at V_ds = 10 vT, the one value the analytic VTC/SNM expressions
   treat as constant: deep enough in saturation that the (1 - e^{-V_ds/vT})
   factor is negligible, low enough that DIBL stays at its sub-V_th
   operating value.  I_o of Eq. 3 is the device current there at
   V_gs = V_th, per device width, times the width. *)
let vds_sub = 10.0 *. vt

(* Eq. 3(b) gives vin(vout).  We sweep vout densely, compute vin, and
   resample onto a uniform vin grid in one merge walk; no table of
   (vin, vout) samples is built.  A stage holds what a threshold shift leaves alone at one V_dd:
   both devices' prepared coefficients, the vin grid, and the two rail
   terms of every vout sample, 1 - e^{(vout - V_dd)/vT} and
   1 - e^{-vout/vT}.  The rail terms sit in chunks of [1 lsl chunk_bits]
   floats, the largest block the minor heap takes, so a one-shot stage
   dies young instead of going straight to the major heap.  Nothing
   writes to a stage once it is built, so any number of domains may
   apply it. *)
let chunk_bits = 8
let chunk_mask = (1 lsl chunk_bits) - 1

type stage = {
  nfet : Device.Iv_model.coeffs;
  pfet : Device.Iv_model.coeffs;
  wn : float;
  wp : float;
  m_n : float;
  m_p : float;
  vdd : float;
  k : int;  (* vout samples: Vec.linspace eps (vdd - eps) k *)
  eps : float;
  step : float;
  high : float array array;  (* 1 - e^{(vout - V_dd)/vT}, by chunk *)
  low : float array array;  (* 1 - e^{-vout/vT}, by chunk *)
  vin : Numerics.Vec.t;
}

let stage ?(points = 101) (pair : Circuits.Inverter.pair) ~sizing ~vdd =
  let n = pair.Circuits.Inverter.nfet and p = pair.Circuits.Inverter.pfet in
  let eps = 1e-4 *. vdd in
  let k = 4 * points in
  let hi = vdd -. eps in
  let step = (hi -. eps) /. float_of_int (k - 1) in
  let vin = Numerics.Vec.linspace 0.0 vdd points in
  let chunks () =
    Array.init ((k + chunk_mask) lsr chunk_bits) (fun c ->
        Array.make (Int.min (chunk_mask + 1) (k - (c lsl chunk_bits))) 0.0)
  in
  let high = chunks () and low = chunks () in
  for i = 0 to k - 1 do
    let vout = eps +. (step *. float_of_int i) in
    high.(i lsr chunk_bits).(i land chunk_mask) <- 1.0 -. exp ((vout -. vdd) /. vt);
    low.(i lsr chunk_bits).(i land chunk_mask) <- 1.0 -. exp (-.vout /. vt)
  done;
  {
    nfet = Device.Iv_model.prepare n;
    pfet = Device.Iv_model.prepare p;
    wn = sizing.Circuits.Inverter.wn;
    wp = sizing.Circuits.Inverter.wp;
    m_n = n.Device.Compact.m;
    m_p = p.Device.Compact.m;
    vdd;
    k;
    eps;
    step;
    high;
    low;
    vin;
  }

(* [Float.max 0.0 (Float.min vdd v)], bit for bit (NaNs and signed zeros
   included), written out: the stdlib pair, inlined, boxes the float one
   hands the other. *)
let[@inline] clamp vdd v =
  let m =
    if v > vdd || ((not (Float.sign_bit v)) && Float.sign_bit vdd) then
      if Float.is_nan v then v else vdd
    else if Float.is_nan vdd then vdd
    else v
  in
  if m > 0.0 || Float.is_nan m then m else 0.0

(* Each sample keeps the unstaged evaluation order:
   num = (m_n (V_dd - V_th,p) + m_p V_th,n) + m_n m_p vT log((I_o,p / I_o,n) a / b),
   vin = num / (m_n + m_p). *)
let apply st ~dvn ~dvp =
  let b = Array.make 3 0.0 in
  b.(1) <- vds_sub;
  b.(2) <- dvn;
  Device.Iv_model.vth_shifted_into st.nfet b;
  let vth_n = b.(0) in
  Device.Iv_model.eval_shifted_into st.nfet b;
  let io_n = st.wn *. b.(0) in
  b.(1) <- vds_sub;
  b.(2) <- dvp;
  Device.Iv_model.vth_shifted_into st.pfet b;
  let vth_p = b.(0) in
  Device.Iv_model.eval_shifted_into st.pfet b;
  let io_p = st.wp *. b.(0) in
  let m_n = st.m_n and m_p = st.m_p and vdd = st.vdd in
  let base = (m_n *. (vdd -. vth_p)) +. (m_p *. vth_n) in
  let slope = m_n *. m_p *. vt and ratio = io_p /. io_n and m_sum = m_n +. m_p in
  (* vin decreases as vout increases; walk the sweep from the top to make
     vin increasing. *)
  let sample j xy =
    let i = st.k - 1 - j in
    let c = i lsr chunk_bits and o = i land chunk_mask in
    xy.(0) <- (base +. (slope *. log (ratio *. st.high.(c).(o) /. st.low.(c).(o)))) /. m_sum;
    xy.(1) <- st.eps +. (st.step *. float_of_int i)
  in
  let vout = Numerics.Interp.resample ~n:st.k ~sample st.vin in
  (* Clamp to the rail interval. *)
  for j = 0 to Array.length vout - 1 do
    vout.(j) <- clamp vdd vout.(j)
  done;
  { vin = st.vin; vout }

(* A fresh stage, applied once.  A shift of -0.0 is exact: x +. -0.0 = x
   for every x, zeros included, so every threshold keeps its bits. *)
let analytic ?points pair ~sizing ~vdd =
  apply (stage ?points pair ~sizing ~vdd) ~dvn:(-0.0) ~dvp:(-0.0)

let spice ?(points = 101) pair ~sizing ~vdd =
  let fx = Circuits.Inverter.dc ~sizing pair ~vdd in
  let sys = Spice.Mna.build fx.Circuits.Inverter.circuit in
  let vin = Numerics.Vec.linspace 0.0 vdd points in
  let sweep = Spice.Dcsweep.run sys ~source:fx.Circuits.Inverter.vin_name ~values:vin in
  let vout = Spice.Dcsweep.probe sys sweep ~node:fx.Circuits.Inverter.out_node in
  { vin; vout }

let switching_threshold { vin; vout } =
  let diff = Array.mapi (fun i v -> v -. vin.(i)) vout in
  match Numerics.Interp.crossings vin diff 0.0 with
  | v :: _ -> v
  | [] -> invalid_arg "Vtc.switching_threshold: curve does not cross vout = vin"
