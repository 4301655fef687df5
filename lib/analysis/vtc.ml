type curve = { vin : Numerics.Vec.t; vout : Numerics.Vec.t }

let vt = Physics.Constants.vt_room

(* I_o of Eq. 3: device current at V_gs = V_th with V_ds >> vT, per device
   width, times the width. *)
let io_of dev width =
  width *. Device.Iv_model.id dev ~vgs:(Compact_vth.vth_sub dev) ~vds:(10.0 *. vt)

(* Eq. 3(b): vin(vout).  We sweep vout densely, compute vin, and resample
   onto a uniform vin grid in one merge walk; no sample array is built. *)
let analytic ?(points = 101) (pair : Circuits.Inverter.pair) ~sizing ~vdd =
  let n = pair.Circuits.Inverter.nfet and p = pair.Circuits.Inverter.pfet in
  let io_n = io_of n sizing.Circuits.Inverter.wn in
  let io_p = io_of p sizing.Circuits.Inverter.wp in
  let m_n = n.Device.Compact.m and m_p = p.Device.Compact.m in
  let vth_n = Compact_vth.vth_sub n and vth_p = Compact_vth.vth_sub p in
  let eps = 1e-4 *. vdd in
  (* The dense vout sweep is Vec.linspace eps (vdd - eps) k, sample by
     sample. *)
  let k = 4 * points in
  let hi = vdd -. eps in
  let step = (hi -. eps) /. float_of_int (k - 1) in
  let vout_sample i = eps +. (step *. float_of_int i) in
  let vin_of_vout vout =
    let num =
      (m_n *. (vdd -. vth_p)) +. (m_p *. vth_n)
      +. (m_n *. m_p *. vt
          *. log (io_p /. io_n *. (1.0 -. exp ((vout -. vdd) /. vt))
                  /. (1.0 -. exp (-.vout /. vt))))
    in
    num /. (m_n +. m_p)
  in
  (* vin decreases as vout increases; walk the sweep from the top to make
     vin increasing. *)
  let vout_sorted j = vout_sample (k - 1 - j) in
  let vin_sorted j = vin_of_vout (vout_sorted j) in
  let vin_grid = Numerics.Vec.linspace 0.0 vdd points in
  let vout_grid = Numerics.Interp.resample ~n:k ~x:vin_sorted ~y:vout_sorted vin_grid in
  (* Clamp to the rail interval. *)
  Array.map_inplace (fun v -> Float.max 0.0 (Float.min vdd v)) vout_grid;
  { vin = vin_grid; vout = vout_grid }

let spice ?(points = 101) pair ~sizing ~vdd =
  let fx = Circuits.Inverter.dc ~sizing pair ~vdd in
  let sys = Spice.Mna.build fx.Circuits.Inverter.circuit in
  let vin = Numerics.Vec.linspace 0.0 vdd points in
  let sweep = Spice.Dcsweep.run sys ~source:fx.Circuits.Inverter.vin_name ~values:vin in
  let vout = Spice.Dcsweep.probe sys sweep ~node:fx.Circuits.Inverter.out_node in
  { vin; vout }

let gain { vin; vout } =
  let n = Array.length vin in
  Array.init n (fun i ->
      if i = 0 then (vout.(1) -. vout.(0)) /. (vin.(1) -. vin.(0))
      else if i = n - 1 then (vout.(n - 1) -. vout.(n - 2)) /. (vin.(n - 1) -. vin.(n - 2))
      else (vout.(i + 1) -. vout.(i - 1)) /. (vin.(i + 1) -. vin.(i - 1)))

let switching_threshold { vin; vout } =
  let diff = Array.mapi (fun i v -> v -. vin.(i)) vout in
  match Numerics.Interp.crossings vin diff 0.0 with
  | v :: _ -> v
  | [] -> invalid_arg "Vtc.switching_threshold: curve does not cross vout = vin"
