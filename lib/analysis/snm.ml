type margins = {
  vil : float;
  vih : float;
  vol : float;
  voh : float;
  nml : float;
  nmh : float;
  snm : float;
}

(* dV_out/dV_in at [i] by central differences, one-sided at the ends. *)
let[@inline] gain_at (vin : float array) (vout : float array) n i =
  if i = 0 then (vout.(1) -. vout.(0)) /. (vin.(1) -. vin.(0))
  else if i = n - 1 then (vout.(n - 1) -. vout.(n - 2)) /. (vin.(n - 1) -. vin.(n - 2))
  else (vout.(i + 1) -. vout.(i - 1)) /. (vin.(i + 1) -. vin.(i - 1))

(* One pass over the gain, computed sample by sample, keeps the first and
   the last point where it crosses -1, each interpolated as
   [Interp.crossings] would over the whole gain curve: no gain array, no
   crossings list. *)
let of_curve { Vtc.vin; vout } =
  let n = Array.length vin in
  if n < 2 || Array.length vout <> n then invalid_arg "Snm.of_curve: need two or more samples";
  for i = 0 to n - 2 do
    if vin.(i + 1) <= vin.(i) then invalid_arg "Snm.of_curve: vin must be strictly increasing"
  done;
  let level = -1.0 in
  let found = ref 0 and first = ref 0.0 and last = ref 0.0 in
  let g = ref (gain_at vin vout n 0) in
  for i = 0 to n - 2 do
    let g1 = gain_at vin vout n (i + 1) in
    let d0 = !g -. level and d1 = g1 -. level in
    if Float.equal d0 0.0 || d0 *. d1 < 0.0 then begin
      let x =
        if Float.equal d0 0.0 then vin.(i)
        else begin
          let t = d0 /. (d0 -. d1) in
          vin.(i) +. (t *. (vin.(i + 1) -. vin.(i)))
        end
      in
      if !found = 0 then first := x;
      last := x;
      incr found
    end;
    g := g1
  done;
  if Float.equal !g level then begin
    if !found = 0 then first := vin.(n - 1);
    last := vin.(n - 1);
    incr found
  end;
  match !found with
  | 0 -> failwith "Snm.of_curve: no gain = -1 point (insufficient gain)"
  | 1 -> failwith "Snm.of_curve: only one gain = -1 point (insufficient gain)"
  | _ ->
    let vil = !first and vih = !last in
    let vout_at v = Numerics.Interp.linear vin vout v in
    let voh = vout_at vil and vol = vout_at vih in
    let nml = vil -. vol and nmh = voh -. vih in
    { vil; vih; vol; voh; nml; nmh; snm = Float.min nml nmh }

let evals_counter = Obs.Metrics.counter "analysis.snm.evals"

let points = 201

let inverter ?(engine = `Analytic) pair ~sizing ~vdd =
  Obs.Metrics.incr evals_counter;
  let curve =
    match engine with
    | `Analytic -> Vtc.analytic ~points pair ~sizing ~vdd
    | `Spice -> Vtc.spice ~points pair ~sizing ~vdd
  in
  of_curve curve

let stage pair ~sizing ~vdd = Vtc.stage ~points pair ~sizing ~vdd

let shifted st ~dvn ~dvp =
  Obs.Metrics.incr evals_counter;
  of_curve (Vtc.apply st ~dvn ~dvp)

(* Maximum-square method.  An axis-aligned square inscribed in a butterfly
   lobe with opposite corners on the two branches has its diagonal along a
   45-degree line y = x + c, so its side is 1/sqrt(2) times the branch
   separation measured along that line.  Parametrize both branches by the
   anti-diagonal coordinate v = (y - x)/sqrt(2) — strictly monotone for any
   decreasing transfer curve — and take the largest diagonal-direction
   separation in u = (x + y)/sqrt(2).  Curve 1 is (x, v1(x)); curve 2 is the
   mirrored (v2(y), y). *)
let butterfly_snm ~vin ~v1 ~v2 =
  let n = Array.length vin in
  if Array.length v1 <> n || Array.length v2 <> n then
    invalid_arg "Snm.butterfly_snm: length mismatch";
  let s2 = sqrt 2.0 in
  let rot xs ys =
    let v = Array.init n (fun i -> (ys i -. xs i) /. s2) in
    let u = Array.init n (fun i -> (xs i +. ys i) /. s2) in
    (v, u)
  in
  let v1r, u1 = rot (fun i -> vin.(i)) (fun i -> v1.(i)) in
  let v2r, u2 = rot (fun i -> v2.(i)) (fun i -> vin.(i)) in
  (* Make the parameter increasing and drop any numerically stalled points. *)
  let ascending ((v : float array), u) =
    let k = Array.length v in
    if k >= 2 && v.(0) > v.(k - 1) then
      (Array.init k (fun i -> v.(k - 1 - i)), Array.init k (fun i -> u.(k - 1 - i)))
    else (v, u)
  in
  let dedup (v, u) =
    let vl = ref [ v.(0) ] and ul = ref [ u.(0) ] in
    for i = 1 to Array.length v - 1 do
      match !vl with
      | last :: _ when v.(i) > last +. 1e-12 ->
        vl := v.(i) :: !vl;
        ul := u.(i) :: !ul
      | _ -> ()
    done;
    (Array.of_list (List.rev !vl), Array.of_list (List.rev !ul))
  in
  let v1r, u1 = dedup (ascending (v1r, u1)) in
  let v2r, u2 = dedup (ascending (v2r, u2)) in
  let lo = Float.max v1r.(0) v2r.(0) in
  let hi = Float.min v1r.(Array.length v1r - 1) v2r.(Array.length v2r - 1) in
  if hi <= lo then 0.0
  else begin
    let samples = 400 in
    let upper_lobe = ref 0.0 and lower_lobe = ref 0.0 in
    for i = 0 to samples do
      let v = lo +. ((hi -. lo) *. float_of_int i /. float_of_int samples) in
      let d = Numerics.Interp.linear v1r u1 v -. Numerics.Interp.linear v2r u2 v in
      if d > !upper_lobe then upper_lobe := d;
      if -.d > !lower_lobe then lower_lobe := -.d
    done;
    Float.min !upper_lobe !lower_lobe /. s2
  end
