let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let minimum xs =
  if Array.length xs = 0 then invalid_arg "Stats.minimum: empty";
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  if Array.length xs = 0 then invalid_arg "Stats.maximum: empty";
  Array.fold_left Float.max xs.(0) xs

let linear_regression xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_regression: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_regression: need >= 2 points";
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 in
  for i = 0 to n - 1 do
    sxy := !sxy +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    sxx := !sxx +. ((xs.(i) -. mx) ** 2.0)
  done;
  if Float.equal !sxx 0.0 then invalid_arg "Stats.linear_regression: degenerate abscissae";
  let slope = !sxy /. !sxx in
  (slope, my -. (slope *. mx))

(* Abramowitz & Stegun 7.1.26 rational approximation, |error| < 1.5e-7. *)
let erf x =
  let sign = if x >= 0.0 then 1.0 else -1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let poly =
    t
    *. (0.254829592
        +. (t *. (-0.284496736 +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  sign *. (1.0 -. (poly *. exp (-.x *. x)))

let normal_cdf ?(mean = 0.0) ?(sigma = 1.0) x =
  if sigma <= 0.0 then invalid_arg "Stats.normal_cdf: sigma must be positive";
  0.5 *. (1.0 +. erf ((x -. mean) /. (sigma *. sqrt 2.0)))
