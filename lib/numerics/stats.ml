(* The sums run from index 0 upward, as [Array.fold_left] would, in a
   loop over the float array: the polymorphic fold boxes every element
   and every partial sum. *)
let mean (xs : Vec.t) =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  let sum = ref 0.0 in
  for i = 0 to Array.length xs - 1 do
    sum := !sum +. xs.(i)
  done;
  !sum /. float_of_int (Array.length xs)

let stddev (xs : Vec.t) =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = ref 0.0 in
    for i = 0 to n - 1 do
      ss := !ss +. ((xs.(i) -. m) ** 2.0)
    done;
    sqrt (!ss /. float_of_int (n - 1))
  end

(* [Array.sort compare], specialized to a float array: the same ternary
   heap sort, making the same comparisons and moves (so equal keys, -0.0
   and 0.0 or two NaNs, land where it puts them), with [Float.compare]'s
   order, which is [compare]'s on floats.  The polymorphic sort boxes
   every element it reads: 30k words for 500 samples.  A son index of -1
   stands for the stdlib's [Bottom] exception. *)
let sort (a : Vec.t) =
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickledown l i e =
    let j = maxson l i in
    if j < 0 then a.(i) <- e
    else if Float.compare a.(j) e > 0 then begin
      a.(i) <- a.(j);
      trickledown l j e
    end
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if Float.compare a.(father) e < 0 then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickledown l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
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
