let golden_ratio = 0.5 *. (sqrt 5.0 -. 1.0)

let golden_section ?(tol = 1e-10) (f : float -> float) a b =
  let max_iter = 200 in
  let a = ref (Float.min a b) and b = ref (Float.max a b) in
  let c = ref (!b -. (golden_ratio *. (!b -. !a))) in
  let d = ref (!a +. (golden_ratio *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !b -. !a > tol *. (1.0 +. Float.abs !a +. Float.abs !b) && !iter < max_iter do
    incr iter;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (golden_ratio *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (golden_ratio *. (!b -. !a));
      fd := f !d
    end
  done;
  let x = 0.5 *. (!a +. !b) in
  (x, f x)

let grid_then_golden ?(samples = 24) ?(tol = 1e-10) f a b =
  let lo = Float.min a b and hi = Float.max a b in
  if samples < 3 then invalid_arg "Minimize.grid_then_golden: need >= 3 samples";
  let xs = Vec.linspace lo hi samples in
  let best = ref 0 in
  let fbest = ref (f xs.(0)) in
  let fs = Array.make samples 0.0 in
  fs.(0) <- !fbest;
  for i = 1 to samples - 1 do
    fs.(i) <- f xs.(i);
    if fs.(i) < !fbest then begin
      fbest := fs.(i);
      best := i
    end
  done;
  let left = xs.(Int.max 0 (!best - 1)) in
  let right = xs.(Int.min (samples - 1) (!best + 1)) in
  let x, fx = golden_section ~tol f left right in
  if fx <= !fbest then (x, fx) else (xs.(!best), !fbest)
