(* Shared helpers for the test suites. *)

let check_float ?(tol = 1e-9) name expected actual =
  Alcotest.(check (float tol)) name expected actual

(* Relative closeness: |a - b| <= rel * max(|a|, |b|). *)
let check_rel name ~rel expected actual =
  let scale = Float.max (Float.abs expected) (Float.abs actual) in
  if Float.abs (expected -. actual) > rel *. scale then
    Alcotest.failf "%s: expected %.6g within %.1f%%, got %.6g" name expected (100.0 *. rel)
      actual

let check_in_range name ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %.6g outside [%.6g, %.6g]" name actual lo hi

let check_increasing name xs =
  Array.iteri
    (fun i x ->
      if i > 0 && xs.(i - 1) >= x then
        Alcotest.failf "%s: not strictly increasing at index %d (%.6g >= %.6g)" name i
          xs.(i - 1) x)
    xs

let check_decreasing name xs =
  Array.iteri
    (fun i x ->
      if i > 0 && xs.(i - 1) <= x then
        Alcotest.failf "%s: not strictly decreasing at index %d (%.6g <= %.6g)" name i
          xs.(i - 1) x)
    xs

(* For a positive series y_0..y_n, the geometric mean of successive ratios
   y_{i+1}/y_i — the paper's "% per generation" figure of merit. *)
let geometric_mean_ratio ys =
  let n = Array.length ys in
  if n < 2 || Array.exists (fun y -> y <= 0.0) ys then
    invalid_arg "geometric_mean_ratio: need >= 2 positive points";
  exp (log (ys.(n - 1) /. ys.(0)) /. float_of_int (n - 1))

(* Float arrays in and out of the solvers' flat vectors. *)
let fvec_of_array a = Subscale.Numerics.Fvec.init (Array.length a) (Array.get a)

let array_of_fvec v =
  Array.init (Subscale.Numerics.Fvec.length v) (Subscale.Numerics.Fvec.get v)

let case name f = Alcotest.test_case name `Quick f

let slow_case name f = Alcotest.test_case name `Slow f

let prop name ?(count = 100) gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen law)

(* A counter's current value, read through the public registry (0 before
   its first registration). *)
let counter_value name =
  match Subscale.Obs.Metrics.find name with
  | Some (Subscale.Obs.Metrics.Counter n) -> n
  | Some (Subscale.Obs.Metrics.Gauge _ | Subscale.Obs.Metrics.Histogram _) | None -> 0
