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

(* The floats test/gen_golden.ml pinned under [label] in
   golden/bit_pins.txt, one "label value..." line each in %h. *)
let bit_pins_path () =
  if Sys.file_exists "golden" then Filename.concat "golden" "bit_pins.txt"
  else Filename.concat "test" (Filename.concat "golden" "bit_pins.txt")

let bit_pin label =
  let path = bit_pins_path () in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | l :: values when String.equal l label ->
          Some (Array.of_list (List.map float_of_string values))
        | _ -> None)
      lines
  with
  | Some values -> values
  | None -> Alcotest.failf "no bit pin %S in %s (run test/gen_golden.exe)" label path

(* Equality of the IEEE-754 bits, shown in %h on failure. *)
let check_bits name expected actual =
  if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float actual)) then
    Alcotest.failf "%s: expected %h, got %h" name expected actual

let check_all_bits name expected actual =
  Alcotest.(check int) (name ^ ": count") (Array.length expected) (Array.length actual);
  Array.iteri (fun i e -> check_bits (Printf.sprintf "%s.(%d)" name i) e actual.(i)) expected

(* The daemon's tcad cell in one call: look the characterization up by
   its key, build and solve only on a miss. *)
let characterize_cached ?nx ?ny ?(vdd = 0.9) desc =
  let module Extract = Subscale.Tcad.Extract in
  Subscale.Exec.Memo.find_or_compute Extract.characterize_memo
    ~key:(Extract.characterize_key ?nx ?ny ~vdd desc)
    (fun () -> Extract.characterize ~vdd (Subscale.Tcad.Structure.build ?nx ?ny desc))
