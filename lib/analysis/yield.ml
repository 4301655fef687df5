type assessment = {
  vdd : float;
  snm_mean : float;
  snm_sigma : float;
  p_cell_fail : float;
  yield_1kb : float;
  yield_1mb : float;
}

let array_yield ~p_cell_fail ~bits =
  if bits < 0 then invalid_arg "Yield.array_yield: negative bits";
  (* log-space to survive large arrays *)
  exp (float_of_int bits *. log1p (-.Float.min 1.0 p_cell_fail))

(* SRAM cells use near-minimum-width devices; mismatch scales as
   1/sqrt(W L), so the default assessment sizing is a 0.15 um cell, not the
   1 um logic default. *)
let default_sizing = { Circuits.Inverter.wn = 0.15e-6; wp = 0.2e-6 }

let assess ?(trials = 400) pair ~vdd =
  let d = Variability.snm_distribution ~trials ~sizing:default_sizing pair ~vdd in
  let snm_mean = d.Variability.mean and snm_sigma = d.Variability.sigma in
  let p_cell_fail =
    if snm_sigma <= 0.0 then if snm_mean > 0.0 then 0.0 else 1.0
    else Numerics.Stats.normal_cdf ~mean:snm_mean ~sigma:snm_sigma 0.0
  in
  {
    vdd;
    snm_mean;
    snm_sigma;
    p_cell_fail;
    yield_1kb = array_yield ~p_cell_fail ~bits:1024;
    yield_1mb = array_yield ~p_cell_fail ~bits:(1024 * 1024);
  }

let min_vdd_for_yield ?trials pair ~bits ~target =
  let lo = 0.10 and hi = 0.60 in
  if target <= 0.0 || target >= 1.0 then
    invalid_arg "Yield.min_vdd_for_yield: target must be in (0, 1)";
  (* Root.bisect evaluates both ends again after the range checks below, so
     each V_dd's yield is kept by its bits and assessed once. *)
  let assessed = Hashtbl.create 16 in
  let yield_at vdd =
    let key = Int64.bits_of_float vdd in
    match Hashtbl.find_opt assessed key with
    | Some y -> y
    | None ->
      let a = assess ?trials pair ~vdd in
      let y = array_yield ~p_cell_fail:a.p_cell_fail ~bits in
      Hashtbl.add assessed key y;
      y
  in
  if yield_at hi < target then
    failwith
      (Printf.sprintf "Yield.min_vdd_for_yield: %.0f mV cannot reach %.3f yield"
         (1000.0 *. hi) target);
  if yield_at lo >= target then lo
  else begin
    let f vdd = yield_at vdd -. target in
    Numerics.Root.bisect ~tol:1e-3 f lo hi
  end
