let cm3 = Physics.Constants.per_cm3

let solve_doping ~ioff_of ~target ~lo ~hi ~what =
  let f log_n = log (ioff_of (10.0 ** log_n) /. target) in
  let flo = f (log10 lo) and fhi = f (log10 hi) in
  if flo < 0.0 then lo
  else if fhi > 0.0 then
    failwith (Printf.sprintf "Doping_fit: leakage budget unreachable when selecting %s" what)
  else 10.0 ** Numerics.Root.brent ~tol:1e-10 f (log10 lo) (log10 hi)

let cal = Device.Params.default_calibration

let solve_for_ioff_uncached ~(base : Device.Params.physical) ~ioff_vdd ~target =
  (* The long-channel reference keeps the node's junction geometry (drawn
     length changes, process does not).  [geometry] also rejects a base
     whose overlap consumes its gate, as its first build would. *)
  let xj, overlap, _ =
    Device.Model.geometry cal ~lpoly:(Device.Params.read_lpoly base)
      ~xj:(Device.Params.read_xj base) ~overlap:(Device.Params.read_overlap base)
  in
  let geom_xj = Some xj and geom_ov = Some overlap in
  let ioff_long nsub =
    let phys =
      { base with Device.Params.nsub; np_halo = 0.0;
        lpoly = 4.0 *. base.Device.Params.lpoly; xj = geom_xj; overlap = geom_ov }
    in
    Device.Iv_model.ioff (Device.Compact.nfet ~cal phys) ~vdd:ioff_vdd
  in
  let nsub =
    solve_doping ~ioff_of:ioff_long ~target ~lo:(cm3 5e16) ~hi:(cm3 3e19) ~what:"N_sub"
  in
  let ioff_short np_halo =
    let phys = { base with Device.Params.nsub; np_halo } in
    Device.Iv_model.ioff (Device.Compact.nfet ~cal phys) ~vdd:ioff_vdd
  in
  let np_halo =
    if ioff_short 0.0 <= target then 0.0
    else
      solve_doping ~ioff_of:ioff_short ~target ~lo:(cm3 1e15) ~hi:(cm3 6e19)
        ~what:"N_p,halo"
  in
  { base with Device.Params.nsub; np_halo }

(* The doping selection is two nested root-finds over compact-model
   leakage — the single hottest call in every node-selection sweep.  The
   result depends only on (calibration, base parameters, bias, budget),
   so a content-keyed memo shares it across sweep points, across the
   sub-Vth L_poly grid and golden-section refinement, and across
   experiments re-selecting the same node. *)
let memo : Device.Params.physical Exec.Memo.t = Exec.Memo.create ~name:"scaling.doping_fit" ()

let solve_for_ioff ~(base : Device.Params.physical) ~ioff_vdd ~target () =
  let key =
    Exec.Key.(
      fields "solve_for_ioff"
        [ ("cal", Device.Params.calibration_key cal);
          ("base", Device.Params.physical_key base);
          ("ioff_vdd", float ioff_vdd);
          ("target", float target) ])
  in
  Exec.Memo.find_or_compute memo ~key (fun () ->
      solve_for_ioff_uncached ~base ~ioff_vdd ~target)
