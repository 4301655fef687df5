let operating_vdd = 0.25

type selected = {
  node : Roadmap.node;
  phys : Device.Params.physical;
  pair : Circuits.Inverter.pair;
  lpoly_grid : (float * float * float) list;
}

(* Every selection runs under the default model calibration. *)
let cal = Device.Params.default_calibration

let cm3 = Physics.Constants.per_cm3

let doping_for_lpoly ~(node : Roadmap.node)
    ~lpoly () =
  (* Drawn-length freedom within a fixed process: the junction depth and
     overlap are the node's (set by the roadmap L_poly), not the drawn
     gate's. *)
  let xj = Some (cal.Device.Params.xj_fraction *. node.Roadmap.lpoly) in
  let overlap = Some (cal.Device.Params.overlap_fraction *. node.Roadmap.lpoly) in
  let base =
    {
      Device.Params.node_nm = node.Roadmap.nm;
      lpoly;
      tox = node.Roadmap.tox;
      nsub = cm3 1e18;
      np_halo = 0.0;
      vdd = node.Roadmap.vdd;
      xj;
      overlap;
    }
  in
  Doping_fit.solve_for_ioff ~base ~ioff_vdd:operating_vdd
    ~target:Roadmap.sub_vth_ioff_target ()

let ss_vs_lpoly ~node ~lpolys ~fixed_doping () =
  Exec.map_array
    (fun lpoly ->
      let phys =
        match fixed_doping with
        | None -> doping_for_lpoly ~node ~lpoly ()
        | Some p -> { p with Device.Params.lpoly }
      in
      let dev = Device.Compact.nfet ~cal phys in
      (lpoly, dev.Device.Compact.ss))
    lpolys

(* The (phys, pair, factors) bundle for one candidate gate length.  The
   golden-section refinement revisits the same L_poly values the grid
   already sampled, so memoizing here halves the solve count on top of
   what the doping memo shares. *)
let factors_memo :
    (Device.Params.physical * Circuits.Inverter.pair * float * float) Exec.Memo.t =
  Exec.Memo.create ~name:"scaling.sub_vth_factors" ()

let factors_at ~node ~lpoly () =
  let key =
    Exec.Key.(
      fields "factors_at"
        [ ("cal", Device.Params.calibration_key cal);
          ("node", Roadmap.node_key node);
          ("lpoly", float lpoly) ])
  in
  Exec.Memo.find_or_compute factors_memo ~key (fun () ->
      let phys = doping_for_lpoly ~node ~lpoly () in
      let pair = Circuits.Inverter.pair_of_physical ~cal phys in
      let sizing = Circuits.Inverter.balanced_sizing () in
      let ef = Analysis.Metrics.energy_factor pair ~sizing in
      let df = Analysis.Metrics.delay_factor ~ioff_vdd:operating_vdd pair ~sizing in
      (phys, pair, ef, df))

let select_node (node : Roadmap.node) =
  let l0 = node.Roadmap.lpoly in
  let grid = Numerics.Vec.linspace (0.8 *. l0) (3.5 *. l0) 22 in
  let samples =
    Exec.map
      (fun lpoly ->
        let _, _, ef, df = factors_at ~node ~lpoly () in
        (lpoly, ef, df))
      (Array.to_list grid)
  in
  let energy_of lpoly =
    let _, _, ef, _ = factors_at ~node ~lpoly () in
    ef
  in
  (* Bracket the grid minimum and refine. *)
  let best_lpoly, _ =
    List.fold_left
      (fun (bl, be) (l, e, _) -> if e < be then (l, e) else (bl, be))
      (l0, energy_of l0) samples
  in
  let lo = Float.max (0.8 *. l0) (best_lpoly /. 1.25) in
  let hi = Float.min (3.5 *. l0) (best_lpoly *. 1.25) in
  let lpoly_opt, _ = Numerics.Minimize.golden_section ~tol:1e-4 energy_of lo hi in
  let phys, pair, _, _ = factors_at ~node ~lpoly:lpoly_opt () in
  { node; phys; pair; lpoly_grid = samples }

let all () = Exec.map select_node Roadmap.nodes
