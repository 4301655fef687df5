(* Regenerate the golden table snapshots that test_exec.ml compares
   against, always sequentially (--jobs 1) with cold memo tables:

     dune exec test/gen_golden.exe -- test/golden

   The differential harness then asserts that every --jobs setting
   reproduces these bytes exactly. *)

(* Every registry id except ext-yield, which takes seconds.  test_exec.ml
   compares whichever golden/<id>.txt names a registry id, so this is the
   one list. *)
let golden_ids =
  [
    "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8";
    "fig9"; "fig10"; "fig11"; "fig12"; "ext-variability"; "ext-multivth"; "ext-bitline";
    "ext-temperature"; "ext-interconnect"; "ext-projection"; "ext-corners"; "ext-pareto";
    "ext-sta"; "ext-datapath";
  ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  Subscale.Exec.set_jobs 1;
  Subscale.Exec.Memo.clear_all ();
  let experiments = List.map (fun id -> Option.get (Subscale.Experiments.find id)) golden_ids in
  let ctx = Subscale.Experiments.context_for experiments in
  List.iter
    (fun e ->
      let id = e.Subscale.Experiments.id in
      let o = e.Subscale.Experiments.run ~measured:true ctx in
      let path = Filename.concat dir (id ^ ".txt") in
      let oc = open_out path in
      output_string oc (Subscale.Report.Table.render o.Subscale.Experiments.table);
      close_out oc;
      Printf.printf "wrote %s\n" path)
    experiments;
  (* TCAD solver goldens: Id-Vg and Id-Vd sweeps on the 45 nm node, printed
     as "bias current" pairs in %.6e.  The device build and sweep parameters
     must stay in sync with the readers in test/test_tcad_equiv.ml, which
     recompute the sweeps and compare numerically (rel 1e-6), so the
     snapshots survive harmless last-digit drift but catch solver changes. *)
  let dev45 =
    let phys =
      List.find
        (fun p -> p.Subscale.Device.Params.node_nm = 45)
        Subscale.Device.Params.paper_table2
    in
    let nfet =
      (Subscale.Circuits.Inverter.pair_of_physical phys).Subscale.Circuits.Inverter.nfet
    in
    Subscale.Tcad.Structure.build (Subscale.Device.Compact.to_tcad_description nfet)
  in
  let write_pairs id header xs ys =
    let path = Filename.concat dir (id ^ ".txt") in
    let oc = open_out path in
    Printf.fprintf oc "# %s\n" header;
    Array.iteri (fun i x -> Printf.fprintf oc "%.6e %.6e\n" x ys.(i)) xs;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  let idvg =
    Subscale.Tcad.Extract.id_vg ~vg_min:0.0 ~vg_max:0.6 ~points:9 dev45 ~vd:0.05
  in
  write_pairs "tcad_idvg_45" "Id-Vg, 45 nm NFET, Vd = 50 mV: vg [V], id [A/m]"
    idvg.Subscale.Tcad.Extract.vgs idvg.Subscale.Tcad.Extract.ids;
  let idvd =
    Subscale.Tcad.Extract.id_vd ~vd_min:0.0 ~vd_max:0.5 ~points:7 dev45 ~vg:0.3
  in
  write_pairs "tcad_idvd_45" "Id-Vd, 45 nm NFET, Vg = 300 mV: vd [V], id [A/m]"
    idvd.Subscale.Tcad.Extract.vds idvd.Subscale.Tcad.Extract.ids
