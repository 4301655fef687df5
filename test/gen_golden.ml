(* Regenerate the golden table snapshots that test_exec.ml compares
   against, always sequentially (--jobs 1) with cold memo tables:

     dune exec test/gen_golden.exe -- test/golden

   The differential harness then asserts that every --jobs setting
   reproduces these bytes exactly. *)

(* Every registry id.  test_exec.ml compares whichever golden/<id>.txt
   names a registry id, so this is the one list. *)
let golden_ids =
  [
    "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8";
    "fig9"; "fig10"; "fig11"; "fig12"; "ext-variability"; "ext-multivth"; "ext-bitline";
    "ext-temperature"; "ext-interconnect"; "ext-projection"; "ext-corners"; "ext-pareto";
    "ext-sta"; "ext-datapath"; "ext-yield";
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

(* Bit pin of the TCAD characterizations: the exact store-codec bytes
   (IEEE-754 bits in hex) of every shipped device's characterization on the
   serve daemon's 16x12 mesh and on the default mesh, of the 45 nm sub
   device at two more supplies, and of one 5-point sweep, one "label bytes"
   line each.  The labels and their computations must stay in sync with
   [serve_bit_cases] in test/test_tcad_equiv.ml, which recomputes them and
   compares the strings, so a drift in any last bit fails. *)
let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let build ?nx ?ny node strategy =
    match Subscale.Scaling.Strategy.resolve ~node ~strategy with
    | Error e -> failwith e
    | Ok (_, _, _, pair) ->
      Subscale.Tcad.Structure.build ?nx ?ny
        (Subscale.Device.Compact.to_tcad_description pair.Subscale.Circuits.Inverter.nfet)
  in
  let serve_dev = build ~nx:16 ~ny:12 in
  let module X = Subscale.Tcad.Extract in
  let chars ?(vdd = 0.9) dev =
    X.characteristics_codec.Subscale.Exec.Store.encode (X.characterize ~vdd dev)
  in
  let shipped =
    List.concat_map (fun node -> [ (node, "sub"); (node, "super") ]) [ 90; 65; 45; 32 ]
  in
  let lines =
    [
      ("chars-90-sub", chars (serve_dev 90 "sub"));
      ("chars-45-super", chars (serve_dev 45 "super"));
      ( "sweep-90-sub",
        X.sweep_codec.Subscale.Exec.Store.encode
          (X.id_vg_at (serve_dev 90 "sub") ~vd:0.05
             ~vgs:(Subscale.Numerics.Vec.linspace 0.0 0.15 5)) );
    ]
    @ List.filter_map
        (fun (node, strategy) ->
          if List.mem (node, strategy) [ (90, "sub"); (45, "super") ] then None
          else Some (Printf.sprintf "chars-%d-%s" node strategy, chars (serve_dev node strategy)))
        shipped
    @ List.map
        (fun (node, strategy) ->
          (Printf.sprintf "chars-%d-%s-default-mesh" node strategy, chars (build node strategy)))
        shipped
    @ List.map
        (fun vdd -> (Printf.sprintf "chars-45-sub-vdd%g" vdd, chars ~vdd (serve_dev 45 "sub")))
        [ 0.6; 1.2 ]
  in
  let path = Filename.concat dir "tcad_serve_bits.txt" in
  let oc = open_out path in
  List.iter (fun (label, bytes) -> Printf.fprintf oc "%s %s\n" label bytes) lines;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Model pins: the bits of the compact model chain (Compact.build, V_th,
   DIBL, I_on/I_off, Eq. 5 delay and the Eq. 7-8 energy breakdown) on
   every device the audit checks plus the 130 nm node, and on the 90 nm
   devices at 250 K and 400 K.  One "model-<device>-<quantity>" line per
   quantity.  Must stay in sync with [model_pins] in test/test_device.ml. *)
let model_pins () =
  let module S = Subscale in
  let module Cm = S.Device.Compact in
  let module Iv = S.Device.Iv_model in
  let module Strategy = S.Scaling.Strategy in
  let selected =
    List.concat_map
      (fun node ->
        List.map
          (fun kind ->
            ( Printf.sprintf "%d-%s" node.S.Scaling.Roadmap.nm (Strategy.kind_key kind),
              fst (Strategy.select kind node),
              None ))
          Strategy.kinds)
      S.Scaling.Roadmap.nodes_with_130
  in
  let hot_cold =
    List.concat_map
      (fun kind ->
        List.map
          (fun t ->
            ( Printf.sprintf "90-%s-%gK" (Strategy.kind_key kind) t,
              fst (Strategy.select kind (S.Scaling.Roadmap.find 90)),
              Some t ))
          [ 250.0; 400.0 ])
      Strategy.kinds
  in
  let device_lines tag vdd (d : Cm.t) =
    List.map
      (fun (q, v) -> (Printf.sprintf "model-%s-%s" tag q, [ v ]))
      [ ("leff", d.Cm.leff); ("xj", d.Cm.xj); ("overlap", d.Cm.overlap); ("neff", d.Cm.neff);
        ("phi_f", d.Cm.phi_f); ("wdep", d.Cm.wdep); ("cox", d.Cm.cox); ("m", d.Cm.m);
        ("ss", d.Cm.ss); ("vth0", d.Cm.vth0); ("vbi", d.Cm.vbi); ("lt", d.Cm.lt);
        ("mu", d.Cm.mu); ("cg", d.Cm.cg); ("cg_intrinsic", d.Cm.cg_intrinsic);
        ("temperature", d.Cm.temperature); ("vth-vds0", Cm.vth d ~vds:0.0);
        ("vth-vdd", Cm.vth d ~vds:vdd); ("dibl", Cm.dibl d);
        ("ion-250mV", Iv.ion d ~vdd:0.25); ("ioff-250mV", Iv.ioff d ~vdd:0.25);
        ("ion-vdd", Iv.ion d ~vdd); ("ioff-vdd", Iv.ioff d ~vdd) ]
  in
  List.concat_map
    (fun (tag, (phys : S.Device.Params.physical), t) ->
      let vdd = if phys.S.Device.Params.vdd > 0.0 then phys.S.Device.Params.vdd else 0.25 in
      let nfet = Cm.nfet ?t phys and pfet = Cm.pfet ?t phys in
      let pair = { S.Circuits.Inverter.nfet; pfet } in
      let sizing = S.Circuits.Inverter.balanced_sizing () in
      let e = S.Analysis.Energy.analytic pair ~vdd:0.25 in
      device_lines (tag ^ "-nfet") vdd nfet
      @ device_lines (tag ^ "-pfet") vdd pfet
      @ [ (Printf.sprintf "model-%s-eq5-250mV" tag, [ S.Analysis.Delay.eq5 pair ~sizing ~vdd:0.25 ]);
          (Printf.sprintf "model-%s-eq5-vdd" tag, [ S.Analysis.Delay.eq5 pair ~sizing ~vdd ]);
          ( Printf.sprintf "model-%s-energy-250mV" tag,
            S.Analysis.Energy.[ e.vdd; e.e_dyn; e.e_leak; e.e_total; e.t_cycle ] ) ])
    (selected @ hot_cold)

(* Bit pins of the paths whose experiment goldens print only 2-3 digits, so
   a last-bit drift would pass them: one "label value..." line each, every
   value in %h (the exact IEEE-754 bits).  The labels and their
   computations must stay in sync with the readers ([Test_util.bit_pin]) in
   test/test_spice.ml (carry delay), test/test_eda.ml (cell tables, V_min)
   and test/test_extensions.ml (delay spread). *)
let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let module S = Subscale in
  let resolved node strategy =
    match S.Scaling.Strategy.resolve ~node ~strategy with
    | Error e -> failwith e
    | Ok (_, _, _, pair) -> pair
  in
  let sub32 = resolved 32 "sub" and sup32 = resolved 32 "super" in
  let pair90 = S.Circuits.Inverter.pair_of_physical (List.hd S.Device.Params.paper_table2) in
  let module C = S.Sta.Cell_lib in
  let lut_lines kind =
    let cell = C.characterize_cell pair90 ~vdd:0.25 kind in
    Array.to_list cell.C.arcs
    |> List.concat_map (fun arc ->
           List.map
             (fun (name, lut) ->
               let slews = S.Sta.Lut.slews lut and loads = S.Sta.Lut.loads lut in
               ( Printf.sprintf "lut-90-%s-pin%d-%s" (C.cell_name kind) arc.C.pin name,
                 Array.to_list slews
                 |> List.concat_map (fun slew ->
                        Array.to_list
                          (Array.map (fun load -> S.Sta.Lut.eval lut ~slew ~load) loads)) ))
             [ ("delay_output_rise", arc.C.delay_output_rise);
               ("delay_output_fall", arc.C.delay_output_fall);
               ("slew_output_rise", arc.C.slew_output_rise);
               ("slew_output_fall", arc.C.slew_output_fall) ])
  in
  let spread = S.Analysis.Variability.delay_spread_vs_vdd ~trials:150 pair90 ~vdds:[ 0.9; 0.25 ] in
  let vmin pair = S.Analysis.Yield.min_vdd_for_yield ~trials:400 pair ~bits:1024 ~target:0.9 in
  let lines =
    [ ("carry-delay-32-sub-8b", [ S.Circuits.Adder.carry_delay sub32 ~vdd:0.25 ~bits:8 ]) ]
    @ lut_lines C.Inv @ lut_lines C.Nand2
    @ [ ("delay-spread-90", List.map snd spread);
        ("vmin-32-super", [ vmin sup32 ]);
        ("vmin-32-sub", [ vmin sub32 ]) ]
  in
  let lines = lines @ model_pins () in
  let path = Filename.concat dir "bit_pins.txt" in
  let oc = open_out path in
  List.iter
    (fun (label, values) ->
      Printf.fprintf oc "%s %s\n" label (String.concat " " (List.map (Printf.sprintf "%h") values)))
    lines;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Key pins: the MD5 of every key the daemon files store records under,
   one "label digest" line each.  A store record's name is the MD5 of its
   table name and key, so a key that moves by one byte empties every
   existing cache; these must never change.  The labels and keys must stay
   in sync with [key_digest_cases] in test/test_exec.ml. *)
let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden" in
  let module S = Subscale in
  let module Strategy = S.Scaling.Strategy in
  let module X = S.Tcad.Extract in
  let desc node kind =
    let _, pair = Strategy.select kind node in
    S.Device.Compact.to_tcad_description pair.S.Circuits.Inverter.nfet
  in
  let label node kind = Printf.sprintf "%d-%s" node.S.Scaling.Roadmap.nm (Strategy.kind_key kind) in
  let meshes = [ ("default", None, None); ("16x12", Some 16, Some 12); ("24x20", Some 24, Some 20) ] in
  let devices =
    List.concat_map
      (fun node -> List.map (fun kind -> (label node kind, desc node kind)) Strategy.kinds)
      S.Scaling.Roadmap.nodes
  in
  let sweep node kind = desc (S.Scaling.Roadmap.find node) kind in
  let keys =
    List.concat_map
      (fun (dev, d) ->
        List.concat_map
          (fun (mesh, nx, ny) ->
            [ (Printf.sprintf "structure-%s-%s" dev mesh, S.Tcad.Structure.key_for ?nx ?ny d);
              (Printf.sprintf "characterize-%s-%s" dev mesh, X.characterize_key ?nx ?ny d) ])
          meshes)
      devices
    @ List.concat_map
        (fun node ->
          List.map
            (fun kind -> ("selection-" ^ label node kind, Strategy.selection_key kind node))
            Strategy.kinds)
        S.Scaling.Roadmap.nodes_with_130
    @ [ ( "sweep-90-sub-16x12",
          X.sweep_key ~nx:16 ~ny:12 (sweep 90 Strategy.Sub_vth) ~vd:0.05
            (S.Numerics.Vec.linspace 0.0 0.15 5) );
        ( "sweep-45-super-default",
          X.sweep_key (sweep 45 Strategy.Super_vth) ~vd:0.6 (S.Numerics.Vec.linspace 0.3 0.45 4) ) ]
  in
  let path = Filename.concat dir "key_digests.txt" in
  let oc = open_out path in
  List.iter (fun (label, key) -> Printf.fprintf oc "%s %s\n" label (Digest.to_hex (Digest.string key))) keys;
  close_out oc;
  Printf.printf "wrote %s\n" path
