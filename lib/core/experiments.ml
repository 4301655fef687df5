type context = {
  super : Scaling.Strategy.evaluation list;
  sub : Scaling.Strategy.evaluation list;
}

(* Every selected device passes the static checker before any experiment
   simulates with it: a mis-selected doping or a broken compact model
   should fail here with a named parameter, not as a non-converging loop
   three drivers later. *)
let validate_evaluation which (e : Scaling.Strategy.evaluation) =
  let what =
    Printf.sprintf "%s %d nm device" which e.Scaling.Strategy.node.Scaling.Roadmap.nm
  in
  Check.assert_clean ~what (Check.physical e.Scaling.Strategy.phys);
  let vdd = e.Scaling.Strategy.phys.Device.Params.vdd in
  Check.assert_clean ~what
    (Check.compact e.Scaling.Strategy.pair.Circuits.Inverter.nfet ~vdd);
  Check.assert_clean ~what
    (Check.compact e.Scaling.Strategy.pair.Circuits.Inverter.pfet ~vdd)

let make_context ?(with_130 = false) () =
  Obs.Trace.with_span ~cat:"experiments" "experiments.make_context" @@ fun () ->
  (* A reproduction starts here, and every driver after it holds no more
     than a task's working set: its domain runs on a task's heap. *)
  Exec.Pool.use_task_heap ();
  let ctx =
    {
      super = Scaling.Strategy.trajectory ~with_130 Scaling.Strategy.Super_vth;
      sub = Scaling.Strategy.trajectory ~with_130 Scaling.Strategy.Sub_vth;
    }
  in
  List.iter (validate_evaluation "super-Vth") ctx.super;
  List.iter (validate_evaluation "sub-Vth") ctx.sub;
  ctx

type output = { id : string; table : Report.Table.t; plots : string list }

(* One span per paper artefact: the trace's top-level view is "which
   table/figure cost what", with solver and pool spans nested beneath. *)
let traced id f = Obs.Trace.with_span ~cat:"experiments" ("experiments." ^ id) f

let fmt = Report.Table.fmt
let nm = Physics.Constants.to_nm
let cm3 v = Physics.Constants.to_per_cm3 v /. 1e18
let pa = Physics.Constants.to_pa_per_um
let mv v = 1000.0 *. v

(* Rows without the 130 nm back-extrapolation (it only belongs in Fig. 12). *)
let roadmap_only evals =
  List.filter (fun e -> e.Scaling.Strategy.node.Scaling.Roadmap.nm <> 130) evals

let node_of e = e.Scaling.Strategy.node.Scaling.Roadmap.nm

let table1 () =
  traced "table1" @@ fun () ->
  let alpha = 1.0 /. 0.7 and epsilon = 1.1 in
  let f = Scaling.Generalized.factors ~alpha ~epsilon in
  let rows =
    [
      [ "Physical dimensions (Lpoly, Tox, ...)"; "1/alpha";
        fmt "%.3f" f.Scaling.Generalized.physical_dimension ];
      [ "N_ch"; "eps*alpha"; fmt "%.3f" f.Scaling.Generalized.channel_doping ];
      [ "V_dd"; "eps/alpha"; fmt "%.3f" f.Scaling.Generalized.vdd ];
      [ "Area"; "1/alpha^2"; fmt "%.3f" f.Scaling.Generalized.area ];
      [ "Delay"; "1/alpha"; fmt "%.3f" f.Scaling.Generalized.delay ];
      [ "Power"; "eps^2/alpha^2"; fmt "%.3f" f.Scaling.Generalized.power ];
    ]
  in
  {
    id = "table1";
    table =
      Report.Table.make ~title:"Table 1: generalized scaling (alpha = 1.43, epsilon = 1.1)"
        ~headers:[ "Parameter"; "Scaling factor"; "Per generation" ]
        ~notes:[ "paper Table 1 lists the symbolic factors; numeric column is one step" ]
        rows;
    plots = [];
  }

(* Paper values for Table 2, in row order 90/65/45/32. *)
let paper_t2 =
  [
    (65.0, 2.10, 1.52, 3.63, 1.2, 403.0, 100.0, 1.30);
    (46.0, 1.89, 1.97, 5.17, 1.1, 420.0, 125.0, 0.97);
    (32.0, 1.70, 2.52, 7.83, 1.0, 438.0, 156.0, 0.75);
    (22.0, 1.53, 3.31, 12.0, 0.9, 461.0, 195.0, 0.62);
  ]

let table2 ctx =
  traced "table2" @@ fun () ->
  let rows =
    List.concat
      (Exec.map2
         (fun e (lp, tox, nsub, nhalo, vdd, vth, ioff, tau) ->
           let phys = e.Scaling.Strategy.phys in
           let nfet = e.Scaling.Strategy.pair.Circuits.Inverter.nfet in
           let tau_ours =
             1e12 *. Device.Iv_model.intrinsic_delay nfet ~vdd:phys.Device.Params.vdd
           in
           [
             [ fmt "%d ours" (node_of e);
               fmt "%.0f" (nm phys.Device.Params.lpoly);
               fmt "%.2f" (nm phys.Device.Params.tox);
               fmt "%.2f" (cm3 phys.Device.Params.nsub);
               fmt "%.2f" (cm3 (Device.Params.nhalo_net phys));
               fmt "%.1f" phys.Device.Params.vdd;
               fmt "%.0f" (mv e.Scaling.Strategy.vth_sat);
               fmt "%.0f" (pa e.Scaling.Strategy.ioff_nominal);
               fmt "%.2f" tau_ours ];
             [ fmt "%d paper" (node_of e);
               fmt "%.0f" lp; fmt "%.2f" tox; fmt "%.2f" nsub; fmt "%.2f" nhalo;
               fmt "%.1f" vdd; fmt "%.0f" vth; fmt "%.0f" ioff; fmt "%.2f" tau ];
           ])
         (roadmap_only ctx.super) paper_t2)
  in
  {
    id = "table2";
    table =
      Report.Table.make ~title:"Table 2: NFET parameters under super-Vth scaling"
        ~headers:
          [ "node"; "Lpoly nm"; "Tox nm"; "Nsub e18"; "Nhalo e18"; "Vdd";
            "Vth_sat mV"; "Ioff pA/um"; "CgVdd/Ion ps" ]
        ~notes:
          [ "dopings are selected by the Fig. 1(c) flow against the leakage budget";
            "Ioff rows match the budget by construction" ]
        rows;
    plots = [];
  }

let paper_t3 =
  [
    (95.0, 2.10, 1.61, 2.02, 1.00, 1.00);
    (75.0, 1.89, 1.99, 2.73, 0.80, 0.80);
    (60.0, 1.70, 2.53, 2.93, 0.65, 0.65);
    (45.0, 1.53, 3.19, 4.89, 0.51, 0.50);
  ]

let table3 ctx =
  traced "table3" @@ fun () ->
  let subs = roadmap_only ctx.sub in
  let ef0 = (List.hd subs).Scaling.Strategy.energy_factor in
  let df0 = (List.hd subs).Scaling.Strategy.delay_factor in
  let rows =
    List.concat
      (Exec.map2
         (fun e (lp, tox, nsub, nhalo, clss2, clss) ->
           let phys = e.Scaling.Strategy.phys in
           [
             [ fmt "%d ours" (node_of e);
               fmt "%.0f" (nm phys.Device.Params.lpoly);
               fmt "%.2f" (nm phys.Device.Params.tox);
               fmt "%.2f" (cm3 phys.Device.Params.nsub);
               fmt "%.2f" (cm3 (Device.Params.nhalo_net phys));
               fmt "%.2f" (e.Scaling.Strategy.energy_factor /. ef0);
               fmt "%.2f" (e.Scaling.Strategy.delay_factor /. df0) ];
             [ fmt "%d paper" (node_of e);
               fmt "%.0f" lp; fmt "%.2f" tox; fmt "%.2f" nsub; fmt "%.2f" nhalo;
               fmt "%.2f" clss2; fmt "%.2f" clss ];
           ])
         subs paper_t3)
  in
  {
    id = "table3";
    table =
      Report.Table.make ~title:"Table 3: NFET parameters under sub-Vth scaling"
        ~headers:
          [ "node"; "Lpoly nm"; "Tox nm"; "Nsub e18"; "Nhalo e18";
            "CL*SS^2 a.u."; "CL*SS a.u." ]
        ~notes:
          [ "Lpoly is the energy-factor optimum at constant Ioff = 100 pA/um";
            "factor columns normalized to the 90 nm node" ]
        rows;
    plots = [];
  }

let fig2 ctx =
  traced "fig2" @@ fun () ->
  let evals = roadmap_only ctx.super in
  let rows =
    List.map
      (fun e ->
        [ fmt "%d" (node_of e);
          fmt "%.1f" (mv e.Scaling.Strategy.ss);
          fmt "%.0f" e.Scaling.Strategy.on_off_sub ])
      evals
  in
  let first = List.hd evals and last = List.nth evals (List.length evals - 1) in
  let ss_deg =
    100.0 *. ((last.Scaling.Strategy.ss /. first.Scaling.Strategy.ss) -. 1.0)
  in
  let ratio_drop =
    100.0 *. (1.0 -. (last.Scaling.Strategy.on_off_sub /. first.Scaling.Strategy.on_off_sub))
  in
  let plot =
    Report.Plot.render ~title:"Fig 2: SS (mV/dec) vs node (super-Vth)"
      ~x_label:"node nm" ~y_label:"SS"
      [
        { Report.Plot.name = "SS";
          points =
            Array.of_list
              (List.map (fun e -> (float_of_int (node_of e), mv e.Scaling.Strategy.ss)) evals) };
      ]
  in
  {
    id = "fig2";
    table =
      Report.Table.make ~title:"Fig 2: NFET SS and Ion/Ioff at Vdd = 250 mV (super-Vth)"
        ~headers:[ "node"; "SS mV/dec"; "Ion/Ioff @250mV" ]
        ~notes:
          [ fmt "SS degrades %.1f%% from 90 to 32 nm (paper: ~11%%)" ss_deg;
            fmt "Ion/Ioff drops %.0f%% from 90 to 32 nm (paper: ~60%%)" ratio_drop ]
        rows;
    plots = [ plot ];
  }

let fig3 ctx =
  traced "fig3" @@ fun () ->
  let rows =
    List.map
      (fun e ->
        let nfet = e.Scaling.Strategy.pair.Circuits.Inverter.nfet in
        let vdd = e.Scaling.Strategy.node.Scaling.Roadmap.vdd in
        let ion_nom = Device.Iv_model.ion nfet ~vdd in
        (* A/m of width is numerically uA/um. *)
        [ fmt "%d" (node_of e);
          fmt "%.0f" ion_nom;
          fmt "%.3f" e.Scaling.Strategy.ion_sub ])
      (roadmap_only ctx.super)
  in
  {
    id = "fig3";
    table =
      Report.Table.make ~title:"Fig 3: NFET Ion at nominal Vdd and at 250 mV (super-Vth)"
        ~headers:[ "node"; "Ion nom uA/um"; "Ion 250mV uA/um" ]
        ~notes:
          [ "leakage-constrained scaling reduces Ion with each generation";
            "the reduction is steeper in the sub-Vth column (paper Sec. 2.3.1)" ]
        rows;
    plots = [];
  }

let snm_at pair vdd =
  let sizing = Circuits.Inverter.balanced_sizing () in
  match Analysis.Snm.inverter ~engine:`Spice pair ~sizing ~vdd with
  | m -> m.Analysis.Snm.snm
  | exception Failure _ -> 0.0

let fig4 ctx =
  traced "fig4" @@ fun () ->
  let evals = roadmap_only ctx.super in
  let rows =
    Exec.map
      (fun e ->
        let vdd = e.Scaling.Strategy.node.Scaling.Roadmap.vdd in
        [ fmt "%d" (node_of e);
          fmt "%.0f" (mv (snm_at e.Scaling.Strategy.pair vdd));
          fmt "%.1f" (mv e.Scaling.Strategy.snm_sub) ])
      evals
  in
  let first = List.hd evals and last = List.nth evals (List.length evals - 1) in
  let deg =
    100.0 *. (1.0 -. (last.Scaling.Strategy.snm_sub /. first.Scaling.Strategy.snm_sub))
  in
  {
    id = "fig4";
    table =
      Report.Table.make ~title:"Fig 4: simulated inverter SNM (super-Vth)"
        ~headers:[ "node"; "SNM@nominal mV"; "SNM@250mV mV" ]
        ~notes:[ fmt "sub-Vth SNM degrades %.1f%% from 90 to 32 nm (paper: >10%%)" deg ]
        rows;
    plots = [];
  }

let fig5 ?(measured = true) ctx =
  traced "fig5" @@ fun () ->
  let sizing = Circuits.Inverter.balanced_sizing () in
  let rows =
    Exec.map
      (fun e ->
        let pair = e.Scaling.Strategy.pair in
        let vdd = e.Scaling.Strategy.node.Scaling.Roadmap.vdd in
        let t_nom = Analysis.Delay.eq5 pair ~sizing ~vdd in
        let t_sub = Analysis.Delay.eq5 pair ~sizing ~vdd:0.25 in
        let meas =
          if measured then
            fmt "%.1f" (1e9 *. (Analysis.Delay.measured pair ~sizing ~vdd:0.25).Analysis.Delay.tp)
          else "-"
        in
        [ fmt "%d" (node_of e);
          fmt "%.1f" (1e12 *. t_nom);
          fmt "%.1f" (1e9 *. t_sub);
          meas ])
      (roadmap_only ctx.super)
  in
  {
    id = "fig5";
    table =
      Report.Table.make ~title:"Fig 5: simulated FO1 inverter delay (super-Vth)"
        ~headers:[ "node"; "tp@nominal ps (Eq.5)"; "tp@250mV ns (Eq.5)"; "tp@250mV ns (transient)" ]
        ~notes:
          [ "nominal delay improves with scaling; 250 mV delay degrades (paper Fig. 5)" ]
        rows;
    plots = [];
  }

let fig6 ctx =
  traced "fig6" @@ fun () ->
  let evals = roadmap_only ctx.super in
  let sizing = Circuits.Inverter.balanced_sizing () in
  let e0 = List.hd evals in
  let ef0 = e0.Scaling.Strategy.energy_factor in
  let en0 = e0.Scaling.Strategy.energy_at_vmin in
  let rows =
    List.map
      (fun e ->
        [ fmt "%d" (node_of e);
          fmt "%.0f" (mv e.Scaling.Strategy.vmin);
          fmt "%.2f" (1e15 *. e.Scaling.Strategy.energy_at_vmin);
          fmt "%.2f" (e.Scaling.Strategy.energy_at_vmin /. en0);
          fmt "%.2f" (e.Scaling.Strategy.energy_factor /. ef0) ])
      evals
  in
  (* Energy-vs-Vdd curve of the 90 nm node, the figure's characteristic U. *)
  let curve = (Analysis.Energy.vmin ~sizing e0.Scaling.Strategy.pair).Analysis.Energy.curve in
  let plot =
    Report.Plot.render ~title:"Fig 6 inset: E/cycle vs Vdd, 90 nm chain (J)"
      ~x_label:"Vdd V" ~y_label:"E J"
      [
        { Report.Plot.name = "E total";
          points =
            Array.of_list
              (List.map (fun (v, b) -> (v, b.Analysis.Energy.e_total)) curve) };
      ]
  in
  let first = List.hd evals and last = List.nth evals (List.length evals - 1) in
  let dvmin = mv (last.Scaling.Strategy.vmin -. first.Scaling.Strategy.vmin) in
  {
    id = "fig6";
    table =
      Report.Table.make
        ~title:"Fig 6: energy/cycle and Vmin, 30-inverter chain, alpha = 0.1 (super-Vth)"
        ~headers:[ "node"; "Vmin mV"; "E@Vmin fJ"; "E norm"; "CL*SS^2 norm" ]
        ~notes:
          [ fmt "Vmin grows %.0f mV from 90 to 32 nm (paper: ~40 mV)" dvmin;
            "the CL*SS^2 factor tracks the measured energy (paper Eq. 8)" ]
        rows;
    plots = [ plot ];
  }

let fig7 () =
  traced "fig7" @@ fun () ->
  let node = Scaling.Roadmap.find 45 in
  let lpolys =
    Array.map Physics.Constants.nm [| 30.; 35.; 40.; 45.; 50.; 60.; 70.; 85.; 100.; 120. |]
  in
  let optimized = Scaling.Sub_vth.ss_vs_lpoly ~node ~lpolys ~fixed_doping:None () in
  let fixed_phys =
    Scaling.Sub_vth.doping_for_lpoly ~node ~lpoly:node.Scaling.Roadmap.lpoly ()
  in
  let fixed =
    Scaling.Sub_vth.ss_vs_lpoly ~node ~lpolys ~fixed_doping:(Some fixed_phys) ()
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (lp, ss_opt) ->
           [ fmt "%.0f" (nm lp); fmt "%.1f" (mv ss_opt); fmt "%.1f" (mv (snd fixed.(i))) ])
         optimized)
  in
  let plot =
    Report.Plot.render ~title:"Fig 7: SS vs Lpoly, 45 nm device (mV/dec)"
      ~x_label:"Lpoly nm" ~y_label:"SS"
      [
        { Report.Plot.name = "doping optimized per Lpoly";
          points = Array.map (fun (l, s) -> (nm l, mv s)) optimized };
        { Report.Plot.name = "fixed doping profile";
          points = Array.map (fun (l, s) -> (nm l, mv s)) fixed };
      ]
  in
  {
    id = "fig7";
    table =
      Report.Table.make ~title:"Fig 7: SS as a function of gate length (45 nm device)"
        ~headers:[ "Lpoly nm"; "SS optimized mV/dec"; "SS fixed-doping mV/dec" ]
        ~notes:[ "joint Lpoly+doping optimization beats lengthening alone (paper Sec. 3.1)" ]
        rows;
    plots = [ plot ];
  }

let fig8 () =
  traced "fig8" @@ fun () ->
  let node = Scaling.Roadmap.find 45 in
  let sel = Scaling.Sub_vth.select_node node in
  let samples = sel.Scaling.Sub_vth.lpoly_grid in
  let ef0 = List.fold_left (fun acc (_, ef, _) -> Float.min acc ef) infinity samples in
  let df0 = List.fold_left (fun acc (_, _, df) -> Float.min acc df) infinity samples in
  let rows =
    List.map
      (fun (lp, ef, df) ->
        [ fmt "%.0f" (nm lp); fmt "%.3f" (ef /. ef0); fmt "%.3f" (df /. df0) ])
      samples
  in
  let plot =
    Report.Plot.render ~title:"Fig 8: energy and delay factors vs Lpoly (45 nm, min = 1)"
      ~x_label:"Lpoly nm" ~y_label:"factor"
      [
        { Report.Plot.name = "energy factor CL*SS^2";
          points = Array.of_list (List.map (fun (l, ef, _) -> (nm l, ef /. ef0)) samples) };
        { Report.Plot.name = "delay factor CL*SS/Ioff";
          points = Array.of_list (List.map (fun (l, _, df) -> (nm l, df /. df0)) samples) };
      ]
  in
  {
    id = "fig8";
    table =
      Report.Table.make ~title:"Fig 8: energy and delay factors vs Lpoly (45 nm device)"
        ~headers:[ "Lpoly nm"; "energy factor (min=1)"; "delay factor (min=1)" ]
        ~notes:
          [ fmt "energy-optimal Lpoly = %.0f nm (paper: 60 nm)"
              (nm sel.Scaling.Sub_vth.phys.Device.Params.lpoly);
            "the delay minimum is shallow, so the energy optimum costs little (paper)" ]
        rows;
    plots = [ plot ];
  }

let fig9 ctx =
  traced "fig9" @@ fun () ->
  let rows =
    Exec.map2
      (fun sup sub ->
        [ fmt "%d" (node_of sup);
          fmt "%.0f" (nm sup.Scaling.Strategy.phys.Device.Params.lpoly);
          fmt "%.0f" (nm sub.Scaling.Strategy.phys.Device.Params.lpoly);
          fmt "%.1f" (mv sup.Scaling.Strategy.ss);
          fmt "%.1f" (mv sub.Scaling.Strategy.ss) ])
      (roadmap_only ctx.super) (roadmap_only ctx.sub)
  in
  let subs = roadmap_only ctx.sub in
  let l_first = (List.hd subs).Scaling.Strategy.phys.Device.Params.lpoly in
  let l_last =
    (List.nth subs (List.length subs - 1)).Scaling.Strategy.phys.Device.Params.lpoly
  in
  let per_gen =
    100.0 *. (1.0 -. ((l_last /. l_first) ** (1.0 /. float_of_int (List.length subs - 1))))
  in
  {
    id = "fig9";
    table =
      Report.Table.make ~title:"Fig 9: Lpoly and SS under both scaling strategies"
        ~headers:
          [ "node"; "Lpoly super nm"; "Lpoly sub nm"; "SS super mV/dec"; "SS sub mV/dec" ]
        ~notes:
          [ fmt "sub-Vth Lpoly shrinks %.0f%%/generation (paper: 20-25%%, super-Vth: 30%%)"
              per_gen;
            "sub-Vth SS stays ~80 mV/dec across nodes (paper)" ]
        rows;
    plots = [];
  }

let fig10 ctx =
  traced "fig10" @@ fun () ->
  let supers = roadmap_only ctx.super and subs = roadmap_only ctx.sub in
  let rows =
    Exec.map2
      (fun sup sub ->
        [ fmt "%d" (node_of sup);
          fmt "%.1f" (mv sup.Scaling.Strategy.snm_sub);
          fmt "%.1f" (mv sub.Scaling.Strategy.snm_sub);
          fmt "%.1f"
            (100.0
             *. ((sub.Scaling.Strategy.snm_sub /. sup.Scaling.Strategy.snm_sub) -. 1.0)) ])
      supers subs
  in
  let last_sup = List.nth supers (List.length supers - 1) in
  let last_sub = List.nth subs (List.length subs - 1) in
  let gain =
    100.0 *. ((last_sub.Scaling.Strategy.snm_sub /. last_sup.Scaling.Strategy.snm_sub) -. 1.0)
  in
  {
    id = "fig10";
    table =
      Report.Table.make ~title:"Fig 10: inverter SNM at 250 mV under both strategies"
        ~headers:[ "node"; "SNM super mV"; "SNM sub mV"; "gain %" ]
        ~notes:[ fmt "sub-Vth SNM is %.0f%% larger at 32 nm (paper: 19%%)" gain ]
        rows;
    plots = [];
  }

let fig11 ctx =
  traced "fig11" @@ fun () ->
  let supers = roadmap_only ctx.super and subs = roadmap_only ctx.sub in
  let d0_sup = (List.hd supers).Scaling.Strategy.delay_sub in
  let d0_sub = (List.hd subs).Scaling.Strategy.delay_sub in
  let rows =
    Exec.map2
      (fun sup sub ->
        [ fmt "%d" (node_of sup);
          fmt "%.2f" (sup.Scaling.Strategy.delay_sub /. d0_sup);
          fmt "%.2f" (sub.Scaling.Strategy.delay_sub /. d0_sub) ])
      supers subs
  in
  let last_sub = List.nth subs (List.length subs - 1) in
  let per_gen =
    100.0
    *. (1.0
        -. ((last_sub.Scaling.Strategy.delay_sub /. d0_sub)
            ** (1.0 /. float_of_int (List.length subs - 1))))
  in
  {
    id = "fig11";
    table =
      Report.Table.make
        ~title:"Fig 11: normalized FO1 inverter delay at Vdd = 250 mV (each strategy vs its own 90 nm)"
        ~headers:[ "node"; "delay super (norm)"; "delay sub (norm)" ]
        ~notes:
          [ fmt "sub-Vth delay improves %.0f%%/generation (paper: ~18%%)" per_gen;
            "super-Vth delay is non-monotonic/degrading at 250 mV (paper Fig. 5/11)" ]
        rows;
    plots = [];
  }

let fig12 ctx =
  traced "fig12" @@ fun () ->
  let rows =
    Exec.map2
      (fun sup sub ->
        [ fmt "%d" (node_of sup);
          fmt "%.0f" (mv sup.Scaling.Strategy.vmin);
          fmt "%.0f" (mv sub.Scaling.Strategy.vmin);
          fmt "%.2f" (1e15 *. sup.Scaling.Strategy.energy_at_vmin);
          fmt "%.2f" (1e15 *. sub.Scaling.Strategy.energy_at_vmin) ])
      ctx.super ctx.sub
  in
  let last_sup = List.nth ctx.super (List.length ctx.super - 1) in
  let last_sub = List.nth ctx.sub (List.length ctx.sub - 1) in
  let gain =
    100.0
    *. (1.0 -. (last_sub.Scaling.Strategy.energy_at_vmin /. last_sup.Scaling.Strategy.energy_at_vmin))
  in
  let subs = ctx.sub in
  let vmins = List.map (fun e -> e.Scaling.Strategy.vmin) subs in
  let vmin_span =
    mv (List.fold_left Float.max neg_infinity vmins -. List.fold_left Float.min infinity vmins)
  in
  {
    id = "fig12";
    table =
      Report.Table.make
        ~title:"Fig 12: chain energy at Vmin and Vmin under both strategies"
        ~headers:[ "node"; "Vmin super mV"; "Vmin sub mV"; "E super fJ"; "E sub fJ" ]
        ~notes:
          [ fmt "sub-Vth consumes %.0f%% less energy at 32 nm (paper: ~23%%)" gain;
            fmt "sub-Vth Vmin varies only %.0f mV across nodes (paper: 10 mV, 130-32 nm)"
              vmin_span ]
        rows;
    plots = [];
  }

(* ------------------------------------------------------------------ *)
(* Extensions                                                          *)
(* ------------------------------------------------------------------ *)

let find_eval evals ~nm =
  List.find (fun e -> node_of e = nm) evals

let ext_variability ctx =
  traced "ext_variability" @@ fun () ->
  let vdds = [ 0.9; 0.5; 0.35; 0.25; 0.2 ] in
  let trace pair = Analysis.Variability.delay_spread_vs_vdd ~trials:300 pair ~vdds in
  let sup90 = (find_eval ctx.super ~nm:90).Scaling.Strategy.pair in
  let sup32 = (find_eval ctx.super ~nm:32).Scaling.Strategy.pair in
  let sub32 = (find_eval ctx.sub ~nm:32).Scaling.Strategy.pair in
  let t90 = trace sup90 and t32 = trace sup32 and t32s = trace sub32 in
  let pct v = fmt "%.1f" (100.0 *. v) in
  let rows =
    List.map2
      (fun ((vdd, s90), (_, s32)) (_, s32s) ->
        [ fmt "%.0f" (1000.0 *. vdd); pct s90; pct s32; pct s32s ])
      (List.combine t90 t32) t32s
  in
  let last l = snd (List.nth l (List.length l - 1)) in
  {
    id = "ext-variability";
    table =
      Report.Table.make
        ~title:"Ext: RDF chain-delay variability sigma/mu [%] vs Vdd (30 stages)"
        ~headers:[ "Vdd mV"; "90nm super"; "32nm super"; "32nm sub" ]
        ~notes:
          [ "variability grows dramatically as Vdd reduces (paper Sec. 1)";
            fmt "at 200 mV the sub-Vth 32 nm device cuts sigma/mu from %.0f%% to %.0f%%"
              (100.0 *. last t32) (100.0 *. last t32s) ]
        rows;
    plots = [];
  }

let ext_multi_vth () =
  traced "ext_multi_vth" @@ fun () ->
  let node = Scaling.Roadmap.find 32 in
  let describe kind =
    let variants = Scaling.Multi_vth.for_node ~strategy:kind node in
    List.map
      (fun (v : Scaling.Multi_vth.variant) ->
        [ fmt "%s %s" (Scaling.Strategy.kind_name kind)
            (Scaling.Multi_vth.flavor_name v.Scaling.Multi_vth.flavor);
          fmt "%.0f" (mv v.Scaling.Multi_vth.vth_sat);
          fmt "%.1f" (pa v.Scaling.Multi_vth.ioff);
          fmt "%.1f" (1e9 *. v.Scaling.Multi_vth.delay_sub);
          fmt "%.0f" (mv v.Scaling.Multi_vth.vmin);
          fmt "%.2f" (1e15 *. v.Scaling.Multi_vth.energy_at_vmin) ])
      variants
  in
  {
    id = "ext-multivth";
    table =
      Report.Table.make
        ~title:"Ext: multi-Vth offering at the 32 nm node (paper Secs. 2.2/3.2)"
        ~headers:
          [ "variant"; "Vth_sat mV"; "Ioff pA/um"; "tp@250mV ns"; "Vmin mV"; "E@Vmin fJ" ]
        ~notes:
          [ "each flavor re-solves the doping for a decade-spaced Ioff budget";
            "LVT trades a decade of leakage for ~2x delay at 250 mV" ]
        (List.concat
           (Exec.map describe [ Scaling.Strategy.Super_vth; Scaling.Strategy.Sub_vth ]));
    plots = [];
  }

let ext_bitline ctx =
  traced "ext_bitline" @@ fun () ->
  let rows =
    Exec.map2
      (fun sup sub ->
        let bits pair =
          Analysis.Bitline.max_bits_per_line pair.Circuits.Inverter.nfet ~vdd:0.25
        in
        let sup_bits = bits sup.Scaling.Strategy.pair in
        let sub_bits = bits sub.Scaling.Strategy.pair in
        [ fmt "%d" (node_of sup); fmt "%d" sup_bits; fmt "%d" sub_bits ])
      (roadmap_only ctx.super) (roadmap_only ctx.sub)
  in
  {
    id = "ext-bitline";
    table =
      Report.Table.make
        ~title:"Ext: max SRAM bits per bitline at Vdd = 250 mV (margin 4x, Sec. 2.3.2)"
        ~headers:[ "node"; "super-Vth"; "sub-Vth" ]
        ~notes:
          [ "Ion/Ioff sets the bits/line budget (paper ref [16])";
            "super-Vth scaling halves the budget by 32 nm; sub-Vth scaling grows it" ]
        rows;
    plots = [];
  }

let ext_temperature () =
  traced "ext_temperature" @@ fun () ->
  let phys = List.hd Device.Params.paper_table2 in
  let sizing = Circuits.Inverter.balanced_sizing () in
  let rows =
    Exec.map
      (fun t ->
        let pair =
          {
            Circuits.Inverter.nfet = Device.Compact.nfet ~t phys;
            pfet = Device.Compact.pfet ~t phys;
          }
        in
        let nfet = pair.Circuits.Inverter.nfet in
        let vmin = Analysis.Energy.vmin ~sizing pair in
        [ fmt "%.0f" t;
          fmt "%.1f" (mv nfet.Device.Compact.ss);
          fmt "%.0f" (pa (Device.Iv_model.ioff nfet ~vdd:0.25));
          fmt "%.0f" (mv vmin.Analysis.Energy.vmin);
          fmt "%.2f" (1e15 *. vmin.Analysis.Energy.e_min) ])
      [ 250.0; 300.0; 350.0; 400.0 ]
  in
  {
    id = "ext-temperature";
    table =
      Report.Table.make
        ~title:"Ext: temperature sensitivity of the 90 nm super-Vth device"
        ~headers:[ "T K"; "SS mV/dec"; "Ioff@250mV pA/um"; "Vmin mV"; "E@Vmin fJ" ]
        ~notes:
          [ "SS ~ T through Eq. 2(a); Ioff grows exponentially with T";
            "Vmin tracks SS, so hot sub-Vth circuits must run at a higher supply" ]
        rows;
    plots = [];
  }

(* ext-datapath's "carry delay" and ext-sta's "SPICE" columns are the same
   transient: the 8-bit adder's carry ripple at 250 mV on each node's pair.
   Both drivers go through this table, so each node pays for it once. *)
let carry_delay_memo : float Exec.Memo.t = Exec.Memo.create ~name:"experiments.carry_delay" ()

let carry_delay pair ~bits =
  let vdd = 0.25 in
  let key =
    Exec.Key.(
      fields "carry_delay"
        [ ("nfet", Device.Compact.key pair.Circuits.Inverter.nfet);
          ("pfet", Device.Compact.key pair.Circuits.Inverter.pfet);
          ("vdd", float vdd);
          ("bits", int bits) ])
  in
  Exec.Memo.find_or_compute carry_delay_memo ~key (fun () ->
      Circuits.Adder.carry_delay pair ~vdd ~bits)

let ext_datapath ctx =
  traced "ext_datapath" @@ fun () ->
  let rows =
    Exec.map
      (fun e ->
        let pair = e.Scaling.Strategy.pair in
        let adder = Circuits.Adder.ripple_carry pair ~vdd:0.25 ~bits:8 in
        let s, co = Circuits.Adder.compute adder ~a:0xA5 ~b:0x5A ~cin:1 in
        let ok = if (s, co) = (0x00, 1) then "pass" else "FAIL" in
        let delay = carry_delay pair ~bits:8 in
        [ fmt "%d" (node_of e); fmt "%.2f" (1e6 *. delay); ok ])
      (roadmap_only ctx.super)
  in
  {
    id = "ext-datapath";
    table =
      Report.Table.make
        ~title:"Ext: 8-bit ripple-carry adder at Vdd = 250 mV (super-Vth devices)"
        ~headers:[ "node"; "carry delay us"; "0xA5+0x5A+1" ]
        ~notes:
          [ "worst-case carry ripple, transient-measured at 50% crossings";
            "the DC column checks a full-width add against the ideal sum" ]
        rows;
    plots = [];
  }



let ext_interconnect ctx =
  traced "ext_interconnect" @@ fun () ->
  (* Wire RC per node and the wire-vs-gate balance at both operating points:
     at nominal Vdd a 1 mm wire's own RC rivals the gate delay, while at
     250 mV the gate is orders slower, so optimal repeater segments grow to
     centimetres — repeaters effectively disappear from sub-Vth design. *)
  let sizing = Circuits.Inverter.balanced_sizing () in
  let rows =
    Exec.map
      (fun e ->
        let pair = e.Scaling.Strategy.pair in
        let node_nm = node_of e in
        let vdd_nom = e.Scaling.Strategy.node.Scaling.Roadmap.vdd in
        let geometry = Interconnect.Wire.geometry_for_node node_nm in
        let r = Interconnect.Wire.resistance_per_length geometry in
        let c = Interconnect.Wire.capacitance_per_length geometry in
        let wire_1mm =
          Interconnect.Elmore.distributed_delay ~r_per_l:r ~c_per_l:c ~length:1e-3
        in
        let l_opt vdd =
          Interconnect.Repeater.optimal_segment_length pair ~sizing ~vdd ~geometry
        in
        [ fmt "%d" node_nm;
          fmt "%.1f" (r *. 1e-6);
          fmt "%.2f" (c *. 1e15 /. 1e6);
          fmt "%.0f" (1e12 *. wire_1mm);
          fmt "%.0f" (1e12 *. Analysis.Delay.eq5 pair ~sizing ~vdd:vdd_nom);
          fmt "%.1f" (1e9 *. Analysis.Delay.eq5 pair ~sizing ~vdd:0.25);
          fmt "%.2f" (1e3 *. l_opt vdd_nom);
          fmt "%.0f" (1e3 *. l_opt 0.25) ])
      (roadmap_only ctx.super)
  in
  {
    id = "ext-interconnect";
    table =
      Report.Table.make
        ~title:"Ext: wires vs gates across the supply range (intermediate-level copper)"
        ~headers:
          [ "node"; "R ohm/um"; "C fF/um"; "wire RC @1mm ps"; "tp@nom ps"; "tp@250mV ns";
            "repeater Lopt@nom mm"; "Lopt@250mV mm" ]
        ~notes:
          [ "at nominal Vdd a 1 mm wire rivals the gate delay: repeaters every ~0.5 mm";
            "at 250 mV the gate is 1000x slower, pushing optimal repeater spacing to cm";
            "sub-Vth designs are capacitance-, not resistance-, limited" ]
        rows;
    plots = [];
  }

let ext_sta ctx =
  traced "ext_sta" @@ fun () ->
  let rows =
    Exec.map
      (fun e ->
        let pair = e.Scaling.Strategy.pair in
        let lib = Sta.Cell_lib.characterize pair ~vdd:0.25 in
        let bits = 8 in
        let report = Sta.Engine.analyze lib (Sta.Design.adder ~bits).Sta.Design.design in
        let spice = carry_delay pair ~bits in
        [ fmt "%d" (node_of e);
          fmt "%.2f" (1e6 *. report.Sta.Engine.critical_time);
          fmt "%d" (List.length report.Sta.Engine.critical_path);
          fmt "%.2f" (1e6 *. spice);
          fmt "%.2f" (report.Sta.Engine.critical_time /. spice) ])
      (roadmap_only ctx.super)
  in
  {
    id = "ext-sta";
    table =
      Report.Table.make
        ~title:
          "Ext: static timing analysis of the 8-bit adder at 250 mV (NLDM library per node)"
        ~headers:[ "node"; "STA path us"; "depth"; "SPICE us"; "STA/SPICE" ]
        ~notes:
          [ "cell libraries characterized by transient (3 slews x 3 loads per arc)";
            "STA is conservative (max-arrival, corner slews) as a signoff tool should be" ]
        rows;
    plots = [];
  }

let ext_yield ctx =
  traced "ext_yield" @@ fun () ->
  let sup32 = (find_eval ctx.super ~nm:32).Scaling.Strategy.pair in
  let sub32 = (find_eval ctx.sub ~nm:32).Scaling.Strategy.pair in
  let rows =
    List.concat_map
      (fun (label, pair) ->
        List.map
          (fun vdd ->
            let a = Analysis.Yield.assess ~trials:500 pair ~vdd in
            [ label;
              fmt "%.0f" (mv vdd);
              fmt "%.1f" (mv a.Analysis.Yield.snm_mean);
              fmt "%.1f" (mv a.Analysis.Yield.snm_sigma);
              fmt "%.1e" a.Analysis.Yield.p_cell_fail;
              fmt "%.3f" a.Analysis.Yield.yield_1kb ])
          [ 0.20; 0.25; 0.30 ])
      [ ("32nm super", sup32); ("32nm sub", sub32) ]
  in
  let vmin_sup =
    Analysis.Yield.min_vdd_for_yield ~trials:400 sup32 ~bits:1024 ~target:0.9
  in
  let vmin_sub =
    Analysis.Yield.min_vdd_for_yield ~trials:400 sub32 ~bits:1024 ~target:0.9
  in
  {
    id = "ext-yield";
    table =
      Report.Table.make
        ~title:"Ext: SRAM-style yield under RDF mismatch (inverter-pair SNM, 32 nm)"
        ~headers:
          [ "device"; "Vdd mV"; "SNM mean mV"; "SNM sigma mV"; "P(cell fail)"; "yield 1kb" ]
        ~notes:
          [ fmt "90%%-yield 1 kb minimum supply: super %.0f mV, sub %.0f mV" (mv vmin_sup)
              (mv vmin_sub);
            "the sub-Vth device's flatter SS buys a lower memory Vmin (ref [16])" ]
        rows;
    plots = [];
  }

let ext_projection () =
  traced "ext_projection" @@ fun () ->
  let projected = Scaling.Roadmap.project ~generations:2 in
  let rows =
    List.concat
      (Exec.map
         (fun node ->
        let sup = Scaling.Super_vth.select_node node in
        let sub = Scaling.Sub_vth.select_node node in
        let ss_of (p : Circuits.Inverter.pair) = p.Circuits.Inverter.nfet.Device.Compact.ss in
        [
          [ fmt "%d super" node.Scaling.Roadmap.nm;
            fmt "%.0f" (nm node.Scaling.Roadmap.lpoly);
            fmt "%.2f" (nm node.Scaling.Roadmap.tox);
            fmt "%.1f" (mv (ss_of sup.Scaling.Super_vth.pair));
            fmt "%.0f"
              (Device.Iv_model.on_off_ratio sup.Scaling.Super_vth.pair.Circuits.Inverter.nfet
                 ~vdd:0.25) ];
          [ fmt "%d sub" node.Scaling.Roadmap.nm;
            fmt "%.0f" (nm sub.Scaling.Sub_vth.phys.Device.Params.lpoly);
            fmt "%.2f" (nm node.Scaling.Roadmap.tox);
            fmt "%.1f" (mv (ss_of sub.Scaling.Sub_vth.pair));
            fmt "%.0f"
              (Device.Iv_model.on_off_ratio sub.Scaling.Sub_vth.pair.Circuits.Inverter.nfet
                 ~vdd:0.25) ];
        ])
         projected)
  in
  {
    id = "ext-projection";
    table =
      Report.Table.make
        ~title:"Ext: projecting both strategies past the paper (22 and 16 nm trends)"
        ~headers:[ "node"; "Lpoly nm"; "Tox nm"; "SS mV/dec"; "Ion/Ioff @250mV" ]
        ~notes:
          [ "trend continuation: Lpoly -30%/gen, Tox -10%/gen, leakage +25%/gen";
            "the super-Vth/sub-Vth gap keeps widening beyond the paper's horizon" ]
        rows;
    plots = [];
  }


let ext_corners ctx =
  traced "ext_corners" @@ fun () ->
  let sizing = Circuits.Inverter.balanced_sizing () in
  let sup32 = (find_eval ctx.super ~nm:32).Scaling.Strategy.pair in
  let sub32 = (find_eval ctx.sub ~nm:32).Scaling.Strategy.pair in
  let at_corner pair corner =
    {
      Circuits.Inverter.nfet = Device.Corners.apply corner pair.Circuits.Inverter.nfet;
      pfet = Device.Corners.apply corner pair.Circuits.Inverter.pfet;
    }
  in
  let rows =
    List.concat_map
      (fun (label, pair) ->
        Exec.map
          (fun corner ->
            let p = at_corner pair corner in
            let tp = Analysis.Delay.eq5 p ~sizing ~vdd:0.25 in
            let ioff =
              Device.Iv_model.ioff p.Circuits.Inverter.nfet ~vdd:0.25
            in
            let vm =
              Analysis.Vtc.switching_threshold (Analysis.Vtc.spice ~points:81 p ~sizing ~vdd:0.25)
            in
            [ label; Device.Corners.name corner;
              fmt "%.1f" (1e9 *. tp);
              fmt "%.0f" (pa ioff);
              fmt "%.1f" (mv vm) ])
          Device.Corners.all)
      [ ("32nm super", sup32); ("32nm sub", sub32) ]
  in
  let spread pair =
    let d c = Analysis.Delay.eq5 (at_corner pair c) ~sizing ~vdd:0.25 in
    d Device.Corners.Ss /. d Device.Corners.Ff
  in
  {
    id = "ext-corners";
    table =
      Report.Table.make
        ~title:"Ext: process corners at Vdd = 250 mV (32 nm, +-30 mV global Vth, +-8% mu)"
        ~headers:[ "device"; "corner"; "tp ns"; "Ioff pA/um"; "VM mV" ]
        ~notes:
          [ fmt "SS/FF delay spread: super %.1fx, sub %.1fx" (spread sup32) (spread sub32);
            "a fixed global dVth bites harder at the sub-Vth device's steeper slope \
             (smaller m) - the mirror image of ext-variability, where its smaller \
             sigma_Vth wins";
            "mixed corners (FS/SF) shift the inverter switching threshold VM" ]
        rows;
    plots = [];
  }

let ext_pareto ctx =
  traced "ext_pareto" @@ fun () ->
  let sup32 = (find_eval ctx.super ~nm:32).Scaling.Strategy.pair in
  let sub32 = (find_eval ctx.sub ~nm:32).Scaling.Strategy.pair in
  let describe label pair =
    (* Near/sub-threshold range: above ~0.45 V delay keeps shrinking
       exponentially and EDP trivially favours the highest supply. *)
    let curve = Analysis.Pareto.curve ~points:40 pair ~lo:0.12 ~hi:0.45 in
    let front = Analysis.Pareto.pareto_front curve in
    let edp = Analysis.Pareto.min_edp curve in
    let e_min =
      List.fold_left (fun e (p : Analysis.Pareto.point) -> Float.min e p.Analysis.Pareto.energy)
        infinity curve
    in
    let iso =
      match Analysis.Pareto.energy_at_delay curve ~delay:100e-9 with
      | Some e -> fmt "%.2f" (1e15 *. e)
      | None -> "-"
    in
    [ label;
      fmt "%d" (List.length front);
      fmt "%.2f" (1e15 *. e_min);
      fmt "%.0f" (mv edp.Analysis.Pareto.vdd);
      fmt "%.1f" (1e9 *. edp.Analysis.Pareto.delay);
      fmt "%.2f" (1e15 *. edp.Analysis.Pareto.energy);
      iso ]
  in
  {
    id = "ext-pareto";
    table =
      Report.Table.make
        ~title:"Ext: near-threshold energy-delay frontier, 30-stage chain (32 nm, 120-450 mV)"
        ~headers:
          [ "device"; "front pts"; "E@Vmin fJ"; "EDP-opt Vdd mV"; "EDP-opt tp ns";
            "EDP-opt E fJ"; "E @tp<=100ns fJ" ]
        ~notes:
          [ "the EDP optimum sits well above Vmin: speed is cheap near Vmin";
            "iso-delay column: cheapest energy meeting a 100 ns stage delay" ]
        (Exec.map2 describe [ "32nm super"; "32nm sub" ] [ sup32; sub32 ])
    ;
    plots = [];
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type group = Paper | Extension

type experiment = {
  id : string;
  group : group;
  run : measured:bool -> context Lazy.t -> output;
}

(* Drivers that read the context force it; the others never touch it. *)
let needs f ~measured:_ ctx = f (Lazy.force ctx)
let free f ~measured:_ _ = f ()

let registry =
  let paper id run = { id; group = Paper; run } in
  let ext id run = { id; group = Extension; run } in
  [ paper "table1" (free table1);
    paper "table2" (needs table2);
    paper "table3" (needs table3);
    paper "fig2" (needs fig2);
    paper "fig3" (needs fig3);
    paper "fig4" (needs fig4);
    paper "fig5" (fun ~measured ctx -> fig5 ~measured (Lazy.force ctx));
    paper "fig6" (needs fig6);
    paper "fig7" (free fig7);
    paper "fig8" (free fig8);
    paper "fig9" (needs fig9);
    paper "fig10" (needs fig10);
    paper "fig11" (needs fig11);
    paper "fig12" (needs fig12);
    ext "ext-variability" (needs ext_variability);
    ext "ext-multivth" (free ext_multi_vth);
    ext "ext-bitline" (needs ext_bitline);
    ext "ext-temperature" (free ext_temperature);
    ext "ext-datapath" (needs ext_datapath);
    ext "ext-interconnect" (needs ext_interconnect);
    ext "ext-sta" (needs ext_sta);
    ext "ext-yield" (needs ext_yield);
    ext "ext-projection" (free ext_projection);
    ext "ext-corners" (needs ext_corners);
    ext "ext-pareto" (needs ext_pareto) ]

let find id = List.find_opt (fun e -> e.id = id) registry

(* Fig. 12 is the only artefact that reads the 130 nm back-extrapolation. *)
let context_for experiments =
  let with_130 = List.exists (fun e -> e.id = "fig12") experiments in
  lazy (make_context ~with_130 ())
