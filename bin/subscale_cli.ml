(* subscale: command-line front end.

   subcommands (the four analysis/verification passes first, then the
   simulation drivers and exporters):
     check          static-analysis pass over devices, circuits and designs
     audit          interval-validity + memo/determinism audit of the engine
     lint           typedtree source linter (purity/race, float/exception/
                    output hygiene) over the .cmt artifacts dune produces
     run <ids>      reproduce tables/figures (table1..fig12 or "all")
     device         print compact-model characteristics for one node
     tcad           run the 2-D TCAD characterization for one node (slower)
     sweep          dump a compact-model Id-Vg sweep as CSV
     liberty        characterize a cell library into a Liberty file
     export         write a generated circuit as a SPICE deck
     verilog        emit a gate-level adder as structural Verilog
     serve          long-running characterization daemon (JSON over a socket)

   check/audit/lint share the same conventions: structured diagnostics
   with registry-minted rule ids, --strict, exit 1 on findings; every
   pass always runs, and their rule cases run in dune runtest. *)

open Cmdliner
module Diag = Subscale.Check.Diagnostic

(* Print the diagnostics for one target and exit 1 on errors: every
   subcommand validates its inputs through this before running a solver. *)
let gate_on_errors ~what diags =
  List.iter (fun d -> Printf.eprintf "%s: %s\n" what (Diag.to_string d)) (Diag.sort diags);
  if Diag.has_errors diags then begin
    Printf.eprintf "%s: %s -- refusing to simulate\n" what (Diag.summary diags);
    exit 1
  end

let validate_device ~what phys pair =
  gate_on_errors ~what (Subscale.Check.physical phys);
  let vdd = phys.Subscale.Device.Params.vdd in
  let nfet = pair.Subscale.Circuits.Inverter.nfet in
  let pfet = pair.Subscale.Circuits.Inverter.pfet in
  gate_on_errors ~what (Subscale.Check.compact nfet ~vdd);
  gate_on_errors ~what (Subscale.Check.compact pfet ~vdd)

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let log_term =
  Term.(const setup_logs $ Logs_cli.level ())

(* Parallelism: --jobs N pins the domain-pool width; without it the default
   comes from SUBSCALE_JOBS or the machine's recommended domain count.  All
   sweep results are bit-identical for every setting (see DESIGN.md). *)
let setup_jobs = function
  | None -> ()
  | Some n ->
    if n < 1 then begin
      Printf.eprintf "--jobs must be >= 1\n";
      exit 2
    end;
    Subscale.Exec.set_jobs n

let jobs_term =
  let doc =
    "Number of domains used for parallel sweeps (default: $(b,SUBSCALE_JOBS) \
     or the machine's recommended domain count).  $(b,--jobs 1) runs purely \
     sequentially and spawns no domains; outputs are bit-identical for every \
     value."
  in
  Term.(
    const setup_jobs
    $ Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc))

(* Observability: --trace FILE writes a Chrome trace_event JSON at process
   exit; --profile prints a span summary plus the metrics registry to
   stderr.  SUBSCALE_TRACE=FILE is the flag-free equivalent of --trace.
   Tracing never perturbs results (DESIGN.md, "Observability"). *)
let setup_obs trace profile =
  Subscale.Obs.init_from_env ();
  Option.iter Subscale.Obs.set_trace_file trace;
  if profile then Subscale.Obs.enable_profile ()

let obs_term =
  let trace =
    let doc =
      "Write a Chrome trace_event JSON timeline of the run to $(docv) \
       (open it at chrome://tracing or ui.perfetto.dev).  Setting \
       $(b,SUBSCALE_TRACE)=FILE is equivalent."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let profile =
    let doc =
      "Print a per-span timing summary and the metrics registry (solver \
       iteration histograms, memo hit rates, non-convergence counters) to \
       stderr when the run finishes."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  Term.(const setup_obs $ trace $ profile)

(* Any solver that gave up during the run left a counter behind; surface
   them even when the caller did not ask for a profile. *)
let warn_non_converged () =
  List.iter
    (fun (name, n) ->
      Printf.eprintf "warning: %d non-converged solver exit(s) recorded under %s\n%!" n name)
    (Subscale.Obs.non_converged_counters ())

module E = Subscale.Experiments

let known_ids = List.map (fun (e : E.experiment) -> e.E.id) E.registry

let print_output ~plots ~csv_dir (o : Subscale.Experiments.output) =
  Subscale.Report.Table.print o.Subscale.Experiments.table;
  print_newline ();
  if plots then
    List.iter
      (fun p ->
        print_string p;
        print_newline ())
      o.Subscale.Experiments.plots;
  match csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (o.Subscale.Experiments.id ^ ".csv") in
    let data = Subscale.Report.Csv.of_table o.Subscale.Experiments.table in
    let oc = open_out path in
    output_string oc data;
    close_out oc;
    Printf.printf "wrote %s\n" path

let run_cmd =
  let ids =
    let doc =
      Printf.sprintf
        "Experiments to run: %s, 'all' (paper set) or 'everything' (paper set \
         plus extensions)."
        (String.concat ", " known_ids)
    in
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ID" ~doc)
  in
  let no_measured =
    let doc = "Skip transient delay measurements in fig5 (faster)." in
    Arg.(value & flag & info [ "no-measured" ] ~doc)
  in
  let plots =
    let doc = "Also render ASCII plots where available." in
    Arg.(value & flag & info [ "plots" ] ~doc)
  in
  let csv_dir =
    let doc = "Directory to write per-experiment CSV files into." in
    Arg.(value & opt (some dir) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let run () () () ids no_measured plots csv_dir =
    let experiments =
      List.concat_map
        (fun id ->
          match (id, E.find id) with
          | "all", _ -> List.filter (fun (e : E.experiment) -> e.E.group = E.Paper) E.registry
          | "everything", _ -> E.registry
          | _, Some e -> [ e ]
          | _, None ->
            Printf.eprintf "unknown experiment %S (known: %s, all, everything)\n" id
              (String.concat ", " known_ids);
            exit 2)
        ids
    in
    let ctx = E.context_for experiments in
    List.iter
      (fun (e : E.experiment) ->
        print_output ~plots ~csv_dir (e.E.run ~measured:(not no_measured) ctx))
      experiments;
    warn_non_converged ()
  in
  let doc = "Reproduce the paper's tables and figures" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ log_term $ jobs_term $ obs_term $ ids $ no_measured $ plots $ csv_dir)

let node_arg =
  let doc = "Technology node (90, 65, 45 or 32; 130 for the Fig. 12 extra point)." in
  Arg.(value & opt int 90 & info [ "node" ] ~docv:"NM" ~doc)

let strategy_arg =
  let doc = "Scaling strategy: 'super' or 'sub'." in
  Arg.(value & opt string "super" & info [ "strategy" ] ~docv:"S" ~doc)

module Strategy = Subscale.Scaling.Strategy
module Roadmap = Subscale.Scaling.Roadmap

(* An unknown node or strategy is a usage error: message on stderr, exit 2. *)
let resolve node strategy =
  match Strategy.resolve ~node ~strategy with
  | Ok device -> device
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 2

let device_cmd =
  let run () () () node strategy =
    let roadmap_node, kind, phys, pair = resolve node strategy in
    validate_device ~what:(Printf.sprintf "%d nm %s device" node strategy) phys pair;
    let e = Strategy.evaluate kind roadmap_node in
    let nfet = pair.Subscale.Circuits.Inverter.nfet in
    let f = Printf.printf in
    f "node           : %d nm (%s strategy)\n" node strategy;
    f "Lpoly          : %.1f nm\n" (Subscale.Physics.Constants.to_nm phys.Subscale.Device.Params.lpoly);
    f "Tox            : %.2f nm\n" (Subscale.Physics.Constants.to_nm phys.Subscale.Device.Params.tox);
    f "Nsub           : %.2e cm^-3\n" (Subscale.Physics.Constants.to_per_cm3 phys.Subscale.Device.Params.nsub);
    f "Nhalo (net)    : %.2e cm^-3\n"
      (Subscale.Physics.Constants.to_per_cm3 (Subscale.Device.Params.nhalo_net phys));
    f "Leff           : %.1f nm\n" (Subscale.Physics.Constants.to_nm nfet.Subscale.Device.Compact.leff);
    f "SS             : %.1f mV/dec\n" (1000.0 *. nfet.Subscale.Device.Compact.ss);
    f "Vth,sat (cc)   : %.0f mV\n" (1000.0 *. e.Subscale.Scaling.Strategy.vth_sat);
    f "DIBL           : %.0f mV/V\n" (1000.0 *. Subscale.Device.Compact.dibl nfet);
    f "Ioff @nominal  : %.1f pA/um\n"
      (Subscale.Physics.Constants.to_pa_per_um e.Subscale.Scaling.Strategy.ioff_nominal);
    f "Ion/Ioff @250mV: %.0f\n" e.Subscale.Scaling.Strategy.on_off_sub;
    f "SNM @250mV     : %.1f mV\n" (1000.0 *. e.Subscale.Scaling.Strategy.snm_sub);
    f "FO1 tp @250mV  : %.1f ns\n" (1e9 *. e.Subscale.Scaling.Strategy.delay_sub);
    f "Vmin           : %.0f mV\n" (1000.0 *. e.Subscale.Scaling.Strategy.vmin);
    f "E/cycle @Vmin  : %.2f fJ (30-stage chain, alpha = 0.1)\n"
      (1e15 *. e.Subscale.Scaling.Strategy.energy_at_vmin)
  in
  let doc = "Print compact-model characteristics of one scaled device" in
  Cmd.v (Cmd.info "device" ~doc)
    Term.(const run $ log_term $ jobs_term $ obs_term $ node_arg $ strategy_arg)

let tcad_cmd =
  let run () () () node strategy =
    let _, _, _, pair = resolve node strategy in
    let nfet = pair.Subscale.Circuits.Inverter.nfet in
    let desc = Subscale.Device.Compact.to_tcad_description nfet in
    let what = Printf.sprintf "%d nm %s TCAD deck" node strategy in
    gate_on_errors ~what (Subscale.Check.description desc);
    Printf.printf "building 2-D device and running Id-Vg sweeps (this takes a few seconds)...\n%!";
    let dev = Subscale.Tcad.Structure.build desc in
    gate_on_errors ~what (Subscale.Check.structure dev);
    let ch = Subscale.Tcad.Extract.characterize ~vdd:0.9 dev in
    Printf.printf "mesh            : %d x %d nodes\n" dev.Subscale.Tcad.Structure.mesh.Subscale.Tcad.Mesh.nx
      dev.Subscale.Tcad.Structure.mesh.Subscale.Tcad.Mesh.ny;
    Printf.printf "Leff (2-D)      : %.1f nm\n" (Subscale.Physics.Constants.to_nm ch.Subscale.Tcad.Extract.leff);
    Printf.printf "SS (2-D)        : %.1f mV/dec (compact model: %.1f)\n"
      (1000.0 *. ch.Subscale.Tcad.Extract.ss) (1000.0 *. nfet.Subscale.Device.Compact.ss);
    Printf.printf "Vth,lin (2-D)   : %.0f mV\n" (1000.0 *. ch.Subscale.Tcad.Extract.vth_lin);
    Printf.printf "Vth,sat (2-D)   : %.0f mV\n" (1000.0 *. ch.Subscale.Tcad.Extract.vth_sat);
    Printf.printf "DIBL (2-D)      : %.0f mV/V\n" (1000.0 *. ch.Subscale.Tcad.Extract.dibl);
    Printf.printf "Ioff (2-D)      : %.2e A/m\n" ch.Subscale.Tcad.Extract.ioff;
    Printf.printf "Ion/Ioff @250mV : %.0f\n" ch.Subscale.Tcad.Extract.on_off_ratio_sub;
    warn_non_converged ()
  in
  let doc = "Characterize one scaled device with the 2-D TCAD simulator" in
  Cmd.v (Cmd.info "tcad" ~doc)
    Term.(const run $ log_term $ jobs_term $ obs_term $ node_arg $ strategy_arg)

let sweep_cmd =
  let vd_arg =
    let doc = "Drain bias for the sweep [V]." in
    Arg.(value & opt float 0.25 & info [ "vd" ] ~docv:"V" ~doc)
  in
  let run () () () node strategy vd =
    let _, _, phys, pair = resolve node strategy in
    validate_device ~what:(Printf.sprintf "%d nm %s device" node strategy) phys pair;
    let nfet = pair.Subscale.Circuits.Inverter.nfet in
    print_endline "vgs,id_per_um";
    Array.iter
      (fun vg ->
        Printf.printf "%.3f,%.6e\n" vg (1e-6 *. Subscale.Device.Iv_model.id nfet ~vgs:vg ~vds:vd))
      (Subscale.Numerics.Vec.linspace 0.0 0.9 46)
  in
  let doc = "Dump a compact-model Id-Vg sweep as CSV (A/um)" in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ log_term $ jobs_term $ obs_term $ node_arg $ strategy_arg $ vd_arg)

let vdd_arg =
  let doc = "Supply voltage [V]." in
  Arg.(value & opt float 0.25 & info [ "vdd" ] ~docv:"V" ~doc)

let out_arg ~default =
  let doc = "Output file path." in
  Arg.(value & opt string default & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let liberty_cmd =
  let run () () () node strategy vdd path =
    let _, _, phys, pair = resolve node strategy in
    validate_device ~what:(Printf.sprintf "%d nm %s device" node strategy) phys pair;
    Printf.printf "characterizing INV/NAND2/NOR2 at %.0f mV...\n%!" (1000.0 *. vdd);
    let lib = Subscale.Sta.Cell_lib.characterize pair ~vdd in
    let name = Printf.sprintf "subscale_%dnm_%s_%.0fmv" node strategy (1000.0 *. vdd) in
    Subscale.Sta.Liberty.write ~path ~name lib;
    Printf.printf "wrote %s\n" path
  in
  let doc = "Characterize a cell library and write it as a Liberty (.lib) file" in
  Cmd.v (Cmd.info "liberty" ~doc)
    Term.(const run $ log_term $ jobs_term $ obs_term $ node_arg $ strategy_arg $ vdd_arg
          $ out_arg ~default:"subscale.lib")

let export_cmd =
  let circuit_arg =
    let doc = "Circuit to export: 'inverter', 'chain' or 'adder'." in
    Arg.(value & opt string "inverter" & info [ "circuit" ] ~docv:"NAME" ~doc)
  in
  let run () () () node strategy vdd circuit path =
    let _, _, _, pair = resolve node strategy in
    let netlist =
      match circuit with
      | "inverter" ->
        (Subscale.Circuits.Inverter.dc pair ~vdd).Subscale.Circuits.Inverter.circuit
      | "chain" ->
        (Subscale.Circuits.Chain.build ~stages:8 pair ~vdd)
          .Subscale.Circuits.Chain.fixture.Subscale.Circuits.Inverter.circuit
      | "adder" ->
        (Subscale.Circuits.Adder.ripple_carry pair ~vdd ~bits:4)
          .Subscale.Circuits.Adder.circuit
      | other ->
        Printf.eprintf "unknown circuit %S (inverter, chain, adder)\n" other;
        exit 2
    in
    gate_on_errors ~what:(Printf.sprintf "%s deck" circuit) (Subscale.Check.netlist netlist);
    let title = Printf.sprintf "%s, %d nm %s device, Vdd=%.3f V" circuit node strategy vdd in
    Subscale.Spice.Export.write ~path ~title netlist;
    Printf.printf "wrote %s\n" path
  in
  let doc = "Export a generated circuit as a SPICE deck" in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ log_term $ jobs_term $ obs_term $ node_arg $ strategy_arg $ vdd_arg $ circuit_arg
          $ out_arg ~default:"subscale.sp")

let verilog_cmd =
  let bits_arg =
    let doc = "Adder width in bits." in
    Arg.(value & opt int 8 & info [ "bits" ] ~docv:"N" ~doc)
  in
  let run () bits path =
    let d = (Subscale.Sta.Design.adder ~bits).Subscale.Sta.Design.design in
    let name = Printf.sprintf "rca%d" bits in
    gate_on_errors ~what:name (Subscale.Check.design d);
    let oc = open_out path in
    output_string oc (Subscale.Sta.Verilog.to_verilog ~module_name:name d);
    close_out oc;
    Printf.printf "wrote %s (%d gates)\n" path (List.length (Subscale.Sta.Design.gates d))
  in
  let doc = "Generate a gate-level ripple-carry adder as structural Verilog" in
  Cmd.v (Cmd.info "verilog" ~doc)
    Term.(const run $ log_term $ bits_arg $ out_arg ~default:"adder.v")

(* --- subscale check: the whole static-analysis pass as a subcommand --- *)

(* check and audit report alike: one line per target, ok or warn/FAIL
   with the target's summary and each diagnostic beneath, every
   diagnostic collected into [all] for the exit code. *)
let report_target all what diags =
  all := !all @ diags;
  let e, w, _ = Diag.count diags in
  if e = 0 && w = 0 then Printf.printf "  ok    %s\n" what
  else begin
    Printf.printf "  %-5s %s (%s)\n" (if e > 0 then "FAIL" else "warn") what (Diag.summary diags);
    List.iter (fun d -> Printf.printf "        %s\n" (Diag.to_string d)) (Diag.sort diags)
  end

(* The closing summary line, then exit 1 on errors (on warnings too under
   --strict). *)
let finish_pass ~pass ~strict all =
  let _, w, _ = Diag.count all in
  Printf.printf "%s: %s\n" pass (Diag.summary all);
  let code = Diag.exit_code all in
  exit (if code <> 0 then code else if strict && w > 0 then 1 else 0)

(* All eight shipped configurations (4 nodes x both scaling strategies). *)
let shipped_devices () =
  List.concat_map
    (fun node ->
      List.map
        (fun kind ->
          let phys, pair = Strategy.select kind node in
          (node, kind, phys, pair))
        Strategy.kinds)
    Roadmap.nodes

let device_label (node, kind, _, _) =
  Printf.sprintf "%d nm %s" node.Roadmap.nm (Strategy.kind_key kind)

let device_90 kind = Strategy.select kind (Roadmap.find 90)

(* Run every checker over the shipped devices, generated circuits and the
   STA design; print one line per target (plus any diagnostics) and return
   the full diagnostic list for the exit code. *)
let check_targets () =
  let all = ref [] in
  let target = report_target all in
  print_endline "devices:";
  List.iter
    (fun ((_, _, phys, pair) as device) ->
      let what = device_label device in
      let vdd = phys.Subscale.Device.Params.vdd in
      let nfet = pair.Subscale.Circuits.Inverter.nfet in
      let pfet = pair.Subscale.Circuits.Inverter.pfet in
      target (what ^ " physical parameters") (Subscale.Check.physical phys);
      target (what ^ " nfet Id model") (Subscale.Check.compact nfet ~vdd);
      target (what ^ " pfet Id model") (Subscale.Check.compact pfet ~vdd);
      let desc = Subscale.Device.Compact.to_tcad_description nfet in
      target (what ^ " TCAD deck") (Subscale.Check.description desc);
      target (what ^ " TCAD mesh") (Subscale.Check.structure (Subscale.Tcad.Structure.build desc)))
    (shipped_devices ());
  print_endline "circuits (90 nm sub-Vth device):";
  let phys, pair = device_90 Strategy.Sub_vth in
  let vdd = phys.Subscale.Device.Params.vdd in
  let net what c = target what (Subscale.Check.netlist c) in
  net "inverter VTC deck"
    (Subscale.Circuits.Inverter.dc pair ~vdd).Subscale.Circuits.Inverter.circuit;
  net "4-stage FO1 chain"
    (Subscale.Circuits.Inverter.chain_fixture pair ~vdd
       ~input:(Subscale.Spice.Netlist.Dc 0.0))
      .Subscale.Circuits.Inverter.circuit;
  net "tapered buffer chain"
    (Subscale.Circuits.Inverter.tapered_chain_fixture ~scales:[| 1.0; 2.0; 4.0 |] pair
       ~vdd ~input:(Subscale.Spice.Netlist.Dc 0.0) ~final_load:1e-15)
      .Subscale.Circuits.Inverter.circuit;
  net "7-stage ring oscillator"
    (Subscale.Circuits.Ring.build pair ~vdd).Subscale.Circuits.Ring.circuit;
  net "NAND2 cell" (Subscale.Circuits.Stdcell.nand2 pair ~vdd).Subscale.Circuits.Stdcell.circuit;
  net "NOR2 cell" (Subscale.Circuits.Stdcell.nor2 pair ~vdd).Subscale.Circuits.Stdcell.circuit;
  net "4-bit ripple-carry adder"
    (Subscale.Circuits.Adder.ripple_carry pair ~vdd ~bits:4).Subscale.Circuits.Adder.circuit;
  print_endline "designs:";
  target "rca8 gate-level design"
    (Subscale.Check.design (Subscale.Sta.Design.adder ~bits:8).Subscale.Sta.Design.design);
  !all

let check_cmd =
  let strict =
    let doc = "Exit non-zero on warnings too, not only on errors." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let run () () () strict = finish_pass ~pass:"check" ~strict (check_targets ()) in
  let doc = "Static-analysis pass over shipped devices, circuits and designs" in
  let man =
    [ `S Manpage.s_description;
      `P "Runs every design-rule and invariant check (device physics, compact-model \
          monotonicity, TCAD deck/mesh, netlist DRC, STA lint) over the library's \
          shipped inputs without invoking a solver.";
      `P "Exit code 0 when no errors were found (warnings allowed unless \
          $(b,--strict)), 1 when any rule reported an error." ]
  in
  Cmd.v (Cmd.info "check" ~doc ~man)
    Term.(const run $ log_term $ jobs_term $ obs_term $ strict)

(* ------------------------------------------------------------------ *)
(* audit: interval abstract interpretation of the model chain plus the
   determinism/memo-soundness analysis of the parallel engine. *)

module VR = Subscale.Check.Validity_rules
module MS = Subscale.Check.Memo_soundness
module IV = Subscale.Check.Interval
module Pm = Subscale.Device.Params

let iv_fmt ?(scale = 1.0) ?(digits = 1) i =
  Printf.sprintf "[%.*f, %.*f]" digits (scale *. IV.lo i) digits (scale *. IV.hi i)

(* Validity pass: propagate every shipped configuration through the interval
   interpreter and lint each TCAD mesh.  A clean line is a proof that no
   point of the (possibly widened) parameter box trips a hazard. *)
let audit_validity ~op_vdd ~widen =
  let all = ref [] in
  let target = report_target all in
  Printf.printf "validity (interval abstract interpretation at V_dd = %.0f mV%s):\n"
    (1000.0 *. op_vdd)
    (if widen > 0.0 then Printf.sprintf ", box widened %g%%" (100.0 *. widen) else "");
  List.iter
    (fun ((_, _, phys, _) as device) ->
      let what = device_label device in
      let r = VR.audit_physical ~widen ~op_vdd ~what phys in
      target
        (Printf.sprintf "%-11s S_S in %s mV/dec, I_on/I_off in %s" what
           (iv_fmt ~scale:1000.0 r.VR.nfet.VR.ss)
           (iv_fmt ~digits:0 r.VR.nfet.VR.on_off))
        r.VR.diags)
    (shipped_devices ());
  print_endline "mesh-resolution preconditions (AUD008):";
  List.iter
    (fun ((_, _, _, pair) as device) ->
      let desc =
        Subscale.Device.Compact.to_tcad_description pair.Subscale.Circuits.Inverter.nfet
      in
      target (device_label device ^ " TCAD mesh") (VR.check_mesh desc))
    (shipped_devices ());
  !all

(* Memo-soundness pass (AUD011/AUD012): shadow-trace the parameter reads of
   the cached computations and cross-check against the fields their Exec.Key
   encodes; differentially check every keyed field moves the key; then replay
   the full trajectory sweep under Exec.Memo audit mode, where every cache
   hit is recomputed and compared bit-for-bit against the cached value. *)
let audit_memo () =
  let all = ref [] in
  let target = report_target all in
  let covered = Pm.physical_key_fields @ Pm.calibration_key_fields in
  print_endline "memo soundness (traced read-set vs Exec.Key coverage, AUD011):";
  List.iter
    (fun ((_, _, phys, _) as device) ->
      let what = device_label device ^ " device build" in
      let (_ : Subscale.Circuits.Inverter.pair), reads =
        Pm.Trace.collect (fun () -> Subscale.Circuits.Inverter.pair_of_physical phys)
      in
      target
        (Printf.sprintf "%-24s reads %d parameter field(s), all keyed" what
           (List.length reads))
        (MS.cross_check ~what ~covered ~reads))
    (shipped_devices ());
  List.iter
    (fun kind ->
      let phys, pair = device_90 kind in
      let what = Printf.sprintf "90 nm %s full evaluation" (Strategy.kind_key kind) in
      let (_ : Strategy.evaluation), reads =
        Pm.Trace.collect (fun () ->
            Strategy.evaluate_uncached kind (Roadmap.find 90) phys pair)
      in
      target
        (Printf.sprintf "%-24s reads %d parameter field(s), all keyed" what
           (List.length reads))
        (MS.cross_check ~what ~covered ~reads))
    Strategy.kinds;
  print_endline "memo key sensitivity (every keyed field must move the key):";
  let phys0, _ = device_90 Strategy.Super_vth in
  let base_pk = Pm.physical_key phys0 in
  target
    (Printf.sprintf "physical_key    %2d field(s) differentially perturbed"
       (List.length Pm.physical_key_fields))
    (List.concat_map
       (fun field ->
         MS.key_sensitivity ~what:"Device.Params.physical_key" ~field ~base_key:base_pk
           ~perturbed_key:(Pm.physical_key (MS.perturb_physical field phys0)))
       Pm.physical_key_fields);
  let cal0 = Pm.default_calibration in
  let base_ck = Pm.calibration_key cal0 in
  target
    (Printf.sprintf "calibration_key %2d field(s) differentially perturbed"
       (List.length Pm.calibration_key_fields))
    (List.concat_map
       (fun field ->
         MS.key_sensitivity ~what:"Device.Params.calibration_key" ~field ~base_key:base_ck
           ~perturbed_key:(Pm.calibration_key (MS.perturb_calibration field cal0)))
       Pm.calibration_key_fields);
  let n_inputs, diags =
    MS.structure_key_sensitivity ~key:Subscale.Tcad.Structure.key
      ~key_for:Subscale.Tcad.Structure.key_for
  in
  target
    (Printf.sprintf "Tcad.Structure.key and key_for %2d build input(s) differentially perturbed"
       n_inputs)
    diags;
  print_endline "memo shadow audit (recompute on every cache hit, AUD012):";
  Subscale.Exec.Memo.clear_all ();
  Subscale.Exec.Memo.clear_audit_violations ();
  Subscale.Exec.Memo.with_audit (fun () ->
      (* First sweep fills every table; the second replays it so that every
         lookup is a hit and gets shadow-recomputed. *)
      for _ = 1 to 2 do
        List.iter
          (fun kind -> ignore (Strategy.trajectory kind : Strategy.evaluation list))
          Strategy.kinds
      done);
  let hits =
    List.fold_left
      (fun acc (s : Subscale.Exec.Memo.stats) -> acc + s.Subscale.Exec.Memo.hits)
      0 (Subscale.Exec.Memo.stats ())
  in
  target
    (Printf.sprintf "trajectory sweep replayed: %d hit(s) shadow-recomputed, all bit-exact"
       hits)
    (MS.of_violations (Subscale.Exec.Memo.audit_violations ()));
  Subscale.Exec.Memo.clear_audit_violations ();
  !all

(* Schedule-perturbation pass (AUD013): the sweep replayed under adversarial
   pool schedules must fingerprint bit-exactly against the natural order. *)
let audit_schedules ~n =
  let all = ref [] in
  let target = report_target all in
  Printf.printf "schedule perturbation (%d adversarial schedule(s), %d domain(s), AUD013):\n"
    n (Subscale.Exec.jobs ());
  let fingerprint () =
    (* Flush the memo tables so every replay recomputes from scratch —
       otherwise the cache would hand back the baseline values trivially. *)
    Subscale.Exec.Memo.clear_all ();
    String.concat "\n"
      (List.map Strategy.evaluation_fingerprint
         (List.concat_map (fun kind -> Strategy.trajectory kind) Strategy.kinds))
  in
  Subscale.Exec.set_schedule_seed None;
  let baseline = fingerprint () in
  Fun.protect
    ~finally:(fun () -> Subscale.Exec.set_schedule_seed None)
    (fun () ->
      for seed = 1 to n do
        Subscale.Exec.set_schedule_seed (Some seed);
        let fp = fingerprint () in
        target
          (Printf.sprintf "seed %d: trajectory sweep bit-exact vs natural schedule" seed)
          (if String.equal fp baseline then []
           else [ MS.schedule_mismatch ~what:"trajectory sweep" ~seed ])
      done);
  !all

let audit_cmd =
  let schedules =
    let doc =
      "Replay the trajectory sweep under $(docv) adversarial pool schedules \
       and require bit-exact outputs (AUD013); 0 disables the pass."
    in
    Arg.(value & opt int 2 & info [ "schedules" ] ~docv:"N" ~doc)
  in
  let strict =
    let doc = "Exit non-zero on warnings too, not only on errors." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let op_vdd =
    let doc = "Operating supply for the validity pass [V]." in
    Arg.(value & opt float 0.25 & info [ "op-vdd" ] ~docv:"V" ~doc)
  in
  let widen =
    let doc =
      "Relative widening of every parameter box endpoint — turns the \
       validity pass into a tolerance analysis around the shipped values."
    in
    Arg.(value & opt float 0.0 & info [ "widen" ] ~docv:"REL" ~doc)
  in
  let run () () () schedules strict op_vdd widen =
    let validity = audit_validity ~op_vdd ~widen in
    let memo = audit_memo () in
    let replays = if schedules > 0 then audit_schedules ~n:schedules else [] in
    finish_pass ~pass:"audit" ~strict (validity @ memo @ replays)
  in
  let doc = "Interval-validity and memo/determinism audit of the model chain" in
  let man =
    [ `S Manpage.s_description;
      `P "Re-executes the paper's model chain (Eqs. 1-2, 4-8) over a sound \
          interval domain, proving every shipped configuration stays inside \
          the weak-inversion validity regime, then audits the parallel \
          engine: traced parameter read-sets are cross-checked against memo \
          key coverage, every cache hit is shadow-recomputed, and the sweep \
          is replayed under adversarial pool schedules requiring bit-exact \
          output.";
      `P "Exit code 0 when no errors were found (warnings allowed unless \
          $(b,--strict)), 1 when any AUD rule reported an error." ]
  in
  Cmd.v (Cmd.info "audit" ~doc ~man)
    Term.(const run $ log_term $ jobs_term $ obs_term $ schedules $ strict $ op_vdd $ widen)

(* ------------------------------------------------------------------ *)
(* lint: the typedtree-based source linter over dune's .cmt artifacts. *)

module L = Lint

let lint_update_baseline ~baseline_path (app : L.Baseline.application) old_baseline =
  (* Keep the justification of every entry that still matches; new findings
     get a TODO note so the diff shows exactly what needs justifying. *)
  let note_of d =
    match L.Baseline.entry_of_diag d with
    | None -> None
    | Some fresh ->
      let note =
        match
          List.find_opt
            (fun (e : L.Baseline.entry) ->
              e.L.Baseline.rule = fresh.L.Baseline.rule
              && e.L.Baseline.file = fresh.L.Baseline.file
              && e.L.Baseline.line = fresh.L.Baseline.line)
            old_baseline
        with
        | Some e when e.L.Baseline.note <> "" -> e.L.Baseline.note
        | _ -> "— TODO: justify"
      in
      Some { fresh with L.Baseline.note }
  in
  let entries = List.filter_map note_of (app.L.Baseline.kept @ app.L.Baseline.suppressed) in
  let entries =
    List.sort_uniq
      (fun (a : L.Baseline.entry) b ->
        compare
          (a.L.Baseline.file, a.L.Baseline.line, a.L.Baseline.rule)
          (b.L.Baseline.file, b.L.Baseline.line, b.L.Baseline.rule))
      entries
  in
  let oc = open_out baseline_path in
  output_string oc (L.Baseline.to_string entries);
  close_out oc;
  Printf.printf "lint: wrote %d baseline entr%s to %s\n" (List.length entries)
    (if List.length entries = 1 then "y" else "ies")
    baseline_path

(* --format json: one finding per line, machine-readable, matched in CI by
   .github/lint-problem-matcher.json — keep the field order in sync. *)
let diag_json (d : Diag.t) =
  let file, line, col =
    match String.split_on_char ':' d.Diag.location with
    | [ f; l; c ] ->
      ( f,
        Option.value ~default:0 (int_of_string_opt l),
        Option.value ~default:0 (int_of_string_opt c) )
    | [ f; l ] -> (f, Option.value ~default:0 (int_of_string_opt l), 0)
    | _ -> (d.Diag.location, 0, 0)
  in
  let module J = Subscale.Report.Json in
  let int n = J.Num (float_of_int n) in
  J.render
    (J.Obj
       ([ ("rule", J.Str d.Diag.rule);
          ("severity", J.Str (Diag.severity_label d.Diag.severity));
          ("file", J.Str file);
          ("line", int line);
          ("col", int col);
          ("message", J.Str d.Diag.message) ]
       @ Option.fold ~none:[] ~some:(fun h -> [ ("hint", J.Str h) ]) d.Diag.hint))

let lint_cmd =
  let strict =
    let doc =
      "Exit non-zero on warnings, stale baseline entries, TODO-justified \
       baseline entries and advisory UNT/ALS/RAC errors too, not only LNT \
       errors."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let format =
    let doc =
      "Output format: $(b,text) (human-readable, the default) or $(b,json) \
       (one finding per line with rule, severity, file, line, col, message — \
       consumed by the CI problem matcher)."
    in
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let rules =
    let doc = "Print the rule table as markdown (the contents of docs/lint-rules.md)." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let baseline_arg =
    let doc =
      "Baseline file of grandfathered findings ($(b,<rule> <file>:<line> — \
       justification) per line); missing file means an empty baseline."
    in
    Arg.(value & opt string "lint.baseline" & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let root_arg =
    let doc =
      "Directory scanned recursively for .cmt artifacts (run $(b,dune build) \
       first; dune puts library typedtrees under _build/default/lib)."
    in
    Arg.(value & opt string "_build/default/lib" & info [ "root" ] ~docv:"DIR" ~doc)
  in
  let update =
    let doc =
      "Rewrite the baseline file from the current findings, keeping existing \
       justifications and marking new entries TODO."
    in
    Arg.(value & flag & info [ "update-baseline" ] ~doc)
  in
  let run () strict format rules baseline_path root update =
    if rules then print_string (L.rules_markdown ())
    else begin
      if not (Sys.file_exists root && Sys.is_directory root) then begin
        Printf.eprintf
          "lint: %s does not exist — run `dune build` first, or point --root at \
           the directory holding the .cmt artifacts\n"
          root;
        exit 2
      end;
      let reports = L.lint_root root in
      let baseline =
        match L.Baseline.load baseline_path with
        | b -> b
        | exception L.Baseline.Malformed (line, content) ->
          Printf.eprintf "lint: malformed baseline %s:%d: %S\n" baseline_path line content;
          exit 2
      in
      let app = L.Baseline.apply baseline (L.all_diags reports) in
      if update then lint_update_baseline ~baseline_path app baseline
      else begin
        (* in json mode stdout carries only the finding lines; the human
           chrome moves to stderr so the problem matcher sees clean input *)
        let note fmt =
          match format with
          | `Text -> Printf.printf fmt
          | `Json -> Printf.eprintf fmt
        in
        note "lint: scanned %d compilation unit(s) under %s\n"
          (List.length reports) root;
        List.iter
          (fun d ->
            match format with
            | `Text -> Printf.printf "  %s\n" (Diag.to_string d)
            | `Json -> print_endline (diag_json d))
          (Diag.sort app.L.Baseline.kept);
        if app.L.Baseline.suppressed <> [] then
          note "  baseline: %d finding(s) grandfathered by %s\n"
            (List.length app.L.Baseline.suppressed)
            baseline_path;
        List.iter
          (fun (e : L.Baseline.entry) ->
            note "  stale baseline entry (fixed? remove it): %s\n"
              (L.Baseline.entry_to_string e))
          app.L.Baseline.stale;
        let todos = L.Baseline.todos baseline in
        if strict then
          List.iter
            (fun (e : L.Baseline.entry) ->
              note "  TODO justification (rejected by --strict): %s\n"
                (L.Baseline.entry_to_string e))
            todos;
        let kept = app.L.Baseline.kept in
        let _, w, _ = Diag.count kept in
        note "lint: %s\n" (Diag.summary kept);
        (* UNT dimensional, ALS ownership and RAC lockset errors are
           advisory until --strict: the passes are young and their tables
           grow with the model chain, so only the strict (CI) mode lets
           them gate. *)
        let is_advisory (d : Diag.t) =
          String.length d.Diag.rule >= 3
          && (String.sub d.Diag.rule 0 3 = "UNT" || String.sub d.Diag.rule 0 3 = "ALS"
              || String.sub d.Diag.rule 0 3 = "RAC")
        in
        let lnt_code = Diag.exit_code (List.filter (fun d -> not (is_advisory d)) kept) in
        exit
          (if lnt_code <> 0 then lnt_code
           else if
             strict
             && (Diag.has_errors kept || w > 0 || app.L.Baseline.stale <> []
                || todos <> [])
           then 1
           else 0)
      end
    end
  in
  let doc =
    "Typedtree source linter: purity/race, float, exception and output \
     hygiene, and dimensional analysis"
  in
  let man =
    [ `S Manpage.s_description;
      `P "Walks the .cmt typedtrees dune already produced (no re-typechecking) \
          and reports: closures entering the domain-parallel engine that touch \
          unsanctioned mutable state (LNT001), polymorphic equality on floats \
          (LNT002), exception-swallowing catch-alls (LNT003), diagnostic rule \
          ids minted outside Check.Rules (LNT004), direct printing in \
          library code (LNT005) and polymorphic orderings instantiated at a \
          type variable, which box every float they read (LNT006).";
      `P "The UNT series infers physical dimensions for float expressions \
          from a signature table over Physics.Constants/Silicon/Mobility, the \
          parameter records and the Tcad accessors: incompatible additive \
          combinations (UNT001), dimensioned transcendental arguments \
          (UNT002), display/SI unit mixes (UNT003), arguments contradicting \
          the table (UNT004) and dimensions lost through container \
          round-trips (UNT005, info).  Unknown dimensions never fire; \
          $(b,[@units \"V/dec\"]) asserts a deliberate cast.";
      `P "LNT001 and the ALS and RAC series share one interprocedural effect \
          engine over the whole $(b,--root) tree: one summary per function \
          (which parameters are mutated, stored or returned; may it raise, \
          may it block, which locks it acquires), computed to one fixpoint \
          over the call graph.  The ALS series checks buffer ownership on \
          the Bigarray hot path: parallel closures mutating buffers reachable \
          from captures (ALS001), solver scratch escaping or shared by \
          overlapping solves (ALS002), output buffers aliasing inputs \
          (ALS003) and returned buffers that are also retained (ALS004, \
          $(b,[@owned]) to assert).";
      `P "The RAC series adds a held-lockset walk of every body and \
          domain-crossing reachability from Exec.map/Pool.map/Domain.spawn \
          closures: shared state with an inconsistent lockset (RAC001), \
          exception-unsafe critical sections (RAC002), self-deadlock and \
          lock-order inversion (RAC003), torn atomic read-modify-writes \
          (RAC004) and blocking syscalls under a lock (RAC005, \
          $(b,[@blocking_ok]) to assert).  Every pass always runs.";
      `P "Exit code 0 when no non-baselined LNT errors were found (warnings \
          and advisory UNT/ALS/RAC errors allowed unless $(b,--strict)), 1 \
          otherwise.  Like $(b,check) and $(b,audit), findings are structured \
          diagnostics with registry-minted rule ids; $(b,--format json) \
          emits one finding per line for the CI problem matcher." ]
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      const run $ log_term $ strict $ format $ rules $ baseline_arg $ root_arg $ update)

let serve_cmd =
  let socket_arg =
    let doc =
      "Listen on a Unix-domain socket at $(docv). A stale socket file left by a \
       crashed daemon is replaced; if the path holds anything other than a socket, \
       or a daemon is still listening on it, serve refuses to start."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Listen on loopback TCP port $(docv) (0 picks an ephemeral port). Ignored when --socket is given." in
    Arg.(value & opt int 7117 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let cache_arg =
    let doc =
      "Back the characterization memo tables with a persistent store rooted at $(docv): \
       queries answered on one run are served bit-identically from disk by the next."
    in
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)
  in
  let run () () () socket port cache =
    let listen =
      match socket with
      | Some path -> `Unix path
      | None -> `Tcp ("localhost", port)
    in
    let on_ready addr =
      (match addr with
      | Unix.ADDR_UNIX path -> Printf.printf "subscale serve: listening on %s\n%!" path
      | Unix.ADDR_INET (host, port) ->
        Printf.printf "subscale serve: listening on %s:%d\n%!"
          (Unix.string_of_inet_addr host) port);
      match cache with
      | Some dir -> Printf.printf "subscale serve: persistent cache at %s\n%!" dir
      | None -> ()
    in
    match
      Subscale.Serve.Server.run ~on_ready
        { Subscale.Serve.Server.listen; cache_dir = cache }
    with
    | () -> ()
    | exception Failure msg ->
      (* Bind refusals (non-socket at --socket path, live daemon) are
         user errors, not internal ones. *)
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let doc = "Serve characterization queries over a socket (line-delimited JSON)" in
  let man =
    [ `S Manpage.s_description;
      `P "Runs the characterization daemon: one JSON object per line in each \
          direction.  Requests carry an $(b,op) field — $(b,ping), $(b,health), \
          $(b,device), $(b,tcad), $(b,idvg) or $(b,shutdown) — plus an optional \
          $(b,id) echoed in the response.  Overlapping $(b,idvg) sweep boxes \
          arriving in one batch share a single warm-started TCAD run, and \
          $(b,--cache) adds a persistent content-addressed store tier behind \
          the in-memory memo tables, so repeated queries — even across daemon \
          restarts — are answered without recomputing.  See the Serving \
          section of the README for the protocol and a quickstart." ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(const run $ log_term $ jobs_term $ obs_term $ socket_arg $ port_arg $ cache_arg)

let main =
  let doc = "Subthreshold device-scaling study (DAC 2007 reproduction)" in
  Cmd.group (Cmd.info "subscale" ~doc ~version:"1.0.0")
    [ run_cmd; check_cmd; audit_cmd; lint_cmd; device_cmd; tcad_cmd; sweep_cmd;
      liberty_cmd; export_cmd; verilog_cmd; serve_cmd ]

let () = exit (Cmd.eval main)
