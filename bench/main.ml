(* Benchmark + reproduction harness.

   Phase 1 prints every table and figure of the paper (the reproduction
   output: same rows/series the paper reports, ours interleaved with the
   published values where the paper prints numbers).

   Phase 2 times each experiment driver and the hot numerical kernels with
   Bechamel (one Test.make per table/figure, plus kernel benches), printing
   the OLS time-per-run estimates.

   The context is built once and every staged experiment closes over it;
   the device solves behind it live in the process-wide Exec.Memo tables,
   so re-running a driver inside Bechamel's sampling loop re-reads the
   cached characterizations instead of re-solving them (the stats table at
   the end shows the hit counts).  Kernel benches that exist to time a raw
   solve opt out with Exec.Memo.disabled.

   Flags: --jobs N sets the domain-pool width (default SUBSCALE_JOBS or
   the machine's recommended domain count); --smoke runs a fast subset
   (kernel benches only, short quota) for CI. *)

open Bechamel
open Toolkit

let print_reproduction ctx =
  print_endline "==============================================================";
  print_endline " Reproduction: all tables and figures";
  print_endline "==============================================================";
  List.iter
    (fun (o : Subscale.Experiments.output) ->
      Subscale.Report.Table.print o.Subscale.Experiments.table;
      print_newline ();
      List.iter print_string o.Subscale.Experiments.plots)
    (Subscale.Experiments.all ~measured_delay:true ctx);
  print_endline "==============================================================";
  print_endline " Extensions";
  print_endline "==============================================================";
  List.iter
    (fun (o : Subscale.Experiments.output) ->
      Subscale.Report.Table.print o.Subscale.Experiments.table;
      print_newline ())
    (Subscale.Experiments.all_extensions ctx)

(* --- Bechamel tests ------------------------------------------------- *)

let experiment_tests ctx =
  let ctx = Lazy.from_val ctx in
  List.map
    (fun (e : Subscale.Experiments.experiment) ->
      Test.make ~name:e.Subscale.Experiments.id
        (Staged.stage (fun () -> e.Subscale.Experiments.run ~measured:false ctx)))
    Subscale.Experiments.registry

let kernel_tests () =
  let phys = List.hd Subscale.Device.Params.paper_table2 in
  let pair = Subscale.Circuits.Inverter.pair_of_physical phys in
  let nfet = pair.Subscale.Circuits.Inverter.nfet in
  let sizing = Subscale.Circuits.Inverter.balanced_sizing () in
  let tcad_dev =
    Subscale.Tcad.Structure.build (Subscale.Device.Compact.to_tcad_description nfet)
  in
  [
    Test.make ~name:"kernel/compact-id"
      (Staged.stage (fun () -> Subscale.Device.Iv_model.id nfet ~vgs:0.25 ~vds:0.25));
    Test.make ~name:"kernel/vtc-spice-51pt"
      (Staged.stage (fun () ->
           Subscale.Analysis.Vtc.spice ~points:51 pair ~sizing ~vdd:0.25));
    Test.make ~name:"kernel/snm-spice"
      (Staged.stage (fun () ->
           Subscale.Analysis.Snm.inverter ~engine:`Spice pair ~sizing ~vdd:0.25));
    Test.make ~name:"kernel/transient-4stage"
      (Staged.stage (fun () ->
           Subscale.Analysis.Delay.measured ~steps:300 pair ~vdd:0.3));
    Test.make ~name:"kernel/vmin-search"
      (Staged.stage (fun () -> Subscale.Analysis.Energy.vmin ~sizing pair));
    Test.make ~name:"kernel/super-vth-node"
      (Staged.stage (fun () ->
           (* Time the raw doping search, not a memo hit. *)
           Subscale.Exec.Memo.disabled (fun () ->
               Subscale.Scaling.Super_vth.select_node
                 (Subscale.Scaling.Roadmap.find 45))));
    Test.make ~name:"kernel/tcad-equilibrium"
      (Staged.stage (fun () -> Subscale.Tcad.Gummel.equilibrium tcad_dev));
    Test.make ~name:"kernel/adder-4bit-dc"
      (Staged.stage
         (let adder = Subscale.Circuits.Adder.ripple_carry pair ~vdd:0.3 ~bits:4 in
          fun () -> Subscale.Circuits.Adder.compute adder ~a:9 ~b:6 ~cin:1));
    Test.make ~name:"kernel/variability-mc100"
      (Staged.stage (fun () ->
           Subscale.Analysis.Variability.chain_delay_distribution ~trials:100 pair
             ~vdd:0.25));
    Test.make ~name:"kernel/cell-characterize-inv"
      (Staged.stage (fun () ->
           Subscale.Sta.Cell_lib.characterize_cell pair ~vdd:0.3 Subscale.Sta.Cell_lib.Inv));
    Test.make ~name:"kernel/sta-adder8"
      (Staged.stage
         (let lib = Subscale.Sta.Cell_lib.characterize pair ~vdd:0.3 in
          let d = (Subscale.Sta.Design.adder ~bits:8).Subscale.Sta.Design.design in
          fun () -> Subscale.Sta.Engine.analyze lib d));
    Test.make ~name:"kernel/repeater-plan"
      (Staged.stage (fun () ->
           Subscale.Interconnect.Repeater.plan_route pair ~sizing ~vdd:1.2
             ~geometry:(Subscale.Interconnect.Wire.geometry_for_node 90) ~length:5e-3));
    Test.make ~name:"kernel/liberty-export"
      (Staged.stage
         (let lib = Subscale.Sta.Cell_lib.characterize pair ~vdd:0.3 in
          fun () -> Subscale.Sta.Liberty.to_string lib));
    Test.make ~name:"kernel/power-adder8"
      (Staged.stage
         (let lib = Subscale.Sta.Cell_lib.characterize pair ~vdd:0.3 in
          let d = (Subscale.Sta.Design.adder ~bits:8).Subscale.Sta.Design.design in
          fun () -> Subscale.Sta.Power.analyze lib d ~frequency:1e5));
  ]

(* The TCAD hot path, benched stage by stage: Poisson half-step, Gummel
   outer loop (equilibrium and a biased solve), Extract post-processing.
   These are the rows BENCH_tcad.json records — ROADMAP item 1 wants the
   trajectory of exactly this chain, so the names are stable. *)
let tcad_chain_tests () =
  let phys = List.hd Subscale.Device.Params.paper_table2 in
  let nfet = (Subscale.Circuits.Inverter.pair_of_physical phys).Subscale.Circuits.Inverter.nfet in
  let dev =
    Subscale.Tcad.Structure.build (Subscale.Device.Compact.to_tcad_description nfet)
  in
  let eq = Subscale.Exec.Memo.disabled (fun () -> Subscale.Tcad.Gummel.equilibrium dev) in
  let on_bias =
    { Subscale.Tcad.Poisson.source = 0.0; drain = 0.05; gate = 0.3; substrate = 0.0 }
  in
  (* Default 19-point resolution: the slope/vth extractors need several
     points inside their decade window, which 7 points can't guarantee. *)
  let sweep =
    Subscale.Exec.Memo.disabled (fun () -> Subscale.Tcad.Extract.id_vg dev ~vd:0.05)
  in
  [
    Test.make ~name:"tcad/poisson-zero-bias"
      (Staged.stage (fun () ->
           Subscale.Tcad.Poisson.solve dev ~biases:Subscale.Tcad.Poisson.zero_bias
             ~phi_n:eq.Subscale.Tcad.Gummel.phi_n ~phi_p:eq.Subscale.Tcad.Gummel.phi_p
             ~psi0:(Subscale.Tcad.Poisson.equilibrium_guess dev)));
    Test.make ~name:"tcad/gummel-equilibrium"
      (Staged.stage (fun () ->
           Subscale.Exec.Memo.disabled (fun () -> Subscale.Tcad.Gummel.equilibrium dev)));
    Test.make ~name:"tcad/gummel-bias-point"
      (Staged.stage (fun () ->
           Subscale.Exec.Memo.disabled (fun () ->
               Subscale.Tcad.Gummel.solve_at dev ~from:eq on_bias)));
    Test.make ~name:"tcad/extract-idvg-7pt"
      (Staged.stage (fun () ->
           Subscale.Exec.Memo.disabled (fun () ->
               Subscale.Tcad.Extract.id_vg ~points:7 dev ~vd:0.05)));
    Test.make ~name:"tcad/extract-slope-vth"
      (Staged.stage (fun () ->
           ( Subscale.Tcad.Extract.subthreshold_slope sweep,
             Subscale.Tcad.Extract.threshold_voltage sweep )));
    Test.make ~name:"tcad/extract-characterize-memo"
      (Staged.stage
         (* Warm the cache first so this times a memo hit; the miss cost is
            what tcad/extract-idvg-7pt and friends already measure. *)
         (let _warm = Subscale.Tcad.Extract.characterize_cached dev in
          fun () -> Subscale.Tcad.Extract.characterize_cached dev));
  ]

(* Ablation benches: the design-choice comparisons DESIGN.md calls out. *)
let ablation_tests () =
  let phys = List.hd Subscale.Device.Params.paper_table2 in
  let pair = Subscale.Circuits.Inverter.pair_of_physical phys in
  let sizing = Subscale.Circuits.Inverter.balanced_sizing () in
  [
    Test.make ~name:"ablation/snm-analytic"
      (Staged.stage (fun () ->
           Subscale.Analysis.Snm.inverter ~engine:`Analytic pair ~sizing ~vdd:0.25));
    Test.make ~name:"ablation/snm-spice"
      (Staged.stage (fun () ->
           Subscale.Analysis.Snm.inverter ~engine:`Spice pair ~sizing ~vdd:0.25));
    Test.make ~name:"ablation/energy-analytic"
      (Staged.stage (fun () -> Subscale.Analysis.Energy.analytic pair ~vdd:0.25));
    Test.make ~name:"ablation/energy-transient"
      (Staged.stage (fun () ->
           Subscale.Analysis.Energy.measured ~stages:10 ~steps:400 pair ~vdd:0.25));
  ]

let print_memo_stats () =
  print_endline "==============================================================";
  print_endline " Memo tables (hits / misses / entries)";
  print_endline "==============================================================";
  List.iter
    (fun (s : Subscale.Exec.Memo.stats) ->
      Printf.printf "%-28s %8d %8d %8d\n" s.Subscale.Exec.Memo.name
        s.Subscale.Exec.Memo.hits s.Subscale.Exec.Memo.misses s.Subscale.Exec.Memo.size)
    (Subscale.Exec.Memo.stats ())

(* Runs every test, prints the human table, and returns [(name, ns)] so a
   caller can persist a machine-readable trajectory (BENCH_tcad.json). *)
let run_benchmarks ~quota tests =
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second quota) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  print_endline "==============================================================";
  print_endline " Bechamel timings (monotonic clock, OLS time per run)";
  print_endline "==============================================================";
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (t :: _) -> t
            | Some [] | None -> Float.nan
          in
          let name = Test.Elt.name elt in
          if ns < 1e3 then Printf.printf "%-28s %10.1f ns/run\n%!" name ns
          else if ns < 1e6 then Printf.printf "%-28s %10.2f us/run\n%!" name (ns /. 1e3)
          else if ns < 1e9 then Printf.printf "%-28s %10.2f ms/run\n%!" name (ns /. 1e6)
          else Printf.printf "%-28s %10.2f s/run\n%!" name (ns /. 1e9);
          (name, ns))
        (Test.elements test))
    tests

(* BENCH_tcad.json: the recorded perf trajectory for the Poisson/Gummel/
   Extract chain plus memo-table hit/miss counts, in the subscale-bench/1
   schema owned by Report.Bench_json (the regression test and CI parse it
   with the same module, so writer and readers cannot drift). *)
let write_bench_json path ~quota results =
  let module B = Subscale.Report.Bench_json in
  let doc =
    {
      B.suite = "tcad";
      quota_s = quota;
      results =
        List.map
          (fun (name, ns) ->
            { B.bench = name; ns_per_run = (if Float.is_finite ns then Some ns else None) })
          results;
      memo =
        List.map
          (fun (s : Subscale.Exec.Memo.stats) ->
            {
              B.table = s.Subscale.Exec.Memo.name;
              hits = s.Subscale.Exec.Memo.hits;
              misses = s.Subscale.Exec.Memo.misses;
              size = s.Subscale.Exec.Memo.size;
            })
          (Subscale.Exec.Memo.stats ());
    }
  in
  let oc = open_out path in
  output_string oc (B.render doc);
  close_out oc;
  Printf.printf "\nwrote %s (%d result(s), %d memo table(s))\n" path
    (List.length doc.B.results) (List.length doc.B.memo)

let () =
  let smoke = ref false in
  let jobs = ref None in
  let bench_json = ref "BENCH_tcad.json" in
  Arg.parse
    [ ("--smoke", Arg.Set smoke, " fast CI subset: kernel benches only, short quota");
      ("--jobs", Arg.Int (fun n -> jobs := Some n), "N domain-pool width");
      ("--bench-json", Arg.Set_string bench_json,
       "FILE where to write the TCAD-chain trajectory (default BENCH_tcad.json; \
        empty string to skip)");
      ("--trace", Arg.String Subscale.Obs.set_trace_file,
       "FILE write a Chrome trace_event JSON of the run (SUBSCALE_TRACE=FILE equivalent)");
      ("--profile", Arg.Unit Subscale.Obs.enable_profile,
       " print a span summary and the metrics registry to stderr at exit") ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--smoke] [--jobs N] [--bench-json FILE] [--trace FILE] [--profile]";
  Subscale.Obs.init_from_env ();
  Option.iter Subscale.Exec.set_jobs !jobs;
  let t0 = Unix.gettimeofday () in
  let quota = if !smoke then 0.05 else 0.4 in
  let tcad_results =
    if !smoke then
      run_benchmarks ~quota (tcad_chain_tests () @ kernel_tests () @ ablation_tests ())
    else begin
      let ctx = Subscale.Experiments.make_context ~with_130:true () in
      print_reproduction ctx;
      run_benchmarks ~quota
        (tcad_chain_tests () @ experiment_tests ctx @ kernel_tests ()
        @ ablation_tests ())
    end
  in
  print_memo_stats ();
  if !bench_json <> "" then
    write_bench_json !bench_json ~quota
      (List.filter
         (fun (name, _) ->
           String.length name >= 5 && String.sub name 0 5 = "tcad/")
         tcad_results);
  Printf.printf "\ntotal bench wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
