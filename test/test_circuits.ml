open Subscale
module Inv = Circuits.Inverter
module Chain = Circuits.Chain
module Ring = Circuits.Ring
module Sram = Circuits.Sram
module Stdcell = Circuits.Stdcell

let u = Test_util.case
let slow = Test_util.slow_case

let phys90 = List.hd Device.Params.paper_table2
let pair = Inv.pair_of_physical phys90
let sizing = Inv.balanced_sizing ()

let vtc_at vdd points =
  let fx = Inv.dc pair ~vdd in
  let sys = Spice.Mna.build fx.Inv.circuit in
  let vin = Numerics.Vec.linspace 0.0 vdd points in
  let sweep = Spice.Dcsweep.run sys ~source:fx.Inv.vin_name ~values:vin in
  (vin, Spice.Dcsweep.probe sys sweep ~node:fx.Inv.out_node)

let inverter_tests =
  [
    u "balanced sizing uses the mobility ratio" (fun () ->
        Test_util.check_rel "wp/wn" ~rel:1e-9 Device.Compact.mobility_ratio
          (sizing.Inv.wp /. sizing.Inv.wn));
    u "gate capacitance combines both devices" (fun () ->
        let expected =
          (pair.Inv.nfet.Device.Compact.cg *. sizing.Inv.wn)
          +. (pair.Inv.pfet.Device.Compact.cg *. sizing.Inv.wp)
        in
        Test_util.check_rel "cg" ~rel:1e-12 expected (Inv.gate_capacitance pair sizing));
    u "load capacitance applies the calibrated load factor" (fun () ->
        Test_util.check_rel "cl" ~rel:1e-12
          (pair.Inv.nfet.Device.Compact.cal.Device.Params.load_factor
           *. Inv.gate_capacitance pair sizing)
          (Inv.load_capacitance pair sizing));
    u "VTC endpoints reach the rails at 250 mV" (fun () ->
        let _, vout = vtc_at 0.25 11 in
        Test_util.check_rel "out high" ~rel:0.02 0.25 vout.(0);
        Test_util.check_in_range "out low" ~lo:(-0.002) ~hi:0.01 vout.(10));
    u "balanced inverter switches near mid-rail" (fun () ->
        let vin, vout = vtc_at 0.25 51 in
        let diff = Array.mapi (fun i v -> v -. vin.(i)) vout in
        match Numerics.Interp.crossings vin diff 0.0 with
        | vm :: _ -> Test_util.check_in_range "VM" ~lo:0.10 ~hi:0.15 vm
        | [] -> Alcotest.fail "no switching threshold");
    u "chain fixture wires the requested number of stages" (fun () ->
        let fx = Inv.chain_fixture ~stages:5 pair ~vdd:0.25 ~input:(Spice.Netlist.Dc 0.0) in
        Alcotest.(check int) "nodes" 6 (Array.length fx.Inv.stage_nodes);
        Alcotest.(check int) "caps" 5
          (List.length (Spice.Netlist.capacitors fx.Inv.circuit)));
    u "zero stages are rejected" (fun () ->
        Alcotest.check_raises "stages"
          (Invalid_argument "Inverter.chain_fixture: need at least one stage") (fun () ->
            ignore (Inv.chain_fixture ~stages:0 pair ~vdd:0.25 ~input:(Spice.Netlist.Dc 0.0))));
  ]

let chain_tests =
  [
    u "estimated stage delay falls with supply" (fun () ->
        let d1 = Chain.estimated_stage_delay pair sizing ~vdd:0.25 in
        let d2 = Chain.estimated_stage_delay pair sizing ~vdd:0.4 in
        Alcotest.(check bool) "faster at 0.4V" true (d2 < d1));
    u "built chain exposes a positive period" (fun () ->
        let chain = Chain.build ~stages:10 pair ~vdd:0.3 in
        Alcotest.(check bool) "period" true (chain.Chain.period > 0.0);
        Alcotest.(check int) "stages" 10 chain.Chain.stages);
    u "non-positive vdd is rejected" (fun () ->
        Alcotest.check_raises "vdd" (Invalid_argument "Chain.build: vdd must be positive")
          (fun () -> ignore (Chain.build pair ~vdd:0.0)));
  ]

let ring_tests =
  [
    u "even stage counts are rejected" (fun () ->
        Alcotest.check_raises "even"
          (Invalid_argument "Ring.build: stage count must be odd and >= 3") (fun () ->
            ignore (Ring.build ~stages:4 pair ~vdd:0.3)));
    u "kick perturbs the metastable point" (fun () ->
        let ring = Ring.build ~stages:3 pair ~vdd:0.3 in
        let sys = Spice.Mna.build ring.Ring.circuit in
        let x0 = Spice.Dcop.solve sys in
        let xk = Ring.kick ring sys in
        Alcotest.(check bool) "moved" true
          (Numerics.Vec.max_abs_diff x0 xk > 0.01));
    slow "a 3-stage ring oscillates with a plausible period" (fun () ->
        let vdd = 0.3 in
        let ring = Ring.build ~stages:3 pair ~vdd in
        let sys = Spice.Mna.build ring.Ring.circuit in
        let x0 = Ring.kick ring sys in
        let tp = Chain.estimated_stage_delay pair sizing ~vdd in
        let result =
          Spice.Transient.run ~x0 sys ~probes:[ Spice.Transient.Node ring.Ring.stage_nodes.(0) ]
            ~t_stop:(40.0 *. tp) ~steps:1500
        in
        match Ring.oscillation_period ring sys result with
        | Some period ->
          (* Ideal period is 2 N tp; allow a wide band for waveform shape. *)
          Test_util.check_in_range "period" ~lo:(1.5 *. tp) ~hi:(20.0 *. tp) period
        | None -> Alcotest.fail "ring did not complete two cycles");
  ]

let sram_tests =
  [
    u "hold butterfly has a healthy SNM" (fun () ->
        let cell = Sram.make pair ~vdd:0.3 in
        let vin, v1, v2 = Sram.butterfly ~points:41 cell Sram.Hold in
        let snm = Analysis.Snm.butterfly_snm ~vin ~v1 ~v2 in
        Test_util.check_in_range "hold snm" ~lo:0.03 ~hi:0.15 snm);
    u "read access degrades the SNM" (fun () ->
        let cell = Sram.make pair ~vdd:0.3 in
        let vin, h1, h2 = Sram.butterfly ~points:41 cell Sram.Hold in
        let _, r1, r2 = Sram.butterfly ~points:41 cell Sram.Read in
        let hold = Analysis.Snm.butterfly_snm ~vin ~v1:h1 ~v2:h2 in
        let read = Analysis.Snm.butterfly_snm ~vin ~v1:r1 ~v2:r2 in
        Alcotest.(check bool) "read < hold" true (read < hold));
    u "a stronger cell ratio improves the read margin" (fun () ->
        let weak = Sram.make ~beta:0.8 pair ~vdd:0.3 in
        let strong = Sram.make ~beta:3.0 pair ~vdd:0.3 in
        let snm_of cell =
          let vin, v1, v2 = Sram.butterfly ~points:41 cell Sram.Read in
          Analysis.Snm.butterfly_snm ~vin ~v1 ~v2
        in
        Alcotest.(check bool) "beta helps" true (snm_of strong > snm_of weak));
    u "read config pulls the low storage level up" (fun () ->
        let cell = Sram.make pair ~vdd:0.3 in
        (* The half-cell curves at the top input, 0.3 V. *)
        let at_top config =
          let _, vtc, _ = Sram.butterfly ~points:3 cell config in
          vtc.(2)
        in
        Alcotest.(check bool) "read bump" true (at_top Sram.Read > at_top Sram.Hold));
    u "invalid beta is rejected" (fun () ->
        Alcotest.check_raises "beta" (Invalid_argument "Sram.make: beta must be positive")
          (fun () -> ignore (Sram.make ~beta:0.0 pair ~vdd:0.3)));
  ]

(* DC output voltage of a gate fixture for the given input levels. *)
let output_at (fx : Stdcell.fixture) ~a ~b =
  let sys = Spice.Mna.build fx.Stdcell.circuit in
  let x = Spice.Dcop.solve ~overrides:[ (fx.Stdcell.a_name, a); (fx.Stdcell.b_name, b) ] sys in
  Spice.Mna.voltage sys x fx.Stdcell.out_node

let stdcell_tests =
  [
    u "nand2 truth table at 250 mV" (fun () ->
        let fx = Stdcell.nand2 pair ~vdd:0.25 in
        let hi = 0.25 and lo = 0.0 in
        let out a b = output_at fx ~a ~b in
        Test_util.check_in_range "00 -> 1" ~lo:0.22 ~hi:0.26 (out lo lo);
        Test_util.check_in_range "01 -> 1" ~lo:0.20 ~hi:0.26 (out lo hi);
        Test_util.check_in_range "10 -> 1" ~lo:0.20 ~hi:0.26 (out hi lo);
        Test_util.check_in_range "11 -> 0" ~lo:(-0.01) ~hi:0.05 (out hi hi));
    u "nor2 truth table at 250 mV" (fun () ->
        let fx = Stdcell.nor2 pair ~vdd:0.25 in
        let hi = 0.25 and lo = 0.0 in
        let out a b = output_at fx ~a ~b in
        Test_util.check_in_range "00 -> 1" ~lo:0.20 ~hi:0.26 (out lo lo);
        Test_util.check_in_range "01 -> 0" ~lo:(-0.01) ~hi:0.05 (out lo hi);
        Test_util.check_in_range "10 -> 0" ~lo:(-0.01) ~hi:0.05 (out hi lo);
        Test_util.check_in_range "11 -> 0" ~lo:(-0.01) ~hi:0.05 (out hi hi));
    u "stack effect: nand2 one-off leakage is below a single device's" (fun () ->
        (* With both inputs low, the series NFET stack leaks less than a
           single off transistor of the same width would — a well-known
           sub-Vth effect the model reproduces via source-node self-bias. *)
        let fx = Stdcell.nand2 pair ~vdd:0.25 in
        let sys = Spice.Mna.build fx.Stdcell.circuit in
        let x = Spice.Dcop.solve ~overrides:[ ("VA", 0.0); ("VB", 0.0) ] sys in
        let i_stack = -.Spice.Mna.source_current sys x "VDD" in
        let single = 2e-6 *. Device.Iv_model.ioff pair.Inv.nfet ~vdd:0.25 in
        Alcotest.(check bool) "stack leaks less" true (i_stack < single));
  ]

let suite =
  [
    ("circuits.inverter", inverter_tests);
    ("circuits.chain", chain_tests);
    ("circuits.ring", ring_tests);
    ("circuits.sram", sram_tests);
    ("circuits.stdcell", stdcell_tests);
  ]
