open Subscale
module Wire = Interconnect.Wire
module Elmore = Interconnect.Elmore
module Repeater = Interconnect.Repeater
module Lut = Sta.Lut
module Cell_lib = Sta.Cell_lib
module Design = Sta.Design
module Engine = Sta.Engine
module Yield = Analysis.Yield

let u = Test_util.case
let slow = Test_util.slow_case
let prop = Test_util.prop

let phys90 = List.hd Device.Params.paper_table2
let pair = Circuits.Inverter.pair_of_physical phys90
let sizing = Circuits.Inverter.balanced_sizing ()

(* One shared 250 mV library for the STA tests. *)
let lib = lazy (Cell_lib.characterize pair ~vdd:0.25)

let wire_tests =
  [
    u "90 nm wire resistance is a few ohm/um" (fun () ->
        let g = Wire.geometry_for_node 90 in
        Test_util.check_in_range "r" ~lo:0.5e6 ~hi:5e6 (Wire.resistance_per_length g));
    u "wire capacitance is ~0.1-0.3 fF/um and node-insensitive" (fun () ->
        let c90 = Wire.capacitance_per_length (Wire.geometry_for_node 90) in
        let c32 = Wire.capacitance_per_length (Wire.geometry_for_node 32) in
        Test_util.check_in_range "c90" ~lo:0.05e-9 ~hi:0.5e-9 c90;
        Test_util.check_rel "same c" ~rel:1e-9 c90 c32);
    u "rc per length^2 worsens with scaling" (fun () ->
        Alcotest.(check bool) "worsens" true
          (Wire.rc_per_length2 (Wire.geometry_for_node 32)
           > 3.0 *. Wire.rc_per_length2 (Wire.geometry_for_node 90)));
    u "size effect raises resistivity above bulk" (fun () ->
        let g = Wire.geometry_for_node 32 in
        Alcotest.(check bool) "rho_eff" true (Wire.resistivity g > 17.2e-9));
    prop "distributed delay is quadratic in length" (QCheck2.Gen.float_range 1e-4 1e-2)
      (fun l ->
        let d1 = Elmore.distributed_delay ~r_per_l:1e6 ~c_per_l:1e-10 ~length:l in
        let d2 = Elmore.distributed_delay ~r_per_l:1e6 ~c_per_l:1e-10 ~length:(2.0 *. l) in
        Float.abs ((d2 /. d1) -. 4.0) < 1e-9);
    u "pi ladder converges to the distributed-line delay" (fun () ->
        (* Drive a ladder from an ideal source through R_drv and compare the
           far-end 50% crossing against Elmore. *)
        let r_total = 1e4 and c_total = 1e-12 and r_drv = 1e3 in
        let delay_with segments =
          let c = Spice.Netlist.create () in
          let src = Spice.Netlist.node c "src" in
          let inp = Spice.Netlist.node c "in" in
          Spice.Netlist.add c
            (Spice.Netlist.Voltage_source
               { name = "V"; plus = src; minus = Spice.Netlist.ground;
                 wave = Spice.Netlist.Pwl [ (0.0, 0.0); (1e-12, 1.0) ] });
          Spice.Netlist.add c (Spice.Netlist.Resistor { plus = src; minus = inp; ohms = r_drv });
          (* N-segment pi ladder: R/N per segment, C/2N at each end of it. *)
          let cap node farads =
            Spice.Netlist.add c
              (Spice.Netlist.Capacitor { plus = node; minus = Spice.Netlist.ground; farads })
          in
          let c_half = c_total /. (2.0 *. float_of_int segments) in
          let far = ref inp in
          for _ = 1 to segments do
            let next = Spice.Netlist.fresh_node c in
            cap !far c_half;
            Spice.Netlist.add c
              (Spice.Netlist.Resistor
                 { plus = !far; minus = next; ohms = r_total /. float_of_int segments });
            cap next c_half;
            far := next
          done;
          let far = !far in
          let sys = Spice.Mna.build c in
          let result = Spice.Transient.run sys ~t_stop:2e-7 ~steps:800 in
          match
            Spice.Waveform.first_crossing ~times:result.Spice.Transient.times
              ~values:(Spice.Transient.voltage_of result far) ~level:0.5
              Spice.Waveform.Rising
          with
          | Some t -> t
          | None -> Alcotest.fail "ladder did not charge"
        in
        let elmore =
          Elmore.driven_wire_delay ~r_per_l:r_total ~c_per_l:c_total ~length:1.0
            ~r_driver:r_drv ~c_load:0.0
        in
        let d10 = delay_with 10 in
        Test_util.check_rel "elmore vs spice" ~rel:0.25 elmore d10;
        (* Refinement: 10 segments closer to 20-segment answer than 1 segment. *)
        let d1 = delay_with 1 and d20 = delay_with 20 in
        Alcotest.(check bool) "converging" true
          (Float.abs (d10 -. d20) < Float.abs (d1 -. d20)));
    u "repeater planning beats the unrepeated wire on long routes" (fun () ->
        let geometry = Wire.geometry_for_node 90 in
        let plan =
          Repeater.plan_route pair ~sizing ~vdd:1.2 ~geometry ~length:5e-3
        in
        Alcotest.(check bool) "multiple segments" true (plan.Repeater.segments > 1);
        Alcotest.(check bool) "faster" true
          (plan.Repeater.total_delay < plan.Repeater.unrepeated_delay));
    u "sub-Vth optimal segments are orders longer than nominal" (fun () ->
        let geometry = Wire.geometry_for_node 90 in
        let nom = Repeater.optimal_segment_length pair ~sizing ~vdd:1.2 ~geometry in
        let sub = Repeater.optimal_segment_length pair ~sizing ~vdd:0.25 ~geometry in
        Alcotest.(check bool) "orders" true (sub > 20.0 *. nom));
  ]

let lut_tests =
  [
    u "exact at grid points, interpolated between" (fun () ->
        let t =
          Lut.create ~slews:[| 1.0; 2.0 |] ~loads:[| 10.0; 20.0 |]
            ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
        in
        Test_util.check_float "corner" 1.0 (Lut.eval t ~slew:1.0 ~load:10.0);
        Test_util.check_float "centre" 2.5 (Lut.eval t ~slew:1.5 ~load:15.0));
    u "clamps outside the characterized grid" (fun () ->
        let t =
          Lut.create ~slews:[| 1.0; 2.0 |] ~loads:[| 10.0; 20.0 |]
            ~values:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
        in
        Test_util.check_float "below" 1.0 (Lut.eval t ~slew:0.1 ~load:1.0);
        Test_util.check_float "above" 4.0 (Lut.eval t ~slew:9.0 ~load:99.0));
    u "shape mismatches are rejected" (fun () ->
        Alcotest.check_raises "rows" (Invalid_argument "Lut.create: row count mismatch")
          (fun () ->
            ignore (Lut.create ~slews:[| 1.0; 2.0 |] ~loads:[| 1.0 |] ~values:[| [| 1.0 |] |])));
    u "map2 combines pointwise" (fun () ->
        let mk v = Lut.create ~slews:[| 1.0 |] ~loads:[| 1.0 |] ~values:[| [| v |] |] in
        Test_util.check_float "max" 5.0
          (Lut.eval (Lut.map2 Float.max (mk 2.0) (mk 5.0)) ~slew:1.0 ~load:1.0));
  ]

let cell_lib_tests =
  [
    slow "delays grow with load and with input slew" (fun () ->
        let inv = Cell_lib.find (Lazy.force lib) Cell_lib.Inv in
        let arc = inv.Cell_lib.arcs.(0) in
        let slews = Lut.slews arc.Cell_lib.delay_output_fall in
        let loads = Lut.loads arc.Cell_lib.delay_output_fall in
        let d s l = Lut.eval arc.Cell_lib.delay_output_fall ~slew:s ~load:l in
        Alcotest.(check bool) "load" true (d slews.(0) loads.(2) > d slews.(0) loads.(0));
        Alcotest.(check bool) "slew" true (d slews.(2) loads.(0) > d slews.(0) loads.(0)));
    slow "output slew tracks the load" (fun () ->
        let inv = Cell_lib.find (Lazy.force lib) Cell_lib.Inv in
        let arc = inv.Cell_lib.arcs.(0) in
        let slews = Lut.slews arc.Cell_lib.slew_output_fall in
        let loads = Lut.loads arc.Cell_lib.slew_output_fall in
        let s l = Lut.eval arc.Cell_lib.slew_output_fall ~slew:slews.(0) ~load:l in
        Alcotest.(check bool) "slew grows" true (s loads.(2) > s loads.(0)));
    slow "nand2 leakage shows the stack effect" (fun () ->
        let nand = Cell_lib.find (Lazy.force lib) Cell_lib.Nand2 in
        let leak state =
          List.assoc state
            (List.map (fun (s, i) -> (Array.to_list s, i)) nand.Cell_lib.leakage)
        in
        Alcotest.(check bool) "stacked off < single off" true
          (leak [ false; false ] < leak [ false; true ]));
    slow "nand2 arcs exist for both pins" (fun () ->
        let nand = Cell_lib.find (Lazy.force lib) Cell_lib.Nand2 in
        Alcotest.(check int) "two arcs" 2 (Array.length nand.Cell_lib.arcs));
  ]

let design_tests =
  [
    u "topological order respects dependencies" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let out = Design.inverter_chain d ~length:5 a in
        Design.mark_output d out;
        let order = Design.topological_gates d in
        Alcotest.(check int) "gates" 5 (List.length order);
        (* each gate's input must be produced before it *)
        let seen = Hashtbl.create 8 in
        Hashtbl.replace seen a ();
        List.iter
          (fun (g : Design.gate) ->
            Array.iter
              (fun i ->
                if not (Hashtbl.mem seen i) then Alcotest.fail "order violation")
              g.Design.inputs;
            Hashtbl.replace seen g.Design.output ())
          order);
    u "combinational loops are detected" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d and b = Design.fresh_net d in
        Design.add_gate d Cell_lib.Inv ~inputs:[| a |] ~output:b;
        Design.add_gate d Cell_lib.Inv ~inputs:[| b |] ~output:a;
        match Design.topological_gates d with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected loop detection");
    u "double driving a net is rejected" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d and b = Design.fresh_net d in
        Design.add_gate d Cell_lib.Inv ~inputs:[| a |] ~output:b;
        Alcotest.check_raises "driver"
          (Invalid_argument "Design.add_gate: net 0 already driven") (fun () ->
            Design.add_gate d Cell_lib.Inv ~inputs:[| b |] ~output:a;
            Design.add_gate d Cell_lib.Inv ~inputs:[| b |] ~output:a));
    u "fanout counting" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let o1 = Design.fresh_net d and o2 = Design.fresh_net d in
        Design.add_gate d Cell_lib.Inv ~inputs:[| a |] ~output:o1;
        Design.add_gate d Cell_lib.Inv ~inputs:[| a |] ~output:o2;
        Alcotest.(check int) "fanout 2" 2 (Design.fanout_count d a));
    u "ripple-carry adder generator wires 9 nands per bit" (fun () ->
        let adder = Design.adder ~bits:4 in
        Alcotest.(check int) "sum bits" 4 (Array.length adder.Design.sums);
        Alcotest.(check int) "gates" 36 (List.length (Design.gates adder.Design.design)));
  ]

let engine_tests =
  [
    slow "a longer chain has a later arrival" (fun () ->
        let run length =
          let d = Design.create () in
          let a = Design.fresh_net d in
          Design.mark_input d a;
          let out = Design.inverter_chain d ~length a in
          Design.mark_output d out;
          (Engine.analyze (Lazy.force lib) d).Engine.critical_time
        in
        Alcotest.(check bool) "monotone" true (run 8 > run 4 && run 4 > run 2));
    slow "critical path length equals the chain depth" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let out = Design.inverter_chain d ~length:6 a in
        Design.mark_output d out;
        let r = Engine.analyze (Lazy.force lib) d in
        Alcotest.(check int) "depth" 6 (List.length r.Engine.critical_path));
    slow "STA is conservative but within 2.5x of SPICE on the adder" (fun () ->
        let bits = 4 in
        let d = (Design.adder ~bits).Design.design in
        let sta = (Engine.analyze (Lazy.force lib) d).Engine.critical_time in
        let spice = Circuits.Adder.carry_delay ~steps:500 pair ~vdd:0.25 ~bits in
        Test_util.check_in_range "ratio" ~lo:1.0 ~hi:2.5 (sta /. spice));
    slow "wire capacitance slows arrivals" (fun () ->
        let build () =
          let d = Design.create () in
          let a = Design.fresh_net d in
          Design.mark_input d a;
          let out = Design.inverter_chain d ~length:4 a in
          Design.mark_output d out;
          d
        in
        let bare = (Engine.analyze (Lazy.force lib) (build ())).Engine.critical_time in
        let inv = Cell_lib.find (Lazy.force lib) Cell_lib.Inv in
        let loaded =
          (Engine.analyze ~wire_cap:(fun _ -> 3.0 *. inv.Cell_lib.input_cap)
             (Lazy.force lib) (build ()))
            .Engine.critical_time
        in
        Alcotest.(check bool) "wires hurt" true (loaded > 1.3 *. bare));
    u "designs without outputs are rejected" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        match Engine.analyze (Lazy.force lib) d with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected failure");
  ]

let yield_tests =
  [
    u "erf and normal_cdf sanity" (fun () ->
        Test_util.check_rel "erf(1)" ~rel:1e-4 0.8427 (Numerics.Stats.erf 1.0);
        Test_util.check_float ~tol:1e-7 "cdf(0)" 0.5 (Numerics.Stats.normal_cdf 0.0);
        Test_util.check_rel "3-sigma" ~rel:1e-2 0.00135
          (Numerics.Stats.normal_cdf ~mean:0.0 ~sigma:1.0 (-3.0)));
    u "array yield composes per-cell failures" (fun () ->
        Test_util.check_rel "yield" ~rel:1e-9 (exp (1024.0 *. log1p (-1e-4)))
          (Yield.array_yield ~p_cell_fail:1e-4 ~bits:1024));
    slow "yield improves with supply" (fun () ->
        let y vdd = (Yield.assess ~trials:300 pair ~vdd).Yield.yield_1kb in
        Alcotest.(check bool) "monotone" true (y 0.3 >= y 0.2));
    slow "min vdd for yield is bracketed and consistent" (fun () ->
        let vmin = Yield.min_vdd_for_yield ~trials:300 pair ~bits:1024 ~target:0.9 in
        Test_util.check_in_range "vmin" ~lo:0.10 ~hi:0.45 vmin;
        let a = Yield.assess ~trials:300 pair ~vdd:(vmin +. 0.03) in
        Alcotest.(check bool) "above target above vmin" true
          (Yield.array_yield ~p_cell_fail:a.Yield.p_cell_fail ~bits:1024 > 0.85));
  ]

let projection_tests =
  [
    u "projection continues the trends" (fun () ->
        match Scaling.Roadmap.project ~generations:2 with
        | [ n22; n16 ] ->
          Alcotest.(check int) "22" 22 n22.Scaling.Roadmap.nm;
          Alcotest.(check int) "16" 16 n16.Scaling.Roadmap.nm;
          Test_util.check_rel "lpoly" ~rel:1e-9 (0.7 *. 22e-9) n22.Scaling.Roadmap.lpoly;
          Test_util.check_rel "tox chain" ~rel:1e-9 (0.81 *. 1.53e-9)
            n16.Scaling.Roadmap.tox
        | _ -> Alcotest.fail "expected two nodes");
    u "zero generations is empty" (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (Scaling.Roadmap.project ~generations:0)));
    slow "the SS gap persists at 22 nm" (fun () ->
        match Scaling.Roadmap.project ~generations:1 with
        | [ n22 ] ->
          let sup = Scaling.Super_vth.select_node n22 in
          let sub = Scaling.Sub_vth.select_node n22 in
          let ss p = p.Circuits.Inverter.nfet.Device.Compact.ss in
          Alcotest.(check bool) "gap" true
            (ss sup.Scaling.Super_vth.pair > 1.15 *. ss sub.Scaling.Sub_vth.pair)
        | _ -> Alcotest.fail "expected one node");
  ]

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let liberty_tests =
  [
    slow "liberty export contains the standard structure" (fun () ->
        let text = Sta.Liberty.to_string (Lazy.force lib) in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains text needle))
          [ "library (subscale)"; "lu_table_template"; "cell (NAND2)"; "pin (Y)";
            "function : \"!(A & B)\""; "timing_sense : negative_unate"; "cell_rise";
            "fall_transition"; "leakage_power"; "when : \"!A & !B\"" ]);
    slow "liberty numbers are in exported units (ns)" (fun () ->
        let text = Sta.Liberty.to_string (Lazy.force lib) in
        (* 250 mV delays are tens to hundreds of ns: values must be > 1
           in ns units somewhere, never in raw seconds (1e-8 form). *)
        Alcotest.(check bool) "no raw seconds" true (not (contains text "e-08"));
        Alcotest.(check bool) "braces balance" true
          (let depth = ref 0 and ok = ref true in
           String.iter
             (fun c ->
               if c = '{' then incr depth
               else if c = '}' then begin
                 decr depth;
                 if !depth < 0 then ok := false
               end)
             text;
           !ok && !depth = 0));
    u "cell functions" (fun () ->
        Alcotest.(check string) "inv" "!A" (Sta.Liberty.cell_function Sta.Cell_lib.Inv);
        Alcotest.(check string) "nor" "!(A | B)" (Sta.Liberty.cell_function Sta.Cell_lib.Nor2));
  ]

let export_tests =
  [
    u "waveform syntax" (fun () ->
        Alcotest.(check string) "dc" "DC 1.2" (Spice.Export.waveform (Spice.Netlist.Dc 1.2));
        Alcotest.(check bool) "pulse" true
          (contains
             (Spice.Export.waveform
                (Spice.Netlist.Pulse
                   { low = 0.0; high = 1.0; delay = 1e-9; rise = 1e-10; fall = 1e-10;
                     width = 5e-9; period = 10e-9 }))
             "PULSE(");
        Alcotest.(check string) "pwl" "PWL(0 0 1e-09 1)"
          (Spice.Export.waveform (Spice.Netlist.Pwl [ (0.0, 0.0); (1e-9, 1.0) ])));
    u "inverter deck has models, devices and .end" (fun () ->
        let fx = Circuits.Inverter.dc pair ~vdd:0.25 in
        let text = Spice.Export.deck (fx.Circuits.Inverter.circuit) in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains text needle))
          [ ".model nfet_90nm"; ".model pfet_90nm"; "NMOS"; "PMOS"; "LEVEL=1"; "MN1";
            "MP1"; "VDD vdd 0 DC"; ".end" ]);
    u "distinct devices get distinct model cards" (fun () ->
        let phys32 = List.nth Device.Params.paper_table2 3 in
        let pair32 = Circuits.Inverter.pair_of_physical phys32 in
        let c = Spice.Netlist.create () in
        let n1 = Spice.Netlist.node c "n1" in
        Spice.Netlist.add c
          (Spice.Netlist.Nmos
             { dev = pair.Circuits.Inverter.nfet; width = 1e-6; drain = n1; gate = n1;
               source = 0 });
        Spice.Netlist.add c
          (Spice.Netlist.Nmos
             { dev = pair32.Circuits.Inverter.nfet; width = 1e-6; drain = n1; gate = n1;
               source = 0 });
        let text = Spice.Export.deck c in
        Alcotest.(check bool) "90nm model" true (contains text "nfet_90nm");
        Alcotest.(check bool) "32nm model" true (contains text "nfet_32nm"));
  ]

let power_tests =
  [
    u "signal probabilities follow the gate functions" (fun () ->
        let d = Sta.Design.create () in
        let a = Sta.Design.fresh_net d and b = Sta.Design.fresh_net d in
        Sta.Design.mark_input d a;
        Sta.Design.mark_input d b;
        let y = Sta.Design.fresh_net d in
        Sta.Design.add_gate d Sta.Cell_lib.Nand2 ~inputs:[| a; b |] ~output:y;
        Sta.Design.mark_output d y;
        let stats = Sta.Power.propagate_probabilities d in
        Test_util.check_rel "nand p" ~rel:1e-9 0.75 stats.(y).Sta.Power.probability;
        Test_util.check_rel "activity" ~rel:1e-9 0.375 stats.(y).Sta.Power.activity);
    u "biased inputs shift the probabilities" (fun () ->
        let d = Sta.Design.create () in
        let a = Sta.Design.fresh_net d in
        Sta.Design.mark_input d a;
        let y = Sta.Design.fresh_net d in
        Sta.Design.add_gate d Sta.Cell_lib.Inv ~inputs:[| a |] ~output:y;
        Sta.Design.mark_output d y;
        let stats = Sta.Power.propagate_probabilities ~input_probability:(fun _ -> 0.9) d in
        Test_util.check_rel "inv" ~rel:1e-9 0.1 stats.(y).Sta.Power.probability);
    slow "chain power scales with frequency and has static floor" (fun () ->
        let build () =
          let d = Sta.Design.create () in
          let a = Sta.Design.fresh_net d in
          Sta.Design.mark_input d a;
          let out = Sta.Design.inverter_chain d ~length:10 a in
          Sta.Design.mark_output d out;
          d
        in
        let p f = Sta.Power.analyze (Lazy.force lib) (build ()) ~frequency:f in
        let p0 = p 0.0 and p1 = p 1e5 and p2 = p 2e5 in
        Test_util.check_float ~tol:1e-18 "no dynamic at DC" 0.0 p0.Sta.Power.dynamic_power;
        Alcotest.(check bool) "leakage floor" true (p0.Sta.Power.leakage_power > 0.0);
        Test_util.check_rel "linear in f" ~rel:1e-9 (2.0 *. p1.Sta.Power.dynamic_power)
          p2.Sta.Power.dynamic_power);
  ]

let corner_tests =
  [
    u "TT is the identity corner" (fun () ->
        let nfet = pair.Circuits.Inverter.nfet in
        let tt = Device.Corners.apply Device.Corners.Tt nfet in
        Test_util.check_rel "id" ~rel:1e-12
          (Device.Iv_model.ion nfet ~vdd:0.25) (Device.Iv_model.ion tt ~vdd:0.25));
    u "FF is faster and leakier; SS slower and tighter" (fun () ->
        let nfet = pair.Circuits.Inverter.nfet in
        let ion c = Device.Iv_model.ion (Device.Corners.apply c nfet) ~vdd:0.25 in
        let ioff c = Device.Iv_model.ioff (Device.Corners.apply c nfet) ~vdd:0.25 in
        Alcotest.(check bool) "ff fast" true (ion Device.Corners.Ff > ion Device.Corners.Tt);
        Alcotest.(check bool) "ss slow" true (ion Device.Corners.Ss < ion Device.Corners.Tt);
        Alcotest.(check bool) "ff leaky" true (ioff Device.Corners.Ff > ioff Device.Corners.Ss));
    u "mixed corners skew N against P" (fun () ->
        Test_util.check_float "fs nfet" (-0.030)
          (Device.Corners.vth_shift Device.Corners.Fs Device.Params.Nfet);
        Test_util.check_float "fs pfet" 0.030
          (Device.Corners.vth_shift Device.Corners.Fs Device.Params.Pfet));
    u "corner delay spread is exponential in the shift" (fun () ->
        let at c =
          let p = { Circuits.Inverter.nfet = Device.Corners.apply c pair.Circuits.Inverter.nfet;
                    pfet = Device.Corners.apply c pair.Circuits.Inverter.pfet } in
          Analysis.Delay.eq5 p ~sizing ~vdd:0.25
        in
        let spread = at Device.Corners.Ss /. at Device.Corners.Ff in
        Test_util.check_in_range "spread" ~lo:2.0 ~hi:20.0 spread);
  ]

let pareto_tests =
  [
    u "curve is finite and ordered in vdd" (fun () ->
        let c = Analysis.Pareto.curve ~points:10 pair ~lo:0.15 ~hi:0.4 in
        Alcotest.(check int) "points" 10 (List.length c);
        List.iter (fun p -> Alcotest.(check bool) "pos" true
          (p.Analysis.Pareto.energy > 0.0 && p.Analysis.Pareto.delay > 0.0)) c);
    u "pareto front is non-dominated and delay-sorted" (fun () ->
        let c = Analysis.Pareto.curve ~points:25 pair ~lo:0.12 ~hi:0.45 in
        let front = Analysis.Pareto.pareto_front c in
        let rec check = function
          | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "sorted" true (a.Analysis.Pareto.delay <= b.Analysis.Pareto.delay);
            Alcotest.(check bool) "non-dominated" true
              (b.Analysis.Pareto.energy < a.Analysis.Pareto.energy);
            check rest
          | _ -> ()
        in
        check front);
    u "min edp lies on the curve" (fun () ->
        let c = Analysis.Pareto.curve ~points:25 pair ~lo:0.12 ~hi:0.45 in
        let edp = Analysis.Pareto.min_edp c in
        Alcotest.(check bool) "member" true (List.mem edp c));
    u "iso-delay energy is infeasible below the fastest point" (fun () ->
        let c = Analysis.Pareto.curve ~points:25 pair ~lo:0.15 ~hi:0.3 in
        Alcotest.(check bool) "none" true
          (Analysis.Pareto.energy_at_delay c ~delay:1e-12 = None));
  ]

let verilog_tests =
  [
    u "writer emits ports, wires and instances" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let out = Design.inverter_chain d ~length:2 a in
        Design.mark_output d out;
        let text = Sta.Verilog.to_verilog d in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains text needle))
          [ "module subscale_design"; "input n0;"; "output n2;"; "wire n1;";
            "INV g0 (.A(n0), .Y(n1));"; "endmodule" ]);
    u "round trip preserves the adder's structure and timing" (fun () ->
        let original = (Design.adder ~bits:3).Design.design in
        let parsed, _ = Sta.Verilog.of_verilog (Sta.Verilog.to_verilog original) in
        Alcotest.(check int) "gates" (List.length (Design.gates original))
          (List.length (Design.gates parsed));
        Alcotest.(check int) "inputs" 7 (List.length (Design.primary_inputs parsed));
        Alcotest.(check int) "outputs" 4 (List.length (Design.primary_outputs parsed));
        let t1 = (Engine.analyze (Lazy.force lib) original).Engine.critical_time in
        let t2 = (Engine.analyze (Lazy.force lib) parsed).Engine.critical_time in
        Test_util.check_rel "same arrival" ~rel:1e-9 t1 t2);
    u "parser accepts comments and multi-name declarations" (fun () ->
        let src =
          "// a comment\nmodule m (a, b, y);\n  input a, b; // more\n  output y;\n\
           \  NAND2 u1 (.A(a), .B(b), .Y(y));\nendmodule\n"
        in
        let d, bindings = Sta.Verilog.of_verilog src in
        Alcotest.(check int) "one gate" 1 (List.length (Design.gates d));
        Alcotest.(check int) "three nets" 3 (List.length bindings));
    u "parser rejects unknown cells" (fun () ->
        match Sta.Verilog.of_verilog "module m (a); input a; XOR2 u (.A(a)); endmodule" with
        | exception Sta.Verilog.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    u "parser rejects missing pins" (fun () ->
        match
          Sta.Verilog.of_verilog
            "module m (a, y); input a; output y; INV u (.A(a)); endmodule"
        with
        | exception Sta.Verilog.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
  ]

let mesh_convergence_tests =
  [
    slow "TCAD SS converges under mesh refinement" (fun () ->
        let d = Tcad.Structure.default_description in
        let ss nx ny =
          let dev = Tcad.Structure.build ~nx ~ny d in
          Tcad.Extract.subthreshold_slope (Tcad.Extract.id_vg ~points:9 ~vg_max:0.4 dev ~vd:0.05)
        in
        let coarse = ss 40 28 in
        let fine = ss 90 60 in
        (* Refinement moves SS by only a few percent: discretization is not
           the dominant error term. *)
        Test_util.check_rel "converged" ~rel:0.06 fine coarse);
  ]


(* Logic-level property tests: the Design evaluator is pure and fast, so
   qcheck can sweep it hard. *)
let logic_tests =
  [
    prop "gate-level adder equals integer addition" ~count:200
      QCheck2.Gen.(triple (int_range 0 255) (int_range 0 255) (int_range 0 1))
      (fun (av, bv, cv) ->
        let { Design.design = d; a; b; cin; sums; cout } = Design.adder ~bits:8 in
        let assign net =
          let bit word arr =
            let rec find i = if arr.(i) = net then Some i else if i + 1 < 8 then find (i + 1) else None in
            match find 0 with Some i -> Some ((word lsr i) land 1 = 1) | None -> None
          in
          match bit av a with
          | Some v -> v
          | None ->
            (match bit bv b with
             | Some v -> v
             | None -> if net = cin then cv = 1 else false)
        in
        let values = Design.evaluate d ~inputs:assign in
        let sum = Array.to_list sums |> List.mapi (fun i n -> if values.(n) then 1 lsl i else 0)
                  |> List.fold_left ( + ) 0 in
        let total = sum + (if values.(cout) then 256 else 0) in
        total = av + bv + cv);
    u "signal probabilities are exact on fan-out-free logic (vs Monte Carlo)" (fun () ->
        (* A balanced NAND tree over 8 distinct inputs has no reconvergent
           fan-out, so the independence model is exact there. *)
        let d = Design.create () in
        let leaves = Array.init 8 (fun _ -> Design.fresh_net d) in
        Array.iter (Design.mark_input d) leaves;
        let nand x y =
          let out = Design.fresh_net d in
          Design.add_gate d Sta.Cell_lib.Nand2 ~inputs:[| x; y |] ~output:out;
          out
        in
        let rec reduce = function
          | [ x ] -> x
          | x :: y :: rest -> reduce (rest @ [ nand x y ])
          | [] -> Alcotest.fail "empty"
        in
        let root = reduce (Array.to_list leaves) in
        Design.mark_output d root;
        let stats = Sta.Power.propagate_probabilities d in
        let rng = Numerics.Rng.create ~seed:77 in
        let trials = 6000 in
        let hits = ref 0 in
        for _ = 1 to trials do
          let draw = Hashtbl.create 16 in
          let assign net =
            match Hashtbl.find_opt draw net with
            | Some v -> v
            | None ->
              let v = Numerics.Rng.float rng < 0.5 in
              Hashtbl.add draw net v;
              v
          in
          if (Design.evaluate d ~inputs:assign).(root) then incr hits
        done;
        let mc = float_of_int !hits /. float_of_int trials in
        Test_util.check_in_range "tree root" ~lo:(mc -. 0.03) ~hi:(mc +. 0.03)
          stats.(root).Sta.Power.probability);
    u "adder probabilities stay in [0, 1] with exact inputs" (fun () ->
        let d = (Design.adder ~bits:4).Design.design in
        let stats = Sta.Power.propagate_probabilities d in
        Array.iter
          (fun st -> Test_util.check_in_range "p" ~lo:0.0 ~hi:1.0 st.Sta.Power.probability)
          stats;
        List.iter
          (fun net -> Test_util.check_float "input" 0.5 stats.(net).Sta.Power.probability)
          (Design.primary_inputs d));
    prop "verilog round-trips random inverter trees" ~count:40
      QCheck2.Gen.(int_range 1 12)
      (fun depth ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let out = Design.inverter_chain d ~length:depth a in
        Design.mark_output d out;
        let parsed, _ = Sta.Verilog.of_verilog (Sta.Verilog.to_verilog d) in
        List.length (Design.gates parsed) = depth
        && List.length (Design.primary_outputs parsed) = 1);
    u "evaluate rejects cyclic designs" (fun () ->
        let d = Design.create () in
        let x = Design.fresh_net d and y = Design.fresh_net d in
        Design.add_gate d Sta.Cell_lib.Inv ~inputs:[| x |] ~output:y;
        Design.add_gate d Sta.Cell_lib.Inv ~inputs:[| y |] ~output:x;
        match Design.evaluate d ~inputs:(fun _ -> false) with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected cycle failure");
  ]

let suite =
  [
    ("interconnect.wire", wire_tests);
    ("sta.lut", lut_tests);
    ("sta.cell_lib", cell_lib_tests);
    ("sta.design", design_tests);
    ("sta.engine", engine_tests);
    ("analysis.yield", yield_tests);
    ("scaling.projection", projection_tests);
    ("sta.liberty", liberty_tests);
    ("spice.export", export_tests);
    ("sta.power", power_tests);
    ("device.corners", corner_tests);
    ("analysis.pareto", pareto_tests);
    ("sta.verilog", verilog_tests);
    ("tcad.convergence", mesh_convergence_tests);
    ("sta.logic", logic_tests);
  ]
