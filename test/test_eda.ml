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

(* One shared 250 mV library for the STA tests, with the transient steps
   its characterization took. *)
let lib_and_steps =
  lazy
    (let steps0 = Test_util.counter_value "spice.transient.steps" in
     let lib = Cell_lib.characterize pair ~vdd:0.25 in
     (lib, Test_util.counter_value "spice.transient.steps" - steps0))

let lib = lazy (fst (Lazy.force lib_and_steps))

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
        let rho_eff = Wire.resistance_per_length g *. g.Wire.width *. g.Wire.thickness in
        Alcotest.(check bool) "rho_eff" true (rho_eff > 17.2e-9));
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
          let result =
            Spice.Transient.run sys ~probes:[ Spice.Transient.Node far ] ~t_stop:2e-7 ~steps:800
          in
          match
            Spice.Waveform.first_crossing ~times:(Spice.Transient.times result)
              ~values:(Spice.Transient.voltage_of result far) ~level:0.5
              Spice.Waveform.Rising
          with
          | Some t -> t
          | None -> Alcotest.fail "ladder did not charge"
        in
        (* The driver charges the whole wire capacitance, then the line's
           own distributed delay. *)
        let elmore =
          (0.69 *. r_drv *. c_total)
          +. Elmore.distributed_delay ~r_per_l:r_total ~c_per_l:c_total ~length:1.0
        in
        let d10 = delay_with 10 in
        Test_util.check_rel "elmore vs spice" ~rel:0.25 elmore d10;
        (* Refinement: 10 segments closer to 20-segment answer than 1 segment. *)
        let d1 = delay_with 1 and d20 = delay_with 20 in
        Alcotest.(check bool) "converging" true
          (Float.abs (d10 -. d20) < Float.abs (d1 -. d20)));
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
    slow "INV and NAND2 tables keep their bits" (fun () ->
        let grid lut =
          Array.concat
            (List.map
               (fun slew -> Array.map (fun load -> Lut.eval lut ~slew ~load) (Lut.loads lut))
               (Array.to_list (Lut.slews lut)))
        in
        List.iter
          (fun kind ->
            Array.iter
              (fun (arc : Cell_lib.arc) ->
                List.iter
                  (fun (name, lut) ->
                    let label =
                      Printf.sprintf "lut-90-%s-pin%d-%s" (Cell_lib.cell_name kind)
                        arc.Cell_lib.pin name
                    in
                    Test_util.check_all_bits label (Test_util.bit_pin label) (grid lut))
                  [ ("delay_output_rise", arc.Cell_lib.delay_output_rise);
                    ("delay_output_fall", arc.Cell_lib.delay_output_fall);
                    ("slew_output_rise", arc.Cell_lib.slew_output_rise);
                    ("slew_output_fall", arc.Cell_lib.slew_output_fall) ])
              (Cell_lib.find (Lazy.force lib) kind).Cell_lib.arcs)
          [ Cell_lib.Inv; Cell_lib.Nand2 ]);
    slow "a library measures each grid point with one transient" (fun () ->
        (* 5 arcs x 2 input edges x 9 (slew, load) points = 90 transients of
           420 steps. *)
        Alcotest.(check int) "transient steps" (90 * 420) (snd (Lazy.force lib_and_steps)));
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
        (* erf x = 2 cdf (x sqrt 2) - 1 *)
        Test_util.check_rel "erf(1)" ~rel:1e-4 0.8427
          ((2.0 *. Numerics.Stats.normal_cdf (sqrt 2.0)) -. 1.0);
        Test_util.check_float ~tol:1e-7 "cdf(0)" 0.5 (Numerics.Stats.normal_cdf 0.0);
        Test_util.check_rel "3-sigma" ~rel:1e-2 0.00135
          (Numerics.Stats.normal_cdf ~mean:0.0 ~sigma:1.0 (-3.0)));
    u "array yield composes per-cell failures" (fun () ->
        let a = Yield.assess ~trials:40 pair ~vdd:0.2 in
        let composed bits = exp (float_of_int bits *. log1p (-.a.Yield.p_cell_fail)) in
        Alcotest.(check bool) "cells fail" true (a.Yield.p_cell_fail > 0.0);
        Test_util.check_rel "1 kb" ~rel:1e-9 (composed 1024) a.Yield.yield_1kb;
        Test_util.check_rel "1 Mb" ~rel:1e-9 (composed (1024 * 1024)) a.Yield.yield_1mb);
    slow "yield improves with supply" (fun () ->
        let y vdd = (Yield.assess ~trials:300 pair ~vdd).Yield.yield_1kb in
        Alcotest.(check bool) "monotone" true (y 0.3 >= y 0.2));
    slow "min vdd for yield is bracketed and consistent" (fun () ->
        let vmin = Yield.min_vdd_for_yield ~trials:300 pair ~bits:1024 ~target:0.9 in
        Test_util.check_in_range "vmin" ~lo:0.10 ~hi:0.45 vmin;
        let a = Yield.assess ~trials:300 pair ~vdd:(vmin +. 0.03) in
        Alcotest.(check bool) "above target above vmin" true
          (a.Yield.yield_1kb > 0.85));
    slow "32 nm min vdd for yield keeps its bits" (fun () ->
        List.iter
          (fun strategy ->
            let pair32 =
              match Scaling.Strategy.resolve ~node:32 ~strategy with
              | Ok (_, _, _, pair) -> pair
              | Error e -> Alcotest.fail e
            in
            let label = "vmin-32-" ^ strategy in
            let evals0 = Test_util.counter_value "analysis.snm.evals" in
            Test_util.check_bits label (Test_util.bit_pin label).(0)
              (Yield.min_vdd_for_yield ~trials:400 pair32 ~bits:1024 ~target:0.9);
            (* Two range checks and eight bisection midpoints: the bisection's
               own evaluations of both ends are not assessed again. *)
            Alcotest.(check int) (label ^ " SNM evaluations") (10 * 400)
              (Test_util.counter_value "analysis.snm.evals" - evals0))
          [ "super"; "sub" ]);
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
    slow "cell functions" (fun () ->
        let text = Sta.Liberty.to_string (Lazy.force lib) in
        List.iter
          (fun needle -> Alcotest.(check bool) needle true (contains text needle))
          [ "function : \"!A\""; "function : \"!(A | B)\"" ]);
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
        let shift dev =
          Device.Compact.vth (Device.Corners.apply Device.Corners.Fs dev) ~vds:0.05
          -. Device.Compact.vth dev ~vds:0.05
        in
        Test_util.check_float "fs nfet" (-0.030) (shift pair.Circuits.Inverter.nfet);
        Test_util.check_float "fs pfet" 0.030 (shift pair.Circuits.Inverter.pfet));
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
    ("device.corners", corner_tests);
    ("analysis.pareto", pareto_tests);
    ("sta.verilog", verilog_tests);
    ("tcad.convergence", mesh_convergence_tests);
    ("sta.logic", logic_tests);
  ]
