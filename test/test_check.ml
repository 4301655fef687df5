(* lib/check: one case per lint rule (a violating fixture and a clean one),
   plus a property that well-formed generated circuits always pass DRC. *)

open Subscale
module N = Spice.Netlist
module Diag = Check.Diagnostic
module Design = Sta.Design

let u = Test_util.case
let slow = Test_util.slow_case
let prop = Test_util.prop

let phys90 = List.hd Device.Params.paper_table2
let pair90 = Circuits.Inverter.pair_of_physical phys90
let nfet = pair90.Circuits.Inverter.nfet
let pfet = pair90.Circuits.Inverter.pfet

let rules diags = List.map (fun d -> d.Diag.rule) diags

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_fires name rule diags =
  if not (List.mem rule (rules diags)) then
    Alcotest.failf "%s: expected rule %s, got [%s]" name rule
      (String.concat "; " (List.map Diag.to_string diags))

(* A crafted bad deck must raise its own rule and nothing else: detection
   and isolation at once. *)
let check_fires_alone name rule diags =
  check_fires name rule diags;
  if List.exists (fun r -> r <> rule) (rules diags) then
    Alcotest.failf "%s: expected only rule %s, got [%s]" name rule
      (String.concat "; " (List.map Diag.to_string diags))

let check_clean name diags =
  if diags <> [] then
    Alcotest.failf "%s: expected no diagnostics, got [%s]" name
      (String.concat "; " (List.map Diag.to_string diags))

let deck build =
  let c = N.create () in
  build c;
  c

(* --- netlist DRC ------------------------------------------------------ *)

let vsrc c name plus minus v =
  N.add c (N.Voltage_source { name; plus; minus; wave = N.Dc v })

let netlist_tests =
  [
    u "floating node fires" (fun () ->
        let c =
          deck (fun c ->
              let a = N.node c "a" and b = N.node c "b" in
              vsrc c "V1" a N.ground 1.0;
              N.add c (N.Resistor { plus = a; minus = b; ohms = 1e3 }))
        in
        check_fires_alone "dangling end" "net-floating-node" (Check.netlist c));
    u "no DC path to ground fires" (fun () ->
        let c =
          deck (fun c ->
              let a = N.node c "a" and island = N.node c "island" in
              vsrc c "V1" a N.ground 1.0;
              N.add c (N.Capacitor { plus = a; minus = island; farads = 1e-15 });
              N.add c (N.Capacitor { plus = island; minus = N.ground; farads = 1e-15 }))
        in
        check_fires_alone "cap island" "net-no-dc-path" (Check.netlist c));
    u "voltage-source loop fires" (fun () ->
        let c =
          deck (fun c ->
              let a = N.node c "a" in
              vsrc c "V1" a N.ground 1.0;
              vsrc c "V2" N.ground a (-1.0))
        in
        check_fires_alone "anti-series sources" "net-vsource-loop" (Check.netlist c));
    u "nonpositive element value fires" (fun () ->
        let c =
          deck (fun c ->
              let a = N.node c "a" in
              vsrc c "V1" a N.ground 1.0;
              N.add c (N.Resistor { plus = a; minus = N.ground; ohms = -5.0 }))
        in
        check_fires_alone "negative R" "net-nonpositive-value" (Check.netlist c);
        let c2 =
          deck (fun c ->
              let a = N.node c "a" in
              vsrc c "V1" a N.ground 1.0;
              N.add c (N.Resistor { plus = a; minus = N.ground; ohms = 1e3 });
              N.add c (N.Capacitor { plus = a; minus = N.ground; farads = 0.0 }))
        in
        check_fires_alone "zero C" "net-nonpositive-value" (Check.netlist c2));
    u "undriven MOSFET gate fires" (fun () ->
        let c =
          deck (fun c ->
              let vdd = N.node c "vdd" and out = N.node c "out" and g = N.node c "g" in
              vsrc c "VDD" vdd N.ground 1.0;
              N.add c (N.Nmos { dev = nfet; width = 1e-6; drain = out; gate = g;
                                source = N.ground });
              N.add c (N.Pmos { dev = pfet; width = 2e-6; drain = out; gate = g;
                                source = vdd }))
        in
        (* the precise rule subsumes the generic no-DC-path one there *)
        check_fires_alone "gate-only net" "net-undriven-gate" (Check.netlist c));
    u "multiply-driven net fires" (fun () ->
        let c =
          deck (fun c ->
              let a = N.node c "a" and b = N.node c "b" in
              vsrc c "V1" a N.ground 1.0;
              vsrc c "V2" a b 0.5;
              N.add c (N.Resistor { plus = b; minus = N.ground; ohms = 1e3 }))
        in
        check_fires_alone "two sources on a" "net-multi-driven" (Check.netlist c);
        let c2 =
          deck (fun c ->
              let a = N.node c "a" and b = N.node c "b" in
              vsrc c "VX" a N.ground 1.0;
              vsrc c "VX" b N.ground 1.0;
              N.add c (N.Resistor { plus = a; minus = b; ohms = 1e3 }))
        in
        check_fires_alone "duplicate name" "net-multi-driven" (Check.netlist c2));
    u "bad Pwl waveform fires" (fun () ->
        let c =
          deck (fun c ->
              let a = N.node c "a" in
              N.add c (N.Voltage_source { name = "V1"; plus = a; minus = N.ground;
                                          wave = N.Pwl [] });
              N.add c (N.Resistor { plus = a; minus = N.ground; ohms = 1e3 }))
        in
        check_fires_alone "empty Pwl" "net-bad-waveform" (Check.netlist c);
        let c2 =
          deck (fun c ->
              let a = N.node c "a" in
              N.add c (N.Voltage_source { name = "V1"; plus = a; minus = N.ground;
                                          wave = N.Pwl [ (1.0, 0.0); (0.5, 1.0) ] });
              N.add c (N.Resistor { plus = a; minus = N.ground; ohms = 1e3 }))
        in
        check_fires_alone "unsorted Pwl" "net-bad-waveform" (Check.netlist c2));
    u "shipped circuit generators are DRC-clean" (fun () ->
        let vdd = 0.25 in
        check_clean "inverter"
          (Check.netlist (Circuits.Inverter.dc pair90 ~vdd).Circuits.Inverter.circuit);
        check_clean "ring"
          (Check.netlist (Circuits.Ring.build pair90 ~vdd).Circuits.Ring.circuit);
        check_clean "nand2"
          (Check.netlist (Circuits.Stdcell.nand2 pair90 ~vdd).Circuits.Stdcell.circuit);
        check_clean "adder"
          (Check.netlist
             (Circuits.Adder.ripple_carry pair90 ~vdd ~bits:2).Circuits.Adder.circuit);
        let phys, pair = Scaling.Strategy.select Scaling.Strategy.Sub_vth (Scaling.Roadmap.find 90) in
        check_clean "90 nm sub-Vth inverter at its own supply"
          (Check.netlist
             (Circuits.Inverter.dc pair ~vdd:phys.Device.Params.vdd).Circuits.Inverter.circuit));
    prop "random well-formed inverter chains pass DRC" ~count:30
      QCheck2.Gen.(pair (int_range 1 8) (int_range 10 90))
      (fun (stages, vdd_cs) ->
        let vdd = 0.01 *. float_of_int vdd_cs in
        let fixture =
          Circuits.Inverter.chain_fixture ~stages pair90 ~vdd ~input:(N.Dc 0.0)
        in
        Check.netlist fixture.Circuits.Inverter.circuit = []);
  ]

(* --- device / physics rules ------------------------------------------- *)

let device_tests =
  [
    u "paper devices validate cleanly" (fun () ->
        List.iter
          (fun p ->
            check_clean "table2 phys" (Check.physical p);
            let d = Device.Compact.nfet p in
            check_clean "table2 nfet" (Check.compact d ~vdd:p.Device.Params.vdd))
          Device.Params.paper_table2);
    u "nonpositive parameter fires" (fun () ->
        check_fires "negative lpoly" "dev-nonpositive-param"
          (Check.physical { phys90 with Device.Params.lpoly = -1e-9 }));
    u "negative halo doping fires" (fun () ->
        check_fires "negative halo" "dev-negative-doping"
          (Check.physical { phys90 with Device.Params.np_halo = -1e24 }));
    u "unit-mistake range fires" (fun () ->
        (* T_ox fed in nanometres instead of metres. *)
        check_fires "tox in nm" "dev-param-range"
          (Check.physical { phys90 with Device.Params.tox = 2.1 }));
    u "overlap consuming the channel fires" (fun () ->
        check_fires "huge overlap" "dev-halo-geometry"
          (Check.physical
             { phys90 with Device.Params.overlap = Some phys90.Device.Params.lpoly }));
    u "TCAD description rules" (fun () ->
        let d = Tcad.Structure.default_description in
        check_clean "default deck" (Check.description d);
        check_fires "negative nsd" "dev-negative-doping"
          (Check.description { d with Tcad.Structure.nsd = -1e25 });
        check_fires "halo outside mesh" "dev-halo-geometry"
          (Check.description { d with Tcad.Structure.halo_depth_frac = 9.0 });
        check_fires "cryogenic deck warns" "dev-param-range"
          (Check.description { d with Tcad.Structure.temperature = 4.2 }));
    u "non-monotone Id fires" (fun () ->
        (* Negating the slope factor makes I_d fall with V_gs; negating the
           mobility too keeps the current positive, so only monotonicity is
           violated. *)
        let broken =
          { nfet with Device.Compact.m = -.nfet.Device.Compact.m;
            mu = -.nfet.Device.Compact.mu }
        in
        check_fires "m < 0" "dev-nonmonotonic-id"
          (Check.compact broken ~vdd:phys90.Device.Params.vdd));
    u "non-finite Id fires" (fun () ->
        let broken = { nfet with Device.Compact.mu = Float.nan } in
        check_fires "mu = nan" "dev-nonfinite-id"
          (Check.compact broken ~vdd:phys90.Device.Params.vdd));
  ]

(* --- TCAD structure rules --------------------------------------------- *)

let structure_tests =
  [
    slow "structure rules on the built 90 nm device" (fun () ->
        let dev = Tcad.Structure.build Tcad.Structure.default_description in
        check_clean "shipped structure" (Check.structure dev);
        (* Tightened thresholds turn the same mesh into violations. *)
        check_fires "spacing floor" "tcad-mesh-spacing"
          (Check.structure ~min_spacing:1e-6 dev);
        check_fires "aspect limit" "tcad-aspect-ratio" (Check.structure ~max_aspect:1.0 dev);
        check_fires "growth limit" "tcad-mesh-spacing" (Check.structure ~max_growth:1.01 dev);
        (* Strip the source contact: coverage rule. *)
        let no_source =
          { dev with
            Tcad.Structure.boundary =
              Array.map
                (function
                  | Tcad.Structure.Ohmic Tcad.Structure.Source -> Tcad.Structure.Interior
                  | b -> b)
                dev.Tcad.Structure.boundary }
        in
        check_fires "missing contact" "tcad-contact-coverage" (Check.structure no_source);
        (* Zero the doping under the drain contact: neutrality rule. *)
        let neutral_doping = Tcad.Field.copy dev.Tcad.Structure.net_doping in
        Array.iteri
          (fun k b ->
            if b = Tcad.Structure.Ohmic Tcad.Structure.Drain then
              Tcad.Field.set neutral_doping k 0.0)
          dev.Tcad.Structure.boundary;
        check_fires "intrinsic contact" "tcad-charge-neutrality"
          (Check.structure { dev with Tcad.Structure.net_doping = neutral_doping }));
  ]

(* --- STA design lint --------------------------------------------------- *)

let design_tests =
  [
    u "clean inverter-chain design passes" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let out = Design.inverter_chain d ~length:4 a in
        Design.mark_output d out;
        check_clean "chain design" (Check.design d));
    u "unconnected pin fires" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        let out = Design.fresh_net d in
        Design.add_gate d Sta.Cell_lib.Inv ~inputs:[| a |] ~output:out;
        Design.mark_output d out;
        check_fires "undriven gate input" "sta-unconnected-pin" (Check.design d));
    u "combinational loop fires" (fun () ->
        let d = Design.create () in
        let n1 = Design.fresh_net d and n2 = Design.fresh_net d in
        Design.add_gate d Sta.Cell_lib.Inv ~inputs:[| n2 |] ~output:n1;
        Design.add_gate d Sta.Cell_lib.Inv ~inputs:[| n1 |] ~output:n2;
        Design.mark_output d n1;
        check_fires "two-inverter cycle" "sta-comb-loop" (Check.design d));
    u "undriven output fires" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let out = Design.inverter_chain d ~length:1 a in
        Design.mark_output d out;
        Design.mark_output d (Design.fresh_net d);
        check_fires "dangling port" "sta-undriven-output" (Check.design d));
    u "dead logic fires" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        let out = Design.inverter_chain d ~length:1 a in
        Design.mark_output d out;
        let dead = Design.fresh_net d in
        Design.add_gate d Sta.Cell_lib.Inv ~inputs:[| a |] ~output:dead;
        check_fires "unreachable gate" "sta-dead-logic" (Check.design d));
    u "design with no outputs warns" (fun () ->
        let d = Design.create () in
        let a = Design.fresh_net d in
        Design.mark_input d a;
        ignore (Design.inverter_chain d ~length:1 a);
        check_fires "no outputs" "sta-no-outputs" (Check.design d));
    u "generated adder is lint-clean" (fun () ->
        check_clean "rca4" (Check.design (Design.adder ~bits:4).Design.design));
  ]

(* --- numerics guard ---------------------------------------------------- *)

let guarded f =
  match Numerics.Guard.with_guard f with
  | v -> Ok v
  | exception Numerics.Guard.Non_finite { origin; _ } -> Error origin

let finite_tests =
  [
    u "guard is off by default" (fun () ->
        Alcotest.(check bool) "disabled" false (Numerics.Guard.is_enabled ());
        let v = Numerics.Guard.float ~origin:"test" Float.nan in
        Alcotest.(check bool) "nan passes through" true (Float.is_nan v));
    u "guard traps non-finite values with origin" (fun () ->
        match guarded (fun () -> Numerics.Guard.float ~origin:"unit test" Float.nan) with
        | Ok _ -> Alcotest.fail "nan slipped through the enabled guard"
        | Error origin -> Alcotest.(check string) "origin named" "unit test" origin);
    u "guard restores its previous state" (fun () ->
        let r = guarded (fun () -> Numerics.Guard.vec ~origin:"ok" [| 1.0; 2.0 |]) in
        Alcotest.(check bool) "clean run" true (r = Ok [| 1.0; 2.0 |]);
        Alcotest.(check bool) "disabled again" false (Numerics.Guard.is_enabled ()));
    u "dcop reports the origin of a poisoned solve" (fun () ->
        let c = N.create () in
        let a = N.node c "a" in
        N.add c (N.Voltage_source { name = "V1"; plus = a; minus = N.ground;
                                    wave = N.Dc 1.0 });
        N.add c (N.Resistor { plus = a; minus = N.ground; ohms = 1e3 });
        let sys = Spice.Mna.build c in
        let x0 = Array.make (Spice.Mna.size sys) 0.0 in
        x0.(0) <- Float.nan;
        match guarded (fun () -> Spice.Dcop.solve ~x0 sys) with
        | Ok _ -> Alcotest.fail "nan initial guess passed the entry guard"
        | Error origin ->
          Alcotest.(check bool) "origin names the solver" true (contains_sub origin "Dcop.solve"));
  ]

(* --- diagnostics plumbing ---------------------------------------------- *)

let diagnostic_tests =
  [
    u "ordering, counting and exit codes" (fun () ->
        let w = Diag.warning ~rule:"b-rule" ~location:"loc" "w" in
        let e = Diag.error ~rule:"a-rule" ~location:"loc" "e" in
        let i = Diag.info ~rule:"c-rule" ~location:"loc" "i" in
        let sorted = Diag.sort [ i; w; e ] in
        Alcotest.(check (list string)) "severity order" [ "a-rule"; "b-rule"; "c-rule" ]
          (rules sorted);
        Alcotest.(check bool) "has_errors" true (Diag.has_errors sorted);
        let ne, nw, ni = Diag.count sorted in
        Alcotest.(check (list int)) "counts" [ 1; 1; 1 ] [ ne; nw; ni ];
        Alcotest.(check int) "exit 1" 1 (Diag.exit_code sorted);
        Alcotest.(check int) "exit 0" 0 (Diag.exit_code [ w; i ]));
    u "to_string carries rule, location and hint" (fun () ->
        let d =
          Diag.error ~rule:"net-floating-node" ~location:"node \"x\"" ~hint:"connect it"
            "node dangles"
        in
        let s = Diag.to_string d in
        List.iter
          (fun part ->
            Alcotest.(check bool) part true (contains_sub s part))
          [ "error"; "net-floating-node"; "node \"x\""; "node dangles"; "connect it" ]);
    u "assert_clean raises on errors only" (fun () ->
        Check.assert_clean ~what:"warnings ok"
          [ Diag.warning ~rule:"r" ~location:"l" "w" ];
        match
          Check.assert_clean ~what:"errors raise"
            [ Diag.error ~rule:"r" ~location:"l" "e" ]
        with
        | () -> Alcotest.fail "assert_clean swallowed an error"
        | exception Check.Check_failed [ d ] ->
          Alcotest.(check string) "payload" "r" d.Diag.rule
        | exception Check.Check_failed _ -> Alcotest.fail "wrong payload");
  ]

let suite =
  [
    ("check:netlist-drc", netlist_tests);
    ("check:device", device_tests);
    ("check:structure", structure_tests);
    ("check:design", design_tests);
    ("check:finite", finite_tests);
    ("check:diagnostic", diagnostic_tests);
  ]
