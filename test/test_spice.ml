open Subscale
module N = Spice.Netlist
module Mna = Spice.Mna
module Dcop = Spice.Dcop
module Dcsweep = Spice.Dcsweep
module Transient = Spice.Transient
module W = Spice.Waveform

let u = Test_util.case
let prop = Test_util.prop

let phys90 = List.hd Device.Params.paper_table2
let nfet = Device.Compact.nfet phys90

let sub32 () =
  match Scaling.Strategy.resolve ~node:32 ~strategy:"sub" with
  | Ok (_, _, _, pair) -> pair
  | Error e -> Alcotest.fail e

(* A waveform's value at [t], through the solver's in-place entry. *)
let value_at w t =
  let a = [| t |] in
  N.waveform_into w a 0;
  a.(0)

let netlist_tests =
  [
    u "dc waveform is constant" (fun () ->
        Test_util.check_float "dc" 3.3 (value_at (N.Dc 3.3) 42.0));
    u "pulse waveform shape" (fun () ->
        let w = N.Pulse { low = 0.0; high = 1.0; delay = 1.0; rise = 1.0; fall = 1.0;
                          width = 2.0; period = 10.0 } in
        Test_util.check_float "before" 0.0 (value_at w 0.5);
        Test_util.check_float "mid rise" 0.5 (value_at w 1.5);
        Test_util.check_float "high" 1.0 (value_at w 3.0);
        Test_util.check_float "mid fall" 0.5 (value_at w 4.5);
        Test_util.check_float "low again" 0.0 (value_at w 6.0);
        Test_util.check_float "periodic" 1.0 (value_at w 13.0));
    u "pwl interpolates and clamps" (fun () ->
        let w = N.Pwl [ (0.0, 0.0); (1.0, 2.0); (3.0, 2.0) ] in
        Test_util.check_float "mid" 1.0 (value_at w 0.5);
        Test_util.check_float "flat" 2.0 (value_at w 2.0);
        Test_util.check_float "after" 2.0 (value_at w 9.0));
    u "pwl constructor validates its points" (fun () ->
        (match N.pwl [ (0.0, 0.0); (1.0, 1.0) ] with
         | N.Pwl _ -> ()
         | _ -> Alcotest.fail "pwl did not build a Pwl waveform");
        let rejects name points =
          match N.pwl points with
          | _ -> Alcotest.failf "%s: accepted" name
          | exception Invalid_argument _ -> ()
        in
        rejects "empty" [];
        rejects "unsorted" [ (1.0, 0.0); (0.5, 1.0) ];
        rejects "duplicate time" [ (0.0, 0.0); (0.0, 1.0) ]);
    u "waveform_into rejects an empty Pwl" (fun () ->
        match value_at (N.Pwl []) 0.0 with
        | _ -> Alcotest.fail "empty Pwl produced a value"
        | exception Invalid_argument _ -> ());
    u "named nodes are deduplicated" (fun () ->
        let c = N.create () in
        let a = N.node c "x" and b = N.node c "x" and d = N.node c "y" in
        Alcotest.(check int) "same" a b;
        Alcotest.(check bool) "distinct" true (a <> d));
    u "node_name round trips" (fun () ->
        let c = N.create () in
        let a = N.node c "alpha" in
        Alcotest.(check string) "name" "alpha" (N.node_name c a);
        Alcotest.(check string) "ground" "gnd" (N.node_name c 0));
    u "element accessors preserve order" (fun () ->
        let c = N.create () in
        let n1 = N.node c "n1" in
        N.add c (N.Voltage_source { name = "V1"; plus = n1; minus = 0; wave = N.Dc 1.0 });
        N.add c (N.Capacitor { plus = n1; minus = 0; farads = 1e-12 });
        N.add c (N.Voltage_source { name = "V2"; plus = n1; minus = 0; wave = N.Dc 2.0 });
        Alcotest.(check (list string)) "sources" [ "V1"; "V2" ]
          (List.map (fun (n, _, _, _) -> n) (N.voltage_sources c));
        Alcotest.(check int) "caps" 1 (List.length (N.capacitors c)));
  ]

(* A resistive divider: V -- R1 -- mid -- R2 -- gnd. *)
let divider v r1 r2 =
  let c = N.create () in
  let top = N.node c "top" and mid = N.node c "mid" in
  N.add c (N.Voltage_source { name = "V"; plus = top; minus = 0; wave = N.Dc v });
  N.add c (N.Resistor { plus = top; minus = mid; ohms = r1 });
  N.add c (N.Resistor { plus = mid; minus = 0; ohms = r2 });
  (c, mid)

let mna_tests =
  [
    prop "voltage divider solves exactly"
      QCheck2.Gen.(triple (float_range 0.5 5.0) (float_range 100.0 1e5) (float_range 100.0 1e5))
      (fun (v, r1, r2) ->
        let c, mid = divider v r1 r2 in
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        let expected = v *. r2 /. (r1 +. r2) in
        Float.abs (Mna.voltage sys x mid -. expected) < 1e-6 *. v);
    u "source branch current is -V/R (current flows out of +)" (fun () ->
        let c, _ = divider 1.0 500.0 500.0 in
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        Test_util.check_rel "i" ~rel:1e-6 (-1e-3) (Mna.source_current sys x "V"));
    u "current source through a resistor" (fun () ->
        let c = N.create () in
        let n1 = N.node c "n1" in
        N.add c (N.Current_source { plus = 0; minus = n1; amps = 1e-3 });
        N.add c (N.Resistor { plus = n1; minus = 0; ohms = 1000.0 });
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        (* 1 mA pushed into n1 through 1 kOhm -> 1 V. *)
        Test_util.check_rel "v" ~rel:1e-6 1.0 (Mna.voltage sys x n1));
    u "floating node settles to ground through gmin" (fun () ->
        let c = N.create () in
        let n1 = N.node c "float" in
        N.add c (N.Capacitor { plus = n1; minus = 0; farads = 1e-15 });
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        Test_util.check_float ~tol:1e-6 "v" 0.0 (Mna.voltage sys x n1));
    u "overrides replace a source value" (fun () ->
        let c, mid = divider 1.0 1000.0 1000.0 in
        let sys = Mna.build c in
        let x = Dcop.solve ~overrides:[ ("V", 2.0) ] sys in
        Test_util.check_rel "v" ~rel:1e-6 1.0 (Mna.voltage sys x mid));
    u "unknown source name raises a descriptive Invalid_argument" (fun () ->
        let c, _ = divider 1.0 1000.0 1000.0 in
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        match Mna.source_current sys x "nope" with
        | _ -> Alcotest.fail "lookup of a missing source succeeded"
        | exception Invalid_argument msg ->
          let has sub =
            let n = String.length msg and m = String.length sub in
            let rec at i = i + m <= n && (String.sub msg i m = sub || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool) "names the culprit" true (has "nope");
          Alcotest.(check bool) "lists known sources" true (has "known: V"));
    u "a floating source solves exactly" (fun () ->
        (* V2's + terminal is V1's, so V2 must take the KCL row of its -
           terminal b: the row assignment has to move past its first pick. *)
        let c = N.create () in
        let a = N.node c "a" and b = N.node c "b" in
        N.add c (N.Voltage_source { name = "V1"; plus = a; minus = 0; wave = N.Dc 1.0 });
        N.add c (N.Voltage_source { name = "V2"; plus = a; minus = b; wave = N.Dc 0.5 });
        N.add c (N.Resistor { plus = b; minus = 0; ohms = 1000.0 });
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        Test_util.check_rel "v(a)" ~rel:1e-12 1.0 (Mna.voltage sys x a);
        Test_util.check_rel "v(b)" ~rel:1e-12 0.5 (Mna.voltage sys x b);
        (* b's KCL: 0.5 mA through R and 0.5 pA through gmin arrive from V2;
           a's adds its own 1 pA of gmin. *)
        Test_util.check_rel "i(V2)" ~rel:1e-12 (0.5e-3 +. 0.5e-12)
          (Mna.source_current sys x "V2");
        Test_util.check_rel "i(V1)" ~rel:1e-12 (-.(0.5e-3 +. 1.5e-12))
          (Mna.source_current sys x "V1"));
    u "a source with + at ground solves exactly" (fun () ->
        let c = N.create () in
        let n1 = N.node c "n1" in
        N.add c (N.Voltage_source { name = "V"; plus = 0; minus = n1; wave = N.Dc 1.0 });
        N.add c (N.Resistor { plus = n1; minus = 0; ohms = 1000.0 });
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        Test_util.check_rel "v" ~rel:1e-12 (-1.0) (Mna.voltage sys x n1);
        Test_util.check_rel "i" ~rel:1e-12 (-.(1e-3 +. 1e-12)) (Mna.source_current sys x "V"));
    u "a loop of voltage sources is rejected at build, naming the source" (fun () ->
        let c = N.create () in
        let a = N.node c "a" and b = N.node c "b" in
        N.add c (N.Voltage_source { name = "V1"; plus = a; minus = 0; wave = N.Dc 1.0 });
        N.add c (N.Voltage_source { name = "V2"; plus = b; minus = a; wave = N.Dc 1.0 });
        N.add c (N.Voltage_source { name = "V3"; plus = b; minus = 0; wave = N.Dc 2.0 });
        Alcotest.check_raises "loop"
          (Invalid_argument "Mna.build: voltage source \"V3\" closes a loop of voltage sources")
          (fun () -> ignore (Mna.build c)));
    u "with_values solves as a fresh build of its values, bit for bit" (fun () ->
        let bits = Array.map Int64.bits_of_float in
        (* An RC step, built once with placeholder values and then given
           the ones each fresh netlist is built with. *)
        let rc ~wave ~farads =
          let c = N.create () in
          let top = N.node c "in" and out = N.node c "out" in
          N.add c (N.Voltage_source { name = "V"; plus = top; minus = 0; wave });
          N.add c (N.Resistor { plus = top; minus = out; ohms = 1e3 });
          N.add c (N.Capacitor { plus = out; minus = 0; farads });
          (Mna.build c, out)
        in
        let shared, out = rc ~wave:(N.Dc 0.0) ~farads:0.0 in
        let record sys =
          Transient.voltage_of (Transient.run sys ~probes:[ Node out ] ~t_stop:5e-9 ~steps:50) out
        in
        List.iter
          (fun (v, farads) ->
            let wave = N.Pwl [ (0.0, 0.0); (1e-9, v) ] in
            let set = Mna.with_values ~waves:[ ("V", wave) ] ~farads:[ (0, farads) ] shared in
            Alcotest.(check (array int64)) "RC waveform" (bits (record (fst (rc ~wave ~farads))))
              (bits (record set)))
          [ (1.0, 1e-12); (0.25, 3e-12) ];
        Alcotest.(check (float 0.0)) "the shared system keeps its own load" 0.0
          (Mna.cap_farads shared 0);
        (* A NAND2 with a load: both inputs' waves and the load set, as
           Cell_lib sets them. *)
        let pair = Circuits.Inverter.pair_of_physical phys90 and vdd = 0.25 in
        let nand ?a_wave ?b_wave farads =
          let fx = Circuits.Stdcell.nand2 ?a_wave ?b_wave pair ~vdd in
          N.add fx.Circuits.Stdcell.circuit
            (N.Capacitor { plus = fx.Circuits.Stdcell.out_node; minus = 0; farads });
          (Mna.build fx.Circuits.Stdcell.circuit, fx.Circuits.Stdcell.out_node)
        in
        let shared, out = nand 0.0 in
        let a_wave = N.Pwl [ (0.0, 0.0); (1e-8, 0.0); (2e-8, vdd) ] and b_wave = N.Dc vdd in
        let fresh, _ = nand ~a_wave ~b_wave 2e-15 in
        let set =
          Mna.with_values ~waves:[ ("VA", a_wave); ("VB", b_wave) ] ~farads:[ (0, 2e-15) ] shared
        in
        let crossings sys =
          Transient.first_crossings sys ~node:out ~levels:[ 0.5 *. vdd; 0.2 *. vdd ] ~after:0.0
            ~t_stop:4e-7 ~steps:200
        in
        let crossing_bits sys = List.map (Option.map Int64.bits_of_float) (crossings sys) in
        Alcotest.(check (list (option int64))) "NAND2 crossings" (crossing_bits fresh)
          (crossing_bits set);
        Alcotest.(check bool) "the output falls" true
          (List.for_all Option.is_some (crossings set)));
    u "with_values rejects an unknown source and a capacitor outside the system" (fun () ->
        let c = N.create () in
        let a = N.node c "a" in
        N.add c (N.Voltage_source { name = "V"; plus = a; minus = 0; wave = N.Dc 1.0 });
        N.add c (N.Capacitor { plus = a; minus = 0; farads = 1e-12 });
        let sys = Mna.build c in
        Alcotest.check_raises "source"
          (Invalid_argument "Mna: no voltage source named \"W\" (known: V)")
          (fun () -> ignore (Mna.with_values ~waves:[ ("W", N.Dc 0.0) ] sys));
        Alcotest.check_raises "capacitor"
          (Invalid_argument "Mna.with_values: no capacitor 1 (capacitors are 0..0)")
          (fun () -> ignore (Mna.with_values ~farads:[ (1, 1e-12) ] sys)));
  ]

let inverter_fixture vdd =
  let pair = Circuits.Inverter.pair_of_physical phys90 in
  Circuits.Inverter.dc pair ~vdd

let dcop_tests =
  [
    u "diode-connected NFET biases below the rail" (fun () ->
        let c = N.create () in
        let d = N.node c "d" in
        N.add c (N.Current_source { plus = 0; minus = d; amps = 1e-7 });
        N.add c (N.Nmos { dev = nfet; width = 1e-6; drain = d; gate = d; source = 0 });
        let sys = Mna.build c in
        let x = Dcop.solve sys in
        let v = Mna.voltage sys x d in
        Test_util.check_in_range "diode v" ~lo:0.05 ~hi:0.8 v;
        (* The device must actually carry the injected current. *)
        Test_util.check_rel "kcl" ~rel:1e-3 1e-7
          (1e-6 *. Device.Iv_model.id nfet ~vgs:v ~vds:v));
    u "inverter operating point converges at mid-rail input" (fun () ->
        let fx = inverter_fixture 0.25 in
        let sys = Mna.build fx.Circuits.Inverter.circuit in
        let x = Dcop.solve ~overrides:[ ("VIN", 0.125) ] sys in
        Test_util.check_in_range "vout" ~lo:0.0 ~hi:0.25
          (Mna.voltage sys x fx.Circuits.Inverter.out_node));
  ]

let dcsweep_tests =
  [
    u "inverter VTC is monotone decreasing rail to rail" (fun () ->
        let fx = inverter_fixture 0.25 in
        let sys = Mna.build fx.Circuits.Inverter.circuit in
        let vin = Numerics.Vec.linspace 0.0 0.25 26 in
        let sweep = Dcsweep.run sys ~source:"VIN" ~values:vin in
        let vout = Dcsweep.probe sys sweep ~node:fx.Circuits.Inverter.out_node in
        Test_util.check_rel "high rail" ~rel:0.02 0.25 vout.(0);
        Test_util.check_in_range "low rail" ~lo:(-0.001) ~hi:0.005 vout.(25);
        Array.iteri (fun i v -> if i > 0 then
          Alcotest.(check bool) "monotone" true (v <= vout.(i - 1) +. 1e-9)) vout);
    u "empty sweep is rejected" (fun () ->
        let fx = inverter_fixture 0.25 in
        let sys = Mna.build fx.Circuits.Inverter.circuit in
        Alcotest.check_raises "empty" (Invalid_argument "Dcsweep.run: empty sweep")
          (fun () -> ignore (Dcsweep.run sys ~source:"VIN" ~values:[||])));
    u "a sweep's one workspace gives fresh solves' bits" (fun () ->
        let fx = inverter_fixture 0.25 in
        let sys = Mna.build fx.Circuits.Inverter.circuit in
        let vin = Numerics.Vec.linspace 0.0 0.25 11 in
        let sweep = Dcsweep.run sys ~source:"VIN" ~values:vin in
        let prev = ref None in
        Array.iteri
          (fun i v ->
            let x = Dcop.solve ?x0:!prev ~overrides:[ ("VIN", v) ] sys in
            Array.iteri
              (fun k xk ->
                Alcotest.(check int64) (Printf.sprintf "point %d unknown %d" i k)
                  (Int64.bits_of_float xk) (Int64.bits_of_float sweep.Dcsweep.solutions.(i).(k)))
              x;
            prev := Some x)
          vin);
  ]

(* RC low-pass driven by a step: exact solution v(t) = V (1 - e^{-t/RC}). *)
let rc_deck ~r ~cap ~v =
  let c = N.create () in
  let top = N.node c "in" and out = N.node c "out" in
  N.add c
    (N.Voltage_source
       { name = "V"; plus = top; minus = 0;
         wave = N.Pwl [ (0.0, 0.0); (1e-15, v) ] });
  N.add c (N.Resistor { plus = top; minus = out; ohms = r });
  N.add c (N.Capacitor { plus = out; minus = 0; farads = cap });
  (Mna.build c, out)

let rc_step ~r ~cap ~v ~t_stop ~steps =
  let sys, out = rc_deck ~r ~cap ~v in
  let result = Transient.run sys ~probes:[ Node out; Source "V" ] ~t_stop ~steps in
  (sys, out, result)

(* One inverter stage on a shipped pair, its input pulsed high at 5 tp:
   the system, the output node, the swing and a window past the edge. *)
let inverter_deck pair ~vdd =
  let tp = Circuits.Chain.estimated_stage_delay pair (Circuits.Inverter.balanced_sizing ()) ~vdd in
  let input = N.Pulse { low = 0.0; high = vdd; delay = 5.0 *. tp; rise = tp;
                        fall = tp; width = 1000.0 *. tp; period = 4000.0 *. tp } in
  let fx = Circuits.Inverter.chain_fixture ~stages:1 pair ~vdd ~input in
  (Mna.build fx.Circuits.Inverter.circuit, fx.Circuits.Inverter.stage_nodes.(1), vdd, 60.0 *. tp)

let bits_of = Option.map Int64.bits_of_float

(* Transient.first_crossings against Waveform.first_crossing over run's
   record of the same node, on random decks, step counts, levels and
   [after] bounds.  Every case adds three levels: one outside the swing,
   which the node never crosses; the exact value of a sample inside the
   edge, whose crossing is the sample itself (the segment that starts on
   the level); and the midpoint of the first step.  [after] is no bound,
   a random time, or that sample's time, where the crossing meets the
   bound exactly. *)
let streamed_crossings_prop =
  let gen =
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 20 200)
        (list_size (int_range 0 3) (float_range (-0.2) 1.2))
        (int_range 0 2) (float_range (-0.1) 1.0))
  in
  prop "first_crossings streams run's crossings to the bit" ~count:60 gen
    (fun (deck, steps, fractions, after_kind, after_frac) ->
      let sys, node, swing, t_stop =
        match deck with
        | 0 ->
          let sys, out = rc_deck ~r:1e3 ~cap:1e-9 ~v:1.0 in
          (sys, out, 1.0, 5e-6)
        | 1 -> inverter_deck (Circuits.Inverter.pair_of_physical phys90) ~vdd:0.25
        | _ -> inverter_deck (sub32 ()) ~vdd:0.25
      in
      let result = Transient.run sys ~probes:[ Node node ] ~t_stop ~steps in
      let times = Transient.times result and values = Transient.voltage_of result node in
      (* The sample nearest mid-swing: the node is still moving there. *)
      let k = ref 0 in
      Array.iteri
        (fun i v ->
          if Float.abs (v -. (0.5 *. swing)) < Float.abs (values.(!k) -. (0.5 *. swing)) then
            k := i)
        values;
      let k = !k in
      let levels =
        (1.5 *. swing) :: values.(k) :: (0.5 *. (values.(0) +. values.(1)))
        :: List.map (fun f -> f *. swing) fractions
      in
      let after =
        match after_kind with
        | 0 -> neg_infinity
        | 1 -> times.(k)
        | _ -> after_frac *. t_stop
      in
      let streamed = Transient.first_crossings sys ~node ~levels ~after ~t_stop ~steps in
      let recorded =
        List.map (fun level -> W.first_crossing ~after ~times ~values ~level W.Either) levels
      in
      List.map bits_of streamed = List.map bits_of recorded
      && List.hd streamed = None
      && (after > times.(k) || List.nth streamed 1 <> None))

let transient_tests =
  [
    u "RC step response matches the analytic exponential" (fun () ->
        let r = 1e3 and cap = 1e-9 and v = 1.0 in
        let tau = r *. cap in
        let _, out, result = rc_step ~r ~cap ~v ~t_stop:(5.0 *. tau) ~steps:500 in
        let times = Transient.times result in
        let vo = Transient.voltage_of result out in
        Array.iteri
          (fun i t ->
            let expected = v *. (1.0 -. exp (-.t /. tau)) in
            if Float.abs (vo.(i) -. expected) > 5e-3 then
              Alcotest.failf "t=%.3e: got %.4f expected %.4f" t vo.(i) expected)
          times);
    u "trapezoidal integration converges with step refinement" (fun () ->
        let r = 1e3 and cap = 1e-9 and v = 1.0 in
        let tau = r *. cap in
        let err steps =
          let _, out, result = rc_step ~r ~cap ~v ~t_stop:tau ~steps in
          let vo = Transient.voltage_of result out in
          let t_end = (Transient.times result).(Array.length vo - 1) in
          Float.abs (vo.(Array.length vo - 1) -. (v *. (1.0 -. exp (-.t_end /. tau))))
        in
        let e1 = err 50 and e2 = err 100 in
        Alcotest.(check bool) "second order" true (e2 < e1 /. 2.5));
    u "supply energy of charging a capacitor is C V^2" (fun () ->
        let r = 1e3 and cap = 1e-9 and v = 1.0 in
        let tau = r *. cap in
        let _, _, result = rc_step ~r ~cap ~v ~t_stop:(12.0 *. tau) ~steps:1200 in
        (* Source delivers C V^2: half stored, half burned in R. *)
        Test_util.check_rel "energy" ~rel:0.01 (cap *. v *. v)
          (Transient.energy_from_source result ~name:"V" ~vdd:v));
    u "inverter output falls when a pulse arrives" (fun () ->
        let pair = Circuits.Inverter.pair_of_physical phys90 in
        let vdd = 0.25 in
        let tp = Circuits.Chain.estimated_stage_delay pair (Circuits.Inverter.balanced_sizing ()) ~vdd in
        let input = N.Pulse { low = 0.0; high = vdd; delay = 5.0 *. tp; rise = tp;
                              fall = tp; width = 1000.0 *. tp; period = 4000.0 *. tp } in
        let fx = Circuits.Inverter.chain_fixture ~stages:1 pair ~vdd ~input in
        let sys = Mna.build fx.Circuits.Inverter.circuit in
        let out = fx.Circuits.Inverter.stage_nodes.(1) in
        let result = Transient.run sys ~probes:[ Node out ] ~t_stop:(60.0 *. tp) ~steps:300 in
        let vo = Transient.voltage_of result out in
        Test_util.check_rel "starts high" ~rel:0.05 vdd vo.(0);
        Test_util.check_in_range "ends low" ~lo:(-0.01) ~hi:(0.1 *. vdd)
          vo.(Array.length vo - 1));
    u "invalid step parameters are rejected" (fun () ->
        let c, _ = divider 1.0 1e3 1e3 in
        let sys = Mna.build c in
        Alcotest.check_raises "t_stop" (Invalid_argument "Transient.run: t_stop must be positive")
          (fun () -> ignore (Transient.run sys ~probes:[] ~t_stop:0.0 ~steps:10)));
    u "a run records only its probes" (fun () ->
        let sys, out, result = rc_step ~r:1e3 ~cap:1e-9 ~v:1.0 ~t_stop:1e-6 ~steps:10 in
        Alcotest.(check int) "probed node" 11 (Array.length (Transient.voltage_of result out));
        Alcotest.check_raises "unprobed node"
          (Invalid_argument
             "Transient.voltage_of: node 1 was not probed (probes: node 2, source \"V\")")
          (fun () -> ignore (Transient.voltage_of result 1));
        Alcotest.check_raises "unprobed source"
          (Invalid_argument
             "Transient.current_of: source \"W\" was not probed (probes: node 2, source \"V\")")
          (fun () -> ignore (Transient.current_of result "W"));
        Alcotest.check_raises "node outside the circuit"
          (Invalid_argument "Transient.run: no node 9 (nodes are 0..2)") (fun () ->
            ignore (Transient.run sys ~probes:[ Node 9 ] ~t_stop:1e-6 ~steps:10)));
    u "32-bit carry_delay at 32 nm converges on 200 coarse steps" (fun () ->
        (* The widest adder any test runs, at a step 4x coarser than the
           default: every step must converge, after at most one retreat to
           two half-steps, all along a 32-stage ripple.  Measured: 2.41e-6 s. *)
        Test_util.check_in_range "carry delay" ~lo:2.3e-6 ~hi:2.5e-6
          (Circuits.Adder.carry_delay ~steps:200 (sub32 ()) ~vdd:0.25 ~bits:32));
    streamed_crossings_prop;
  ]

let waveform_tests =
  [
    u "crossings of a sine find all level crossings" (fun () ->
        let times = Numerics.Vec.linspace 0.0 (2.0 *. Float.pi) 400 in
        let values = Array.map sin times in
        let ups = W.crossings ~times ~values ~level:0.0 W.Rising in
        let downs = W.crossings ~times ~values ~level:0.0 W.Falling in
        Alcotest.(check int) "rising" 1 (List.length ups);
        Alcotest.(check int) "falling" 1 (List.length downs));
    u "first_crossing respects the after bound" (fun () ->
        let times = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
        let values = [| 0.0; 1.0; 0.0; 1.0; 0.0 |] in
        (match W.first_crossing ~after:1.5 ~times ~values ~level:0.5 W.Rising with
         | Some t -> Test_util.check_float "second edge" 2.5 t
         | None -> Alcotest.fail "expected a crossing"));
    u "propagation delay between shifted ramps" (fun () ->
        let times = Numerics.Vec.linspace 0.0 10.0 101 in
        let input = Array.map (fun t -> if t > 2.0 then 1.0 else t /. 2.0) times in
        let output = Array.map (fun t -> if t > 5.0 then 1.0 else if t < 3.0 then 0.0 else (t -. 3.0) /. 2.0) times in
        (match W.propagation_delay ~times ~input ~output ~level:0.5 ~input_edge:W.Rising with
         | Some d -> Test_util.check_rel "delay" ~rel:1e-6 3.0 d
         | None -> Alcotest.fail "expected a delay"));
    u "average of a linear ramp is its midpoint" (fun () ->
        let times = Numerics.Vec.linspace 0.0 2.0 21 in
        let values = Array.map (fun t -> 3.0 *. t) times in
        Test_util.check_rel "avg" ~rel:1e-9 3.0
          (W.slice_average ~times ~values ~t0:0.0 ~t1:2.0));
    u "slice_average over a window of a step" (fun () ->
        let times = [| 0.0; 1.0; 1.0001; 3.0 |] in
        let values = [| 0.0; 0.0; 2.0; 2.0 |] in
        Test_util.check_rel "tail avg" ~rel:1e-3 2.0
          (W.slice_average ~times ~values ~t0:1.5 ~t1:3.0));
  ]

(* Work counters: at one domain, the Newton iterations and accepted
   transient steps a fixed job takes are a pure function of the code, so
   they are pinned exactly.  A change that moves them shows up here. *)
let work f =
  let value = Test_util.counter_value in
  let iters = value "spice.newton.iterations" and steps = value "spice.transient.steps" in
  f ();
  (value "spice.newton.iterations" - iters, value "spice.transient.steps" - steps)

let work_tests =
  [
    u "201-point VTC on the 32 nm sub-Vth pair at 250 mV" (fun () ->
        let pair =
          match Scaling.Strategy.resolve ~node:32 ~strategy:"sub" with
          | Ok (_, _, _, pair) -> pair
          | Error e -> Alcotest.fail e
        in
        let sizing = Circuits.Inverter.balanced_sizing () in
        let iters, steps =
          work (fun () -> ignore (Analysis.Vtc.spice ~points:201 pair ~sizing ~vdd:0.25))
        in
        Alcotest.(check int) "newton iterations" 692 iters;
        Alcotest.(check int) "transient steps" 0 steps);
    u "fixed-step inverter transient" (fun () ->
        let pair = Circuits.Inverter.pair_of_physical phys90 in
        let vdd = 0.25 in
        let tp =
          Circuits.Chain.estimated_stage_delay pair (Circuits.Inverter.balanced_sizing ()) ~vdd
        in
        let input = N.Pulse { low = 0.0; high = vdd; delay = 5.0 *. tp; rise = tp;
                              fall = tp; width = 1000.0 *. tp; period = 4000.0 *. tp } in
        let fx = Circuits.Inverter.chain_fixture ~stages:1 pair ~vdd ~input in
        let sys = Mna.build fx.Circuits.Inverter.circuit in
        let iters, steps =
          work (fun () -> ignore (Transient.run sys ~probes:[] ~t_stop:(60.0 *. tp) ~steps:300))
        in
        Alcotest.(check int) "newton iterations" 378 iters;
        Alcotest.(check int) "transient steps" 300 steps);
  ]

(* Memory: one Newton workspace per transient, and no waveform recorded
   where only crossings are read.  At one domain both are a pure function
   of the code. *)

(* Words allocated directly in the major heap (past the minor heap's size
   limit).  Gc.counters is exact between collections; quick_stat samples. *)
let direct () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let memory_tests =
  [
    u "8-bit carry_delay at 32 nm: no per-step Jacobian or state history" (fun () ->
        let pair = sub32 () in
        let vdd = 0.25 and bits = 8 and steps = 800 in
        let adder = Circuits.Adder.ripple_carry pair ~vdd ~bits in
        (* The one-time share: Mna.build's symbolic LU index arrays are
           past the minor heap's size limit. *)
        let build0 = direct () in
        ignore (Mna.build adder.Circuits.Adder.circuit);
        let build_words = direct () -. build0 in
        (* Warm the memo tables the delay estimate reads. *)
        ignore (Circuits.Adder.carry_delay ~steps:40 pair ~vdd ~bits);
        (* Minor and direct major words of one carry_delay of [steps]. *)
        let run steps =
          let steps0 = Test_util.counter_value "spice.transient.steps" in
          let minor0 = Gc.minor_words () and direct0 = direct () in
          ignore (Circuits.Adder.carry_delay ~steps pair ~vdd ~bits);
          let minor1 = Gc.minor_words () and direct1 = direct () in
          let n_steps = Test_util.counter_value "spice.transient.steps" - steps0 in
          Alcotest.(check int) "accepted steps" steps n_steps;
          (minor1 -. minor0, direct1 -. direct0)
        in
        let minor_half, _ = run (steps / 2) in
        let minor_full, direct_full = run steps in
        (* The difference of two runs leaves out the one-time share (the
           netlist and Mna.build: 32.3k words at n = 180).  Measured: 0
           words per step (43.4 before the Newton run and the step loop
           stopped boxing floats and building closures), so any word a
           step allocates fails the bound. *)
        Test_util.check_in_range "minor words per step" ~lo:0.0 ~hi:1.0
          ((minor_full -. minor_half) /. float_of_int (steps - (steps / 2)));
        (* Measured: 3167 words, all of them the one Mna.build's (the
           stamp table and the symbolic LU).  The transient records no
           waveform, so it allocates nothing there itself; recording the
           time axis and the probe took 1604 words, every state vector
           147k. *)
        Test_util.check_in_range "direct major words" ~lo:0.0 ~hi:(512.0 +. build_words)
          direct_full);
    u "8-bit adder Dcop.solve: no minor words per Newton iteration" (fun () ->
        let adder = Circuits.Adder.ripple_carry (sub32 ()) ~vdd:0.25 ~bits:8 in
        let sys = Mna.build adder.Circuits.Adder.circuit in
        let n = Mna.size sys in
        let ws = Dcop.workspace sys in
        ignore (Dcop.solve_in ws sys);
        let counter = Test_util.counter_value in
        let iters0 = counter "spice.newton.iterations"
        and lu0 = counter "numerics.sparse_lu.factorizations" in
        let minor0 = Gc.minor_words () in
        ignore (Dcop.solve_in ws sys);
        let words = Gc.minor_words () -. minor0 in
        let iters = counter "spice.newton.iterations" - iters0 in
        (* The direct solve gives up after 120 iterations and source
           stepping takes 89 more, one factorization each. *)
        Alcotest.(check int) "Newton iterations" 209 iters;
        Alcotest.(check int) "one factorization per iteration" iters
          (counter "numerics.sparse_lu.factorizations" - lu0);
        (* Measured: 543 minor words, all of them three vectors of n + 1
           words (the zero start, source stepping's zero start and the
           returned copy), so 0 per iteration.  The parent made 2,694, 12.9
           an iteration: a boxed source scale, the override list and a
           MOSFET bias buffer per assembly, a closure and an option per
           Newton run. *)
        let vectors = 3.0 *. float_of_int (n + 1) in
        Test_util.check_in_range "minor words per iteration" ~lo:0.0 ~hi:0.5
          ((words -. vectors) /. float_of_int iters));
    u "bits of the 8-bit carry_delay at 32 nm" (fun () ->
        Test_util.check_bits "carry delay"
          (Test_util.bit_pin "carry-delay-32-sub-8b").(0)
          (Circuits.Adder.carry_delay (sub32 ()) ~vdd:0.25 ~bits:8));
    u "one Cell_lib.measure arc: no recorded waveform" (fun () ->
        (* The deck and the crossings of Cell_lib.measure's INV arc at the
           middle grid point (slew 2 tp, load 1.5 C_L, input rising) of the
           90 nm library at 250 mV, which measures on 420 steps. *)
        let pair = Circuits.Inverter.pair_of_physical phys90 in
        let sizing = Circuits.Inverter.balanced_sizing () and vdd = 0.25 and steps = 420 in
        let tp = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
        let cl = Circuits.Inverter.load_capacitance pair sizing in
        let slew = 2.0 *. tp and load = 1.5 *. cl in
        let window = (2.0 *. slew) +. (40.0 *. tp *. (1.0 +. (load /. cl))) in
        let t0 = 0.05 *. window in
        let build0 = direct () in
        let fx = Circuits.Stdcell.inv ~sizing pair ~vdd in
        N.add fx.Circuits.Stdcell.circuit
          (N.Capacitor { plus = fx.Circuits.Stdcell.out_node; minus = N.ground; farads = 0.0 });
        let arc = Mna.build fx.Circuits.Stdcell.circuit and node = fx.Circuits.Stdcell.out_node in
        let build_words = direct () -. build0 in
        let run steps =
          let steps0 = Test_util.counter_value "spice.transient.steps" in
          let minor0 = Gc.minor_words () and direct0 = direct () in
          let sys =
            Mna.with_values
              ~waves:[ ("VA", N.Pwl [ (0.0, 0.0); (t0, 0.0); (t0 +. slew, vdd) ]) ]
              ~farads:[ (0, load) ] arc
          in
          let crossings =
            Transient.first_crossings sys ~node ~levels:[ 0.5 *. vdd; 0.2 *. vdd; 0.8 *. vdd ]
              ~after:(0.5 *. t0) ~t_stop:window ~steps
          in
          let minor1 = Gc.minor_words () and direct1 = direct () in
          Alcotest.(check int) "accepted steps" steps
            (Test_util.counter_value "spice.transient.steps" - steps0);
          Alcotest.(check bool) "all three levels crossed" true
            (List.for_all Option.is_some crossings);
          (minor1 -. minor0, direct1 -. direct0)
        in
        let minor_half, _ = run (steps / 2) in
        let minor_full, direct_full = run steps in
        (* Measured: 0 minor words per step (39.1 before), and no direct
           major words: the deck's Mna.build is below the minor heap's size
           limit too, and each run only sets the input ramp and the load on
           it. *)
        Test_util.check_in_range "minor words per step" ~lo:0.0 ~hi:1.0
          ((minor_full -. minor_half) /. float_of_int (steps - (steps / 2)));
        Test_util.check_in_range "direct major words" ~lo:0.0 ~hi:(512.0 +. build_words)
          direct_full);
    u "8-bit adder build: minor and promoted words" (fun () ->
        let adder = Circuits.Adder.ripple_carry (sub32 ()) ~vdd:0.25 ~bits:8 in
        (* From an empty minor heap, and collected at once, so no minor
           collection falls inside the build: the promoted words are the
           built system itself.  Measured: 25,312 minor words and 9,439
           promoted, the adder's two devices prepared once each (34,445
           and 12.85k-12.88k with coefficients prepared per transistor;
           39,188 minor with a (row, col) tuple per slot handed to
           Sparse_lu.analyse, 49,181 with an assoc-list slot table, which
           promoted 20.8k-20.9k). *)
        Gc.minor ();
        let minor0 = Gc.minor_words () and _, promoted0, _ = Gc.counters () in
        let sys = Mna.build adder.Circuits.Adder.circuit in
        Gc.minor ();
        let minor1 = Gc.minor_words () and _, promoted1, _ = Gc.counters () in
        Alcotest.(check int) "unknowns" 180 (Mna.size sys);
        Test_util.check_in_range "minor words" ~lo:0.0 ~hi:(1.05 *. 25_312.0) (minor1 -. minor0);
        Test_util.check_in_range "promoted words" ~lo:0.0 ~hi:(1.05 *. 9_439.0)
          (promoted1 -. promoted0));
    u "one Cell_lib arc's 3x3 grid and both edges make one build" (fun () ->
        let pair = Circuits.Inverter.pair_of_physical phys90 in
        let builds kind =
          let before = Test_util.counter_value "spice.mna.builds" in
          let cell = Sta.Cell_lib.characterize_cell pair ~vdd:0.25 kind in
          Alcotest.(check int) "arcs" (Sta.Cell_lib.input_count kind)
            (Array.length cell.Sta.Cell_lib.arcs);
          Test_util.counter_value "spice.mna.builds" - before
        in
        (* The leakage states solve on pin 0's system. *)
        Alcotest.(check int) "INV: one arc" 1 (builds Sta.Cell_lib.Inv);
        Alcotest.(check int) "NAND2: one per pin" 2 (builds Sta.Cell_lib.Nand2));
  ]

let suite =
  [
    ("spice.netlist", netlist_tests);
    ("spice.mna", mna_tests);
    ("spice.dcop", dcop_tests);
    ("spice.dcsweep", dcsweep_tests);
    ("spice.transient", transient_tests);
    ("spice.waveform", waveform_tests);
    ("spice.work", work_tests);
    ("spice.memory", memory_tests);
  ]
