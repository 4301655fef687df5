type fixture = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  a_name : string;
  b_name : string;
  out_node : int;
}

let base ?(a_wave = Spice.Netlist.Dc 0.0) ?(b_wave = Spice.Netlist.Dc 0.0) pair vdd =
  ignore pair;
  let c = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.node c "vdd" in
  let a_node = Spice.Netlist.node c "a" in
  let b_node = Spice.Netlist.node c "b" in
  let out_node = Spice.Netlist.node c "out" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VDD"; plus = vdd_node; minus = Spice.Netlist.ground; wave = Dc vdd });
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VA"; plus = a_node; minus = Spice.Netlist.ground; wave = a_wave });
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VB"; plus = b_node; minus = Spice.Netlist.ground; wave = b_wave });
  (c, vdd_node, a_node, b_node, out_node)

let inv ?(sizing = Inverter.balanced_sizing ()) ?a_wave ?b_wave pair ~vdd =
  let c, vdd_node, a_node, b_node, out_node = base ?a_wave ?b_wave pair vdd in
  ignore b_node;
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Inverter.nfet; width = sizing.Inverter.wn; drain = out_node;
         gate = a_node; source = Spice.Netlist.ground });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.Inverter.pfet; width = sizing.Inverter.wp; drain = out_node;
         gate = a_node; source = vdd_node });
  { circuit = c; vdd_name = "VDD"; a_name = "VA"; b_name = "VB"; out_node }

let nand2 ?(sizing = Inverter.balanced_sizing ()) ?a_wave ?b_wave pair ~vdd =
  let c, vdd_node, a_node, b_node, out_node = base ?a_wave ?b_wave pair vdd in
  let mid = Spice.Netlist.node c "mid" in
  (* Series NFETs are double width to keep the worst-case pull-down drive. *)
  let wn2 = 2.0 *. sizing.Inverter.wn in
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Inverter.nfet; width = wn2; drain = out_node; gate = a_node; source = mid });
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Inverter.nfet; width = wn2; drain = mid; gate = b_node;
         source = Spice.Netlist.ground });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.Inverter.pfet; width = sizing.Inverter.wp; drain = out_node; gate = a_node;
         source = vdd_node });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.Inverter.pfet; width = sizing.Inverter.wp; drain = out_node; gate = b_node;
         source = vdd_node });
  { circuit = c; vdd_name = "VDD"; a_name = "VA"; b_name = "VB"; out_node }

let nor2 ?(sizing = Inverter.balanced_sizing ()) ?a_wave ?b_wave pair ~vdd =
  let c, vdd_node, a_node, b_node, out_node = base ?a_wave ?b_wave pair vdd in
  let mid = Spice.Netlist.node c "mid" in
  let wp2 = 2.0 *. sizing.Inverter.wp in
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.Inverter.pfet; width = wp2; drain = mid; gate = a_node; source = vdd_node });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.Inverter.pfet; width = wp2; drain = out_node; gate = b_node; source = mid });
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Inverter.nfet; width = sizing.Inverter.wn; drain = out_node; gate = a_node;
         source = Spice.Netlist.ground });
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.Inverter.nfet; width = sizing.Inverter.wn; drain = out_node; gate = b_node;
         source = Spice.Netlist.ground });
  { circuit = c; vdd_name = "VDD"; a_name = "VA"; b_name = "VB"; out_node }
