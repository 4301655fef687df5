type config = Hold | Read

type t = {
  pair : Inverter.pair;
  sizing : Inverter.sizing;
  w_access : float;
  vdd : float;
}

let make ?(beta = 1.5) pair ~vdd =
  if beta <= 0.0 then invalid_arg "Sram.make: beta must be positive";
  let sizing = Inverter.balanced_sizing () in
  { pair; sizing; w_access = sizing.Inverter.wn /. beta; vdd }

(* One half cell: inverter (in -> out) plus, in Read config, an access NFET
   from the bitline (held at vdd) to the storage node, gate at vdd. *)
let half_cell_circuit cell config =
  let c = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.node c "vdd" in
  let in_node = Spice.Netlist.node c "in" in
  let out_node = Spice.Netlist.node c "out" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VDD"; plus = vdd_node; minus = Spice.Netlist.ground; wave = Dc cell.vdd });
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VIN"; plus = in_node; minus = Spice.Netlist.ground; wave = Dc 0.0 });
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = cell.pair.Inverter.nfet; width = cell.sizing.Inverter.wn; drain = out_node;
         gate = in_node; source = Spice.Netlist.ground });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = cell.pair.Inverter.pfet; width = cell.sizing.Inverter.wp; drain = out_node;
         gate = in_node; source = vdd_node });
  (match config with
   | Hold -> ()
   | Read ->
     (* Bitline precharged to vdd, wordline at vdd: access NFET source is the
        storage node, drain the bitline. *)
     Spice.Netlist.add c
       (Spice.Netlist.Nmos
          { dev = cell.pair.Inverter.nfet; width = cell.w_access; drain = vdd_node;
            gate = vdd_node; source = out_node }));
  (c, out_node)

let half_cell_vtc cell config ~vin =
  let c, out_node = half_cell_circuit cell config in
  let sys = Spice.Mna.build c in
  let sweep = Spice.Dcsweep.run sys ~source:"VIN" ~values:vin in
  Spice.Dcsweep.probe sys sweep ~node:out_node

let butterfly ?(points = 61) cell config =
  let vin = Numerics.Vec.linspace 0.0 cell.vdd points in
  let vtc = half_cell_vtc cell config ~vin in
  (vin, vtc, Array.copy vtc)
