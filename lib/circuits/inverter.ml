type sizing = { wn : float; wp : float }

let balanced_sizing () = { wn = 1e-6; wp = 1e-6 *. Device.Compact.mobility_ratio }

type pair = { nfet : Device.Compact.t; pfet : Device.Compact.t }

let pair_of_physical ?cal phys =
  { nfet = Device.Compact.nfet ?cal phys; pfet = Device.Compact.pfet ?cal phys }

let gate_capacitance pair sizing =
  (pair.nfet.Device.Compact.cg *. sizing.wn) +. (pair.pfet.Device.Compact.cg *. sizing.wp)

let load_capacitance pair sizing =
  let load_factor = Device.Params.read_load_factor pair.nfet.Device.Compact.cal in
  load_factor *. gate_capacitance pair sizing

type dc_fixture = {
  circuit : Spice.Netlist.t;
  vin_name : string;
  vdd_name : string;
  out_node : int;
  in_node : int;
}

let add_inverter c pair sizing ~vdd_node ~in_node ~out_node =
  Spice.Netlist.add c
    (Spice.Netlist.Nmos
       { dev = pair.nfet; width = sizing.wn; drain = out_node; gate = in_node;
         source = Spice.Netlist.ground });
  Spice.Netlist.add c
    (Spice.Netlist.Pmos
       { dev = pair.pfet; width = sizing.wp; drain = out_node; gate = in_node;
         source = vdd_node })

let dc ?(sizing = balanced_sizing ()) pair ~vdd =
  let c = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.node c "vdd" in
  let in_node = Spice.Netlist.node c "in" in
  let out_node = Spice.Netlist.node c "out" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VDD"; plus = vdd_node; minus = Spice.Netlist.ground; wave = Dc vdd });
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VIN"; plus = in_node; minus = Spice.Netlist.ground; wave = Dc 0.0 });
  add_inverter c pair sizing ~vdd_node ~in_node ~out_node;
  { circuit = c; vin_name = "VIN"; vdd_name = "VDD"; out_node; in_node }

type transient_fixture = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  stage_nodes : int array;
}

let chain_fixture ?(sizing = balanced_sizing ()) ?(stages = 4) pair ~vdd ~input =
  if stages < 1 then invalid_arg "Inverter.chain_fixture: need at least one stage";
  let c = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.node c "vdd" in
  let in_node = Spice.Netlist.node c "in" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VDD"; plus = vdd_node; minus = Spice.Netlist.ground; wave = Dc vdd });
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VIN"; plus = in_node; minus = Spice.Netlist.ground; wave = input });
  let cl = load_capacitance pair sizing in
  let nodes = Array.make (stages + 1) in_node in
  let prev = ref in_node in
  for stage = 1 to stages do
    let out = Spice.Netlist.node c (Printf.sprintf "s%d" stage) in
    add_inverter c pair sizing ~vdd_node ~in_node:!prev ~out_node:out;
    Spice.Netlist.add c
      (Spice.Netlist.Capacitor { plus = out; minus = Spice.Netlist.ground; farads = cl });
    nodes.(stage) <- out;
    prev := out
  done;
  { circuit = c; vdd_name = "VDD"; stage_nodes = nodes }

(* Tapered buffer chain: stage i uses the base sizing scaled by scales.(i).
   Gate capacitance is explicit (the MOSFET model carries none), so node i
   carries the next stage's input capacitance plus the driving stage's own
   parasitic, (load_factor - 1) x its gate cap; the last node carries
   [final_load] plus its driver's parasitic. *)
let tapered_chain_fixture ~scales pair ~vdd ~input ~final_load =
  let sizing = balanced_sizing () in
  let stages = Array.length scales in
  if stages < 1 then invalid_arg "Inverter.tapered_chain_fixture: need at least one stage";
  Array.iter
    (fun s -> if s <= 0.0 then invalid_arg "Inverter.tapered_chain_fixture: bad scale")
    scales;
  let c = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.node c "vdd" in
  let in_node = Spice.Netlist.node c "in" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VDD"; plus = vdd_node; minus = Spice.Netlist.ground; wave = Dc vdd });
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VIN"; plus = in_node; minus = Spice.Netlist.ground; wave = input });
  let load_factor = Device.Params.read_load_factor pair.nfet.Device.Compact.cal in
  let scaled k = { wn = sizing.wn *. scales.(k); wp = sizing.wp *. scales.(k) } in
  let nodes = Array.make (stages + 1) in_node in
  let prev = ref in_node in
  for stage = 0 to stages - 1 do
    let out = Spice.Netlist.node c (Printf.sprintf "t%d" (stage + 1)) in
    add_inverter c pair (scaled stage) ~vdd_node ~in_node:!prev ~out_node:out;
    let parasitic = (load_factor -. 1.0) *. gate_capacitance pair (scaled stage) in
    let next_gate =
      if stage < stages - 1 then gate_capacitance pair (scaled (stage + 1)) else final_load
    in
    Spice.Netlist.add c
      (Spice.Netlist.Capacitor
         { plus = out; minus = Spice.Netlist.ground; farads = parasitic +. next_gate });
    nodes.(stage + 1) <- out;
    prev := out
  done;
  { circuit = c; vdd_name = "VDD"; stage_nodes = nodes }
