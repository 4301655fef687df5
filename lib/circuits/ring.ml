type t = {
  circuit : Spice.Netlist.t;
  vdd_name : string;
  stage_nodes : int array;
  vdd : float;
  stages : int;
}

let build ?(sizing = Inverter.balanced_sizing ()) ?(stages = 7) pair ~vdd =
  if stages < 3 || stages mod 2 = 0 then
    invalid_arg "Ring.build: stage count must be odd and >= 3";
  let c = Spice.Netlist.create () in
  let vdd_node = Spice.Netlist.node c "vdd" in
  Spice.Netlist.add c
    (Spice.Netlist.Voltage_source
       { name = "VDD"; plus = vdd_node; minus = Spice.Netlist.ground; wave = Dc vdd });
  let nodes = Array.init stages (fun i -> Spice.Netlist.node c (Printf.sprintf "r%d" i)) in
  let cl = Inverter.load_capacitance pair sizing in
  for i = 0 to stages - 1 do
    let in_node = nodes.(i) in
    let out_node = nodes.((i + 1) mod stages) in
    Spice.Netlist.add c
      (Spice.Netlist.Nmos
         { dev = pair.Inverter.nfet; width = sizing.Inverter.wn; drain = out_node;
           gate = in_node; source = Spice.Netlist.ground });
    Spice.Netlist.add c
      (Spice.Netlist.Pmos
         { dev = pair.Inverter.pfet; width = sizing.Inverter.wp; drain = out_node;
           gate = in_node; source = vdd_node });
    Spice.Netlist.add c
      (Spice.Netlist.Capacitor
         { plus = out_node; minus = Spice.Netlist.ground; farads = cl })
  done;
  { circuit = c; vdd_name = "VDD"; stage_nodes = nodes; vdd; stages }

let kick ring sys =
  let x = Spice.Dcop.solve sys in
  (* Nudge the first ring node: node indices are 1-based in the unknown
     vector (ground eliminated). *)
  let node = ring.stage_nodes.(0) in
  x.(node - 1) <- x.(node - 1) +. (0.15 *. ring.vdd);
  x

let oscillation_period ring _sys result =
  let times = Spice.Transient.times result in
  let values = Spice.Transient.voltage_of result ring.stage_nodes.(0) in
  let level = 0.5 *. ring.vdd in
  let rising = Spice.Waveform.crossings ~times ~values ~level Spice.Waveform.Rising in
  match List.rev rising with
  | t2 :: t1 :: _ -> Some (t2 -. t1)
  | [ _ ] | [] -> None
