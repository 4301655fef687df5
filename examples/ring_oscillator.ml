(* Ring-oscillator frequency across the sub-Vth supply range.

   The intro's observation: sub-Vth logic runs in the kHz..MHz range.  We
   build a 7-stage ring from the 90 nm device and measure its oscillation
   frequency from a transient at several supplies.

     dune exec examples/ring_oscillator.exe *)

open Subscale

let measure_frequency pair ~vdd =
  let sizing = Circuits.Inverter.balanced_sizing () in
  let ring = Circuits.Ring.build ~sizing ~stages:7 pair ~vdd in
  let sys =
    Spice.Mna.build
      (Check.checked_netlist ~what:"ring oscillator deck" ring.Circuits.Ring.circuit)
  in
  let x0 = Circuits.Ring.kick ring sys in
  let tp = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
  (* Simulate long enough for several cycles of the ideal period 2 N tp. *)
  let t_stop = 8.0 *. 2.0 *. 7.0 *. tp in
  let result =
    Spice.Transient.run ~x0 sys
      ~probes:[ Spice.Transient.Node ring.Circuits.Ring.stage_nodes.(0) ]
      ~t_stop ~steps:2500
  in
  match Circuits.Ring.oscillation_period ring sys result with
  | Some period -> Some (1.0 /. period)
  | None -> None

let () =
  let phys = List.hd Device.Params.paper_table2 in
  let pair = Circuits.Inverter.pair_of_physical phys in
  Printf.printf "7-stage ring oscillator, 90 nm super-Vth device\n\n";
  Printf.printf "%-10s %-14s\n" "Vdd (mV)" "frequency";
  List.iter
    (fun vdd ->
      match measure_frequency pair ~vdd with
      | Some f ->
        let unit, scale = if f >= 1e6 then ("MHz", 1e-6) else ("kHz", 1e-3) in
        Printf.printf "%-10.0f %10.2f %s\n" (1000.0 *. vdd) (f *. scale) unit
      | None -> Printf.printf "%-10.0f (no oscillation captured)\n" (1000.0 *. vdd))
    [ 0.20; 0.25; 0.30; 0.35; 0.40 ];
  print_newline ();
  Printf.printf "Frequency rises exponentially with Vdd -- the energy-performance\n";
  Printf.printf "trade-off that motivates operating at Vmin (paper Sec. 1).\n"
