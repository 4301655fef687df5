(* A miniature signoff flow at the sub-Vth operating point:

   1. characterize an NLDM cell library (INV/NAND2/NOR2) at 250 mV by
      transient simulation;
   2. build a gate-level design (8-bit ripple-carry adder);
   3. run static timing analysis with and without wire loads;
   4. cross-check the critical path against the transistor-level transient.

     dune exec examples/sta_flow.exe      (takes a few seconds) *)

open Subscale

let () =
  let phys = List.hd Device.Params.paper_table2 in
  let pair = Circuits.Inverter.pair_of_physical phys in
  let vdd = 0.25 in

  Printf.printf "1. characterizing the cell library at %.0f mV...\n%!" (1000.0 *. vdd);
  let lib = Sta.Cell_lib.characterize pair ~vdd in
  let show kind =
    let cell = Sta.Cell_lib.find lib kind in
    let arc = cell.Sta.Cell_lib.arcs.(0) in
    let slews = Sta.Lut.slews arc.Sta.Cell_lib.delay_output_fall in
    let loads = Sta.Lut.loads arc.Sta.Cell_lib.delay_output_fall in
    Printf.printf "   %-6s tpHL %6.1f..%6.1f ns  leakage %.0f..%.0f pA\n"
      (Sta.Cell_lib.cell_name kind)
      (1e9 *. Sta.Lut.eval arc.Sta.Cell_lib.delay_output_fall ~slew:slews.(0) ~load:loads.(0))
      (1e9 *. Sta.Lut.eval arc.Sta.Cell_lib.delay_output_fall ~slew:slews.(2) ~load:loads.(2))
      (1e12 *. List.fold_left (fun a (_, i) -> Float.min a i) infinity cell.Sta.Cell_lib.leakage)
      (1e12 *. List.fold_left (fun a (_, i) -> Float.max a i) 0.0 cell.Sta.Cell_lib.leakage)
  in
  List.iter show [ Sta.Cell_lib.Inv; Sta.Cell_lib.Nand2; Sta.Cell_lib.Nor2 ];

  Printf.printf "\n2. building the 8-bit ripple-carry adder netlist...\n";
  let bits = 8 in
  let d = (Sta.Design.adder ~bits).Sta.Design.design in
  Printf.printf "   %d NAND2 gates, %d nets\n" (List.length (Sta.Design.gates d))
    (Sta.Design.n_nets d);

  Printf.printf "\n3. static timing analysis...\n";
  let report = Sta.Engine.analyze lib (Check.checked_design ~what:"rca8" d) in
  Printf.printf "   critical path : %.2f us through %d gates (carry chain)\n"
    (1e6 *. report.Sta.Engine.critical_time)
    (List.length report.Sta.Engine.critical_path);
  let inv = Sta.Cell_lib.find lib Sta.Cell_lib.Inv in
  let wired =
    Sta.Engine.analyze ~wire_cap:(fun _ -> 2.0 *. inv.Sta.Cell_lib.input_cap) lib d
  in
  Printf.printf "   with wire caps: %.2f us (+%.0f%%)\n"
    (1e6 *. wired.Sta.Engine.critical_time)
    (100.0 *. ((wired.Sta.Engine.critical_time /. report.Sta.Engine.critical_time) -. 1.0));

  Printf.printf "\n4. transistor-level cross-check...\n";
  let spice = Circuits.Adder.carry_delay pair ~vdd ~bits in
  Printf.printf "   SPICE carry delay: %.2f us -> STA margin %.2fx (conservative, as it should be)\n"
    (1e6 *. spice)
    (report.Sta.Engine.critical_time /. spice)
