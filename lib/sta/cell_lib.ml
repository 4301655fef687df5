type cell_kind = Inv | Nand2 | Nor2

let cell_name = function Inv -> "INV" | Nand2 -> "NAND2" | Nor2 -> "NOR2"

let input_count = function Inv -> 1 | Nand2 -> 2 | Nor2 -> 2

type arc = {
  pin : int;
  delay_output_rise : Lut.t;
  delay_output_fall : Lut.t;
  slew_output_rise : Lut.t;
  slew_output_fall : Lut.t;
}

type cell = {
  kind : cell_kind;
  vdd : float;
  input_cap : float;
  arcs : arc array;
  leakage : (bool array * float) list;
}

type library = {
  pair : Circuits.Inverter.pair;
  sizing : Circuits.Inverter.sizing;
  lib_vdd : float;
  cells : (cell_kind * cell) list;
}

(* Non-controlling value for the inactive pin: NAND needs 1, NOR needs 0. *)
let non_controlling = function Inv -> 0.0 (* unused *) | Nand2 -> 1.0 | Nor2 -> 0.0

let fixture kind ?sizing pair ~vdd ~pin ~active_wave =
  let quiet = Spice.Netlist.Dc (non_controlling kind *. vdd) in
  let a_wave, b_wave =
    if pin = 0 then (active_wave, quiet) else (quiet, active_wave)
  in
  match kind with
  | Inv -> Circuits.Stdcell.inv ?sizing ~a_wave ~b_wave pair ~vdd
  | Nand2 -> Circuits.Stdcell.nand2 ?sizing ~a_wave ~b_wave pair ~vdd
  | Nor2 -> Circuits.Stdcell.nor2 ?sizing ~a_wave ~b_wave pair ~vdd

(* One measurement: apply an input ramp of the given edge, return
   (propagation delay, output slew).  [window] bounds the transient. *)
let measure kind ?sizing pair ~vdd ~pin ~input_rising ~slew ~load ~window =
  let t0 = 0.05 *. window in
  let active_wave =
    if input_rising then Spice.Netlist.Pwl [ (0.0, 0.0); (t0, 0.0); (t0 +. slew, vdd) ]
    else Spice.Netlist.Pwl [ (0.0, vdd); (t0, vdd); (t0 +. slew, 0.0) ]
  in
  let fx = fixture kind ?sizing pair ~vdd ~pin ~active_wave in
  Spice.Netlist.add fx.Circuits.Stdcell.circuit
    (Spice.Netlist.Capacitor
       { plus = fx.Circuits.Stdcell.out_node; minus = Spice.Netlist.ground; farads = load });
  let sys = Spice.Mna.build fx.Circuits.Stdcell.circuit in
  let result =
    Spice.Transient.run sys ~probes:[ Spice.Transient.Node fx.Circuits.Stdcell.out_node ]
      ~t_stop:window ~steps:420
  in
  let times = Spice.Transient.times result in
  let vout = Spice.Transient.voltage_of result fx.Circuits.Stdcell.out_node in
  let t_in = t0 +. (0.5 *. slew) in
  let crossing level =
    Spice.Waveform.first_crossing ~after:(0.5 *. t0) ~times ~values:vout ~level
      Spice.Waveform.Either
  in
  match crossing (0.5 *. vdd) with
  | None -> None
  | Some t_out ->
    let lo = 0.2 *. vdd and hi = 0.8 *. vdd in
    let slew_out =
      match (crossing lo, crossing hi) with
      | Some ta, Some tb -> Float.abs (tb -. ta) /. 0.6
      | _, _ -> 0.0
    in
    Some (t_out -. t_in, slew_out)

let default_grids pair sizing ~vdd =
  let cl = Circuits.Inverter.load_capacitance pair sizing in
  let tp = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
  let slews = [| 0.5 *. tp; 2.0 *. tp; 8.0 *. tp |] in
  let loads = [| 0.5 *. cl; 1.5 *. cl; 5.0 *. cl |] in
  (slews, loads)

let state_vectors kind =
  match input_count kind with
  | 1 -> [ [| false |]; [| true |] ]
  | _ -> [ [| false; false |]; [| false; true |]; [| true; false |]; [| true; true |] ]

let leakage_of kind ?sizing pair ~vdd =
  let fx = fixture kind ?sizing pair ~vdd ~pin:0 ~active_wave:(Spice.Netlist.Dc 0.0) in
  let sys = Spice.Mna.build fx.Circuits.Stdcell.circuit in
  List.map
    (fun state ->
      let level i = if state.(Int.min i (Array.length state - 1)) then vdd else 0.0 in
      let overrides =
        [ (fx.Circuits.Stdcell.a_name, level 0); (fx.Circuits.Stdcell.b_name, level 1) ]
      in
      let x = Spice.Dcop.solve ~overrides sys in
      (state, Float.abs (Spice.Mna.source_current sys x fx.Circuits.Stdcell.vdd_name)))
    (state_vectors kind)

let characterize_cell pair ~vdd kind =
  let sizing = Circuits.Inverter.balanced_sizing () in
  let slews, loads = default_grids pair sizing ~vdd in
  let ns = Array.length slews and nl = Array.length loads in
  let tp = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
  let arc_for pin =
    (* One transient per grid point measures both the delay and the slew. *)
    let tables input_rising =
      let points =
        Array.init ns (fun i ->
            Array.init nl (fun j ->
                let slew = slews.(i) and load = loads.(j) in
                (* Window: input ramp + generous settle for the heaviest load. *)
                let window =
                  (2.0 *. slew)
                  +. (40.0 *. tp
                      *. (1.0 +. (load /. Circuits.Inverter.load_capacitance pair sizing)))
                in
                match
                  measure kind ~sizing pair ~vdd ~pin ~input_rising ~slew ~load ~window
                with
                | Some point -> point
                | None ->
                  failwith
                    (Printf.sprintf "Cell_lib: %s pin %d did not switch (slew %g, load %g)"
                       (cell_name kind) pin slew load)))
      in
      let lut pick = Lut.create ~slews ~loads ~values:(Array.map (Array.map pick) points) in
      (lut fst, lut snd)
    in
    (* Negative unate: falling input -> rising output. *)
    let delay_output_rise, slew_output_rise = tables false in
    let delay_output_fall, slew_output_fall = tables true in
    { pin; delay_output_rise; delay_output_fall; slew_output_rise; slew_output_fall }
  in
  {
    kind;
    vdd;
    input_cap = Circuits.Inverter.gate_capacitance pair sizing;
    arcs = Array.init (input_count kind) arc_for;
    leakage = leakage_of kind ~sizing pair ~vdd;
  }

let characterize pair ~vdd =
  let sizing = Circuits.Inverter.balanced_sizing () in
  {
    pair;
    sizing;
    lib_vdd = vdd;
    cells =
      List.map
        (fun kind -> (kind, characterize_cell pair ~vdd kind))
        [ Inv; Nand2; Nor2 ];
  }

let find lib kind = List.assoc kind lib.cells
