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

(* One arc's system: the cell's fixture with [pin] as its active input
   and a load capacitor on the output, built once.  The inactive input
   sits at its non-controlling level.  [measure] sets the input ramp and
   the load's value on the system; until then the active input is a DC 0
   and the load 0 F. *)
type arc_system = {
  sys : Spice.Mna.system;
  fx : Circuits.Stdcell.fixture;
  active : string;  (* the active input's source *)
  load : int;  (* the load's capacitor index *)
}

let arc_system kind ~sizing pair ~vdd ~pin =
  let quiet = Spice.Netlist.Dc (non_controlling kind *. vdd) and active = Spice.Netlist.Dc 0.0 in
  let a_wave, b_wave = if pin = 0 then (active, quiet) else (quiet, active) in
  let fx =
    match kind with
    | Inv -> Circuits.Stdcell.inv ~sizing ~a_wave ~b_wave pair ~vdd
    | Nand2 -> Circuits.Stdcell.nand2 ~sizing ~a_wave ~b_wave pair ~vdd
    | Nor2 -> Circuits.Stdcell.nor2 ~sizing ~a_wave ~b_wave pair ~vdd
  in
  Spice.Netlist.add fx.Circuits.Stdcell.circuit
    (Spice.Netlist.Capacitor
       { plus = fx.Circuits.Stdcell.out_node; minus = Spice.Netlist.ground; farads = 0.0 });
  let sys = Spice.Mna.build fx.Circuits.Stdcell.circuit in
  let active = if pin = 0 then fx.Circuits.Stdcell.a_name else fx.Circuits.Stdcell.b_name in
  { sys; fx; active; load = Spice.Mna.n_caps sys - 1 }

(* One measurement: apply an input ramp of the given edge, return
   (propagation delay, output slew).  [window] bounds the transient. *)
let measure arc ~vdd ~input_rising ~slew ~load ~window =
  let t0 = 0.05 *. window in
  let active_wave =
    if input_rising then Spice.Netlist.Pwl [ (0.0, 0.0); (t0, 0.0); (t0 +. slew, vdd) ]
    else Spice.Netlist.Pwl [ (0.0, vdd); (t0, vdd); (t0 +. slew, 0.0) ]
  in
  let sys =
    Spice.Mna.with_values ~waves:[ (arc.active, active_wave) ] ~farads:[ (arc.load, load) ]
      arc.sys
  in
  let t_in = t0 +. (0.5 *. slew) in
  match
    Spice.Transient.first_crossings sys ~node:arc.fx.Circuits.Stdcell.out_node
      ~levels:[ 0.5 *. vdd; 0.2 *. vdd; 0.8 *. vdd ] ~after:(0.5 *. t0) ~t_stop:window
      ~steps:420
  with
  | [ Some t_out; t_lo; t_hi ] ->
    let slew_out =
      match (t_lo, t_hi) with
      | Some ta, Some tb -> Float.abs (tb -. ta) /. 0.6
      | _, _ -> 0.0
    in
    Some (t_out -. t_in, slew_out)
  | _ -> None

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

(* Leakage per input state, from DC solves on pin 0's arc system: both
   inputs are overridden, and a DC solve leaves the load open. *)
let leakage_of kind arc ~vdd =
  let fx = arc.fx in
  List.map
    (fun state ->
      let level i = if state.(Int.min i (Array.length state - 1)) then vdd else 0.0 in
      let overrides =
        [ (fx.Circuits.Stdcell.a_name, level 0); (fx.Circuits.Stdcell.b_name, level 1) ]
      in
      let x = Spice.Dcop.solve ~overrides arc.sys in
      (state, Float.abs (Spice.Mna.source_current arc.sys x fx.Circuits.Stdcell.vdd_name)))
    (state_vectors kind)

let characterize_cell pair ~vdd kind =
  let sizing = Circuits.Inverter.balanced_sizing () in
  let slews, loads = default_grids pair sizing ~vdd in
  let ns = Array.length slews and nl = Array.length loads in
  let tp = Circuits.Chain.estimated_stage_delay pair sizing ~vdd in
  (* One system per pin; every grid point and edge of its arc sets its
     values on it. *)
  let systems = Array.init (input_count kind) (fun pin -> arc_system kind ~sizing pair ~vdd ~pin) in
  let arc_for pin arc =
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
                  measure arc ~vdd ~input_rising ~slew ~load ~window
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
    arcs = Array.mapi arc_for systems;
    leakage = leakage_of kind systems.(0) ~vdd;
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
